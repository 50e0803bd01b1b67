"""qnmlab benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload {bulk-spectral,interactive,time-domain}
                         --seed N --seconds S --trace {0,1} [--scale F]

Run from a source checkout; the package runs from `src` (PYTHONPATH), as
the test suite does. One client process drives a closed loop: it starts
one `python -m qnmlab.cli ...` child at a time and waits for it. Children
get OMP/OPENBLAS/MKL_NUM_THREADS=1 and no QNMLAB_THREADS, so the library's
worker count stays at its default of 1.

--trace 0 runs passes over the workload's seeded command list, as many as
fit in --seconds at the workload's nominal pass length (at least one), then
reports the end-to-end metrics. Each of their times is scaled by the
host's speed around it, sampled by a probe thread (HostSpeed), so that a
shared host's drift does not read as a change of the program; the raw
times stay in the record. --trace 1 instead calls qnmlab.cli.main
in-process: one untraced pass, one pass under the timing wrappers of
layers.py, and an import-time breakdown; it reports the per-layer metrics.

Every output is checked against the references in checks.py, outside the
timed region: the first pass in full, later passes by byte identity of the
data files. The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics; the full record, with provenance and spans,
goes to .bench_out/. See README.md for the workloads and metric map.
"""

from __future__ import annotations

import argparse
import bisect
import cmath
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}

#: Least number of cold `--version` spawns per run for setup_s, spread
#: evenly over the commands of all passes (after one discarded warm-up).
SETUP_SPAWNS = 4

#: Host-speed sampling. The speed of a shared host's cores changes by up to
#: 1.7x within seconds and drifts over minutes, so raw times of the same
#: code spread by up to a quarter between runs. A background thread times a
#: fixed probe loop (PROBE_LOOPS steps) every PROBE_EVERY_S while the children
#: run on the other core, and each timed spawn is scaled by
#: REFERENCE_PROBE_S / (mean probe time around it): times read in seconds
#: of a host on which the probe takes REFERENCE_PROBE_S, about its time in
#: the fast state of the 2-core Xeon that defined the benchmark. Raw times
#: stay in the record.
PROBE_LOOPS = 10_000
PROBE_EVERY_S = 0.1
REFERENCE_PROBE_S = 0.010

#: Fresh interpreters per run for the import-time breakdown.
IMPORT_RUNS = 5

#: A child still running after this many seconds is killed (and fails).
CHILD_TIMEOUT_S = 150.0

#: Samples a tail percentile must leave above it.
TAIL_MARGIN = 10


def units(kind: str) -> dict[str, str]:
    """Metric name -> unit, in BENCHMARK.json order ("end_to_end" or
    "per_layer")."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "QNMLAB_THREADS"}
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], env: dict) -> tuple[float, float, int, float,
                                               float]:
    """Run one child to completion: (start, end, exit code, max RSS MiB,
    CPU seconds), start and end on the perf_counter clock.

    wait4 gives this child's own peak RSS, not one shared across children.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        end = time.perf_counter()
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (start, end, proc.returncode, usage.ru_maxrss / 1024.0,
            usage.ru_utime + usage.ru_stime)


def probe() -> float:
    """Seconds this process takes for a fixed pure-Python complex Newton
    loop, the kind of scalar work the commands do. It is independent of
    qnmlab, so no change to the package can move it."""
    start = time.perf_counter()
    z = 0.5 + 0.1j
    for _ in range(PROBE_LOOPS):
        z = z - (cmath.sin(z) - 0.3 * z) / (cmath.cos(z) - 0.3) * 1e-3 + 1e-4j
    return time.perf_counter() - start


class HostSpeed:
    """Times probe() every PROBE_EVERY_S in a background thread, children
    running or not, so the host's speed is known at every moment of a run.
    scale() is read after the sampler stops."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (midpoint, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(PROBE_EVERY_S):
            start = time.perf_counter()
            seconds = probe()
            self.samples.append((start + seconds / 2, seconds))

    def __enter__(self) -> "HostSpeed":
        # A probe holds the GIL; a short switch interval lets the main
        # thread read the clock within 1 ms of a child's exit.
        self._switch = sys.getswitchinterval()
        sys.setswitchinterval(0.001)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        sys.setswitchinterval(self._switch)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_PROBE_S over the mean probe time from one sampling
        period before start to one after end."""
        mids = [mid for mid, _ in self.samples]
        lo = bisect.bisect_left(mids, start - PROBE_EVERY_S)
        hi = bisect.bisect_right(mids, end + PROBE_EVERY_S)
        near = ([sec for _, sec in self.samples[lo:hi]]
                or [sec for _, sec in self.samples[max(0, lo - 1):lo + 1]])
        return REFERENCE_PROBE_S / statistics.fmean(near)


def out_name(i: int, cmd) -> str:
    """Name of command i's output directory within a pass."""
    return f"{i:02d}-{cmd.sub}"


def digest(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every data file of one command (manifest.json excluded)."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.name != "manifest.json"}


class Ledger:
    """Per-command outcomes: the first pass is checked against references,
    later passes must reproduce its data files byte for byte."""

    def __init__(self, commands):
        self.commands = commands
        self.first: list[tuple] = []     # (code, digest, status, detail)
        self.outcomes: list[dict] = []

    def record(self, pass_no: int, i: int, code: int, out_dir: Path) -> dict:
        cmd = self.commands[i]
        sums = digest(out_dir)
        if len(self.first) <= i:
            status, detail = checks.check(cmd.sub, cmd.flags, code,
                                          str(out_dir))
            self.first.append((code, sums, status, detail))
        elif (code, sums) == self.first[i][:2]:
            status, detail = self.first[i][2:]
        else:
            status, detail = checks.WRONG, "output differs from first pass"
        row = {"pass": pass_no, "command": i, "sub": cmd.sub, "exit": code,
               "status": status, "detail": detail}
        self.outcomes.append(row)
        return row

    def summary(self) -> dict:
        failed = sum(o["status"] != checks.OK for o in self.outcomes)
        return {"correct": all(o["status"] != checks.WRONG
                               for o in self.outcomes),
                "attempted": len(self.outcomes), "failed": failed}

    def data_sha256(self) -> dict[str, str]:
        return {f"{out_name(i, self.commands[i])}/{name}": h
                for i, first in enumerate(self.first)
                for name, h in first[1].items()}


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_MARGIN
    samples above it, or the maximum when no such percentile reaches p50
    (fewer than 2 * TAIL_MARGIN samples)."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - TAIL_MARGIN - 1 if n >= 2 * TAIL_MARGIN else n - 1
    return ordered[k], 100.0 * (k + 1) / n


def measure(commands, passes: int, work: Path) -> tuple[dict, dict]:
    """End-to-end run: closed-loop passes with set-up spawns spread among
    the commands, so that setup_s samples the whole run. Every time is
    scaled by the host's speed around it (HostSpeed)."""
    env = child_env()
    python = sys.executable
    version = [python, "-m", "qnmlab.cli", "--version"]
    spawn(version, env)            # warm-up: compiles .pyc, discarded
    setup_stride = max(1, passes * len(commands) // SETUP_SPAWNS)

    ledger = Ledger(commands)
    runs, setups = [], []          # spawn() results
    with HostSpeed() as host:
        for pass_no in range(passes):
            pass_dir = work / f"pass{pass_no}"
            for i, cmd in enumerate(commands):
                if (pass_no * len(commands) + i) % setup_stride == 0:
                    setups.append(spawn(version, env))
                out = pass_dir / out_name(i, cmd)
                runs.append(spawn([python, "-m", "qnmlab.cli"]
                                  + cmd.argv(str(out)), env))
            for i in range(len(commands)):
                out = pass_dir / out_name(i, commands[i])
                out.mkdir(parents=True, exist_ok=True)
                ledger.record(pass_no, i, runs[-len(commands) + i][2], out)
            shutil.rmtree(pass_dir)

    def times(spawns) -> tuple[list[float], list[float]]:
        """(raw, scaled) wall seconds of each spawn."""
        raw = [end - start for start, end, *_ in spawns]
        return raw, [t * host.scale(start, end)
                     for t, (start, end, *_) in zip(raw, spawns)]

    raw_lat, latencies = times(runs)
    raw_setup, setup_times = times(setups)
    for row, raw, scaled, (*_, peak, cpu) in zip(ledger.outcomes, raw_lat,
                                                  latencies, runs):
        row.update(latency_s=raw, scaled_latency_s=scaled, cpu_s=cpu,
                   max_rss_mib=peak)

    def walls(lat: list[float]) -> list[float]:
        n = len(commands)
        return [sum(lat[k:k + n]) for k in range(0, len(lat), n)]

    summary = ledger.summary()
    tail_value, tail_pct = tail(latencies)
    metrics = {
        "wall_s": statistics.fmean(walls(latencies)),
        "setup_s": statistics.median(setup_times),
        "cmd_p50_s": statistics.median(latencies),
        "cmd_tail_s": tail_value,
        "peak_rss_mb": max(run[3] for run in runs),
        "error_rate": summary["failed"] / summary["attempted"],
    }
    probe_times = [sec for _, sec in host.samples]
    detail = {"passes": passes, "pass_walls_s": walls(latencies),
              "raw": {"pass_walls_s": walls(raw_lat),
                      "setup_spawns_s": raw_setup,
                      "cmd_p50_s": statistics.median(raw_lat),
                      "cmd_tail_s": tail(raw_lat)[0]},
              "probes": {"count": len(probe_times),
                         "mean_s": statistics.fmean(probe_times),
                         "quartiles_s": statistics.quantiles(probe_times,
                                                             n=4)},
              "setup_spawns_s": setup_times,
              "command_samples": len(latencies),
              "cmd_tail_percentile": tail_pct,
              "outcomes": ledger.outcomes,
              "data_sha256": ledger.data_sha256()}
    return ({"summary": summary,
             "metrics": {k: (metrics[k], u)
                         for k, u in units("end_to_end").items()}}, detail)


def _in_process_pass(main, commands, pass_dir: Path, ledger: Ledger,
                     pass_no: int, tracer=None) -> float:
    """Run every command through `main` in this process; returns its wall."""
    wall = 0.0
    sink = io.StringIO()
    for i, cmd in enumerate(commands):
        out = pass_dir / out_name(i, cmd)
        if tracer is not None:
            tracer.command = i
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            code = main(cmd.argv(str(out)))
        wall += time.perf_counter() - start
        out.mkdir(parents=True, exist_ok=True)
        ledger.record(pass_no, i, code, out)
    shutil.rmtree(pass_dir)
    return wall


def traced(commands, work: Path, label: str) -> tuple[dict, dict]:
    """Per-layer run: import breakdown, then untraced and traced passes."""
    env = child_env()
    imports = layers.import_times(sys.executable, env, str(ROOT), IMPORT_RUNS)

    os.environ.update(THREAD_PINS)
    os.environ.pop("QNMLAB_THREADS", None)
    sys.path.insert(0, str(SRC))
    import qnmlab
    import qnmlab.cli as cli

    ledger = Ledger(commands)
    plain = _in_process_pass(cli.main, commands, work / "plain", ledger, 0)
    tracer = layers.Tracer()
    tracer.install(qnmlab, cli)
    try:
        main = tracer.span("cli.main", cli.main)
        with_trace = _in_process_pass(main, commands, work / "traced",
                                      ledger, 1, tracer)
    finally:
        tracer.uninstall()

    fit_errors = sum(o["status"] != checks.OK for o in ledger.outcomes
                     if o["pass"] == 1 and o["sub"] == "evolve")
    values = layers.layer_metrics(tracer, fit_errors)
    values.update(imports)
    values["trace.overhead_ratio"] = with_trace / plain
    spans_path = OUT / f"{label}-spans.json"
    spans_path.write_text(json.dumps(tracer.records()))
    detail = {"untraced_wall_s": plain, "traced_wall_s": with_trace,
              "spans_file": str(spans_path.relative_to(ROOT)),
              "outcomes": ledger.outcomes,
              "data_sha256": ledger.data_sha256()}
    return ({"summary": ledger.summary(),
             "metrics": {k: (values[k], u)
                         for k, u in units("per_layer").items()}}, detail)


def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout if proc.returncode == 0 else None


def provenance(workload: str, seed: int, data_sha256: dict) -> dict:
    """Machine, versions, revision, seed and thread pins of one result, plus
    the SHA-256 of each data file the first pass wrote."""
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    top = _git("rev-parse", "--show-toplevel")
    in_git = top is not None and Path(top.strip()).resolve() == ROOT
    status = _git("status", "--porcelain") if in_git else None
    return {
        "workload": workload, "seed": seed, "nproc": os.cpu_count(),
        "cpu_model": cpu, "python": platform.python_version(),
        **{name: importlib.metadata.version(name)
           for name in ("numpy", "scipy", "mpmath")},
        "git_revision": _git("rev-parse", "HEAD").strip() if in_git else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
        "thread_pins": THREAD_PINS, "QNMLAB_THREADS": None,
        "data_sha256": data_sha256,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="fraction of the full workload size (smoke "
                             "tests use a small one)")
    args = parser.parse_args()
    if not (SRC / "qnmlab" / "cli.py").is_file():
        print(f"bench: no qnmlab sources under {SRC}; run from a source "
              f"checkout", file=sys.stderr)
        return 2

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / label
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    commands = workloads.WORKLOADS[args.workload](random.Random(args.seed),
                                                  args.scale)
    try:
        if args.trace:
            result, detail = traced(commands, work, label)
        else:
            passes = max(1, round(args.seconds
                                  / workloads.NOMINAL_PASS_S[args.workload]))
            result, detail = measure(commands, passes, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {"provenance": provenance(args.workload, args.seed,
                                       detail.pop("data_sha256")),
              "commands": [c.argv("<out>") for c in commands],
              **result["summary"], **detail,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in result["metrics"].items()}}
    (OUT / f"{label}.json").write_text(json.dumps(record, indent=1) + "\n")

    summary = result["summary"]
    print(f"{label}: {summary['attempted']} commands, {summary['failed']} "
          f"failed, outputs {'correct' if summary['correct'] else 'WRONG'}")
    for o in detail["outcomes"]:
        if o["status"] != checks.OK and o["pass"] == 0:
            print(f"  {o['status']}: #{o['command']} {o['sub']}: "
                  f"{o['detail']}")
    if "command_samples" in detail:
        print(f"  {detail['passes']} passes; cmd_tail_s is "
              f"p{detail['cmd_tail_percentile']:.1f} of "
              f"{detail['command_samples']} command samples")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps({**summary, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
