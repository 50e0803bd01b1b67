"""Per-layer measurement: timing wrappers around `qnmlab`'s public functions
and an import-time breakdown from `python -X importtime`.

The layers are the package's modules. A Tracer replaces each measured
function with a wrapper, both in its defining module and in `qnmlab.cli`,
which imported the name; internal calls such as find_modes ->
count_roots_in_box go through the module global and are seen too. Spans
(name, start, end, parent, command index) stay in memory until the run
writes them out. The per-point functions refine_root and phase_shift get
counters only, so tracing stays cheap.
"""

from __future__ import annotations

import functools
import math
import os
import statistics
import subprocess
import time
from collections import Counter, defaultdict

#: Spanned functions, by module. Hooks add counts from arguments/results.
SPANNED = {
    "qnm": ("find_modes", "count_roots_in_box", "sweep_decay",
            "slowest_mode"),
    "scattering": ("enhancement_scan", "qnm_wavefunction"),
    "dynamics": ("evolve_atom", "fit_decay"),
    "platforms": ("squid_level_spacing", "squid_coupling", "raman_coupling"),
}
COUNTED = {"qnm": ("refine_root",), "scattering": ("phase_shift",)}
PLATFORM_SPANS = tuple("platforms." + f for f in SPANNED["platforms"])

#: Module -> metric prefix of its import time; numpy is reported apart,
#: since its cost would otherwise land on whichever module imports it first.
IMPORT_METRICS = {
    "qnmlab.model": "model", "qnmlab.qnm": "qnm",
    "qnmlab.dynamics": "dynamics", "qnmlab.scattering": "scattering",
    "qnmlab.platforms": "platforms", "qnmlab.cli": "cli",
}


class Tracer:
    """Installs timing wrappers and collects spans and counts in memory."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, command]
        self.counts: Counter = Counter()
        self.command = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent,
                               self.command])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._stack.pop()
            if hook:
                hook(self.counts, args, kwargs, result)
            return result
        return wrapper

    def counter(self, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(self.counts, args, kwargs, result)
            return result
        return wrapper

    def _patch(self, module, name: str, wrapped, also) -> None:
        original = getattr(module, name)
        self._patched.append((module, name, original))
        setattr(module, name, wrapped)
        if getattr(also, name, None) is original:
            self._patched.append((also, name, original))
            setattr(also, name, wrapped)

    def install(self, package, cli) -> None:
        for mod_name, names in SPANNED.items():
            module = getattr(package, mod_name)
            for name in names:
                wrapped = self.span(f"{mod_name}.{name}",
                                    getattr(module, name), HOOKS.get(name))
                self._patch(module, name, wrapped, cli)
        for mod_name, names in COUNTED.items():
            module = getattr(package, mod_name)
            for name in names:
                wrapped = self.counter(getattr(module, name), HOOKS[name])
                self._patch(module, name, wrapped, cli)
        for name in ("write_csv", "write_json"):
            wrapped = self.span(f"cli.{name}", getattr(cli._Run, name),
                                HOOKS[name])
            self._patch(cli._Run, name, wrapped, None)

    def uninstall(self) -> None:
        for target, name, original in reversed(self._patched):
            setattr(target, name, original)
        self._patched.clear()

    def records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "command": c}
                for n, s, e, p, c in self.spans]


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _on_refine(counts, args, kwargs, mode) -> None:
    counts["refine_root_calls"] += 1
    counts["newton_iterations"] += mode.iterations
    counts["unconverged"] += not mode.converged


def _on_evolve(counts, args, kwargs, result) -> None:
    cfg = _arg(args, kwargs, 0, "cfg")
    from qnmlab.dynamics import ROUND_TRIP
    n_per = int(round(ROUND_TRIP / cfg.dt))
    intervals = int(math.ceil(cfg.t_max / ROUND_TRIP - 1e-12))
    counts["dde_intervals"] += intervals
    counts["dde_steps"] += n_per * intervals
    counts["output_points"] += len(result.times)


def _on_write(counts, args, kwargs, result) -> None:
    run, name = args[0], _arg(args, kwargs, 1, "name")
    counts["bytes_written"] += os.path.getsize(run.path(name))


def _on_write_csv(counts, args, kwargs, result) -> None:
    counts["rows_written"] += len(_arg(args, kwargs, 3, "rows"))
    _on_write(counts, args, kwargs, result)


HOOKS = {
    "sweep_decay": lambda c, a, k, r: c.update(
        sweep_points=len(_arg(a, k, 1, "w_values"))),
    "enhancement_scan": lambda c, a, k, r: c.update(
        scan_points=len(_arg(a, k, 1, "thetas"))),
    "refine_root": _on_refine,
    "phase_shift": lambda c, a, k, r: c.update(phase_shift_calls=1),
    "evolve_atom": _on_evolve,
    "write_csv": _on_write_csv,
    "write_json": _on_write,
}


def span_times(spans: list[list]) -> tuple[dict, dict, Counter]:
    """Total time, self time (span minus its child spans) and call count."""
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total, own, calls = defaultdict(float), defaultdict(float), Counter()
    for idx, (name, start, end, _, _) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - child_time[idx]
        calls[name] += 1
    return total, own, calls


def layer_metrics(tracer: Tracer, fit_errors: int) -> dict[str, float]:
    """Per-layer figures of one traced pass, keyed by metric name."""
    total, own, calls = span_times(tracer.spans)
    c = tracer.counts

    def per(value: float, count: int, unit: float) -> float:
        return value / count * unit if count else 0.0

    evolve_self = own["dynamics.evolve_atom"]
    return {
        "qnm.sweep_decay_s": total["qnm.sweep_decay"],
        "qnm.us_per_sweep_point": per(total["qnm.sweep_decay"],
                                      c["sweep_points"], 1e6),
        "qnm.find_modes_s": total["qnm.find_modes"],
        "qnm.count_roots_in_box_s": total["qnm.count_roots_in_box"],
        "qnm.count_roots_in_box_calls": calls["qnm.count_roots_in_box"],
        "qnm.slowest_mode_s": total["qnm.slowest_mode"],
        "qnm.refine_root_calls": c["refine_root_calls"],
        "qnm.newton_iterations": c["newton_iterations"],
        "qnm.unconverged_ratio": per(c["unconverged"],
                                     c["refine_root_calls"], 1.0),
        "scattering.enhancement_scan_s": total["scattering.enhancement_scan"],
        "scattering.phase_shift_calls": c["phase_shift_calls"],
        "scattering.us_per_point": per(total["scattering.enhancement_scan"],
                                       c["scan_points"], 1e6),
        "scattering.qnm_wavefunction_s": total["scattering.qnm_wavefunction"],
        "dynamics.evolve_atom_self_s": evolve_self,
        "dynamics.fit_decay_s": total["dynamics.fit_decay"],
        "dynamics.steps": c["dde_steps"],
        "dynamics.ns_per_step": per(evolve_self, c["dde_steps"], 1e9),
        "dynamics.us_per_interval": per(evolve_self, c["dde_intervals"], 1e6),
        "dynamics.output_points": c["output_points"],
        "dynamics.fit_errors": fit_errors,
        "cli.self_s": (own["cli.main"] + own["cli.write_csv"]
                       + own["cli.write_json"]),
        "cli.rows_written": c["rows_written"],
        "cli.bytes_written": c["bytes_written"],
        "cli.us_per_row": per(total["cli.write_csv"], c["rows_written"], 1e6),
        "platforms.map_s": sum(total[n] for n in PLATFORM_SPANS),
    }


def _parse_importtime(stderr: str) -> dict[str, float]:
    """Import seconds per IMPORT_METRICS module, plus import.numpy_s.

    A module's figure is its own import plus every third-party or stdlib
    module it imported first, excluding nested qnmlab modules and numpy,
    which have lines of their own.
    """
    # -X importtime prints post-order lines "self | cumulative |  name",
    # indented two spaces per nesting level.
    stack: list[tuple] = []
    found = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, name_field = line[len("import time:"):].split("|")
        name = name_field.strip()
        depth = (len(name_field) - len(name_field.lstrip()) - 1) // 2
        children = []
        while stack and stack[-1][0] > depth:
            children.append(stack.pop())
        node = (depth, name, int(self_us), int(cum_us), children)
        stack.append(node)
        found[name] = node

    def exclusive(node) -> int:
        return node[2] + sum(exclusive(ch) for ch in node[4]
                             if ch[1] != "numpy"
                             and not ch[1].startswith("qnmlab"))

    # A module the import no longer reaches costs nothing.
    out = {f"{prefix}.import_s": exclusive(found[mod]) * 1e-6 if mod in found
           else 0.0 for mod, prefix in IMPORT_METRICS.items()}
    numpy = found.get("numpy")
    out["import.numpy_s"] = numpy[3] * 1e-6 if numpy else 0.0
    return out


def import_times(python: str, env: dict, cwd: str, runs: int) -> dict:
    """Median import breakdown over `runs` fresh interpreters.

    One warm-up run is discarded so that .pyc compilation is excluded.
    """
    argv = [python, "-X", "importtime", "-c", "import qnmlab.cli"]
    samples = []
    for i in range(runs + 1):
        proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True,
                              text=True, timeout=60, check=True)
        if i:
            samples.append(_parse_importtime(proc.stderr))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
