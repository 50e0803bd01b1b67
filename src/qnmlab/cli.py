"""Command-line front end: argument parsing and dispatch to one handler.

Subcommands: spectrum (mode table), sweep (decay-rate minima vs W),
wavefunction (mode profile), scatter (phase shift / delay / enhancement),
evolve (time-domain amplitude), map (laboratory-parameter report) and
verify (cross-module consistency suite, qnmlab.verify). Each subcommand
imports numpy and the library modules it uses when it runs, so --version,
--help, usage errors and map start without numpy.

Every run writes its data files into --out-dir plus a manifest.json
recording the command, the exact parameters used, tool version, ISO-8601
timestamp, the list of emitted files and any warnings. The CSV files and
their records in the manifest's csv block come from _csv, which fixes
every byte: numeric cells are exactly '%.17g' % value (integers '%d'), so
reruns with identical flags are byte-identical.

Exit codes: 0 success; 1 usage or invalid parameters (message on stderr);
2 partial results (some points failed, see warnings); 3 verification or
internal-consistency failure.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys

from . import __version__

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARTIAL = 2
EXIT_VERIFY = 3

#: evolve warns when t_max * expected decay rate falls below this.
_DECAY_COVERAGE = 3.0


class _Parser(argparse.ArgumentParser):
    """argparse parser that raises ValueError (exit code 1) on bad flags."""

    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        raise ValueError(f"{self.prog}: {message}")


def _dump_json(path: str, payload: dict) -> None:
    """Write payload as JSON, refusing (before the file opens) a NaN or
    infinite number, which JSON has no way to write."""
    import json

    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise ValueError(f"{os.path.basename(path)} would hold a result that "
                         f"is not finite, which JSON cannot write") from None
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


class _Run:
    """Collects outputs and warnings while a command executes."""

    def __init__(self, command: str, parameters: dict, out_dir: str):
        self.command = command
        self.parameters = parameters
        self.out_dir = out_dir
        self.outputs: list[str] = []
        self.warnings: list[str] = []
        self.extras: dict = {}

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def write_csv(self, name: str, header: str, *columns) -> None:
        """Write the header line, then one line per row of the columns
        (see _csv.csv_chunks), and record the file in the csv block."""
        from ._csv import CsvFile

        with CsvFile(self.path(name), header) as out:
            out.add(*columns)
        self.add_csv(name, out.record())

    def add_csv(self, name: str, record: dict) -> None:
        self.outputs.append(self.path(name))
        self.extras.setdefault("csv", {})[name] = record

    def write_json(self, name: str, payload: dict) -> None:
        _dump_json(self.path(name), payload)
        self.outputs.append(self.path(name))

    def write_manifest(self) -> None:
        from datetime import datetime, timezone

        manifest = {
            "command": self.command,
            "parameters": self.parameters,
            "tool_version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "outputs": self.outputs,
            "warnings": self.warnings,
        }
        manifest.update(self.extras)
        _dump_json(self.path("manifest.json"), manifest)


def _finite(text: str) -> float:
    """argparse type of the range flags: a finite float."""
    if not math.isfinite(value := float(text)):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _params_of(args: argparse.Namespace) -> dict:
    skip = {"func", "command"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


# ---------------------------------------------------------------- commands


def _cmd_spectrum(args: argparse.Namespace, run: _Run) -> int:
    import numpy as np
    from .model import DimensionlessParams
    from .qnm import find_modes, lifetime_from_theta

    d = DimensionlessParams(kappa=args.kappa, W=args.w)
    modes = find_modes(d, j_min=args.j_min, j_max=args.j_max)
    run.write_csv("modes.csv", "j,re_theta,im_theta,residual,lifetime,converged",
                  modes.j, modes.theta.real, modes.theta.imag, modes.residual,
                  lifetime_from_theta(modes.theta),
                  np.where(modes.converged, "true", "false"))
    run.extras["modes"] = [  # radius null for no disc: NaN is not JSON
        {"j": j, "iterations": n, "note": note,
         "radius": None if math.isnan(r) else r} for j, n, note, r
        in zip(modes.j.tolist(), modes.iterations.tolist(), modes.note,
               modes.radius.tolist())]
    bad = ~modes.converged
    for j, note in zip(modes.j[bad].tolist(), modes.note[bad]):
        run.warnings.append(f"mode j={j} not converged: {note}")
    return EXIT_PARTIAL if bad.any() else EXIT_OK


def _cmd_sweep(args: argparse.Namespace, run: _Run) -> int:
    import numpy as np
    from ._csv import CHUNK_ROWS, CsvFile
    from .model import DimensionlessParams
    from .qnm import sweep_decay

    if args.steps < 1:
        raise ValueError("--steps must be >= 1")
    d = DimensionlessParams(kappa=args.kappa, W=1.0)  # W comes per point
    ws = np.linspace(args.w_min, args.w_max, args.steps)
    # one chunk of the grid solved and written at a time: besides the grid,
    # the sweep holds one chunk's columns and Newton temporaries
    with CsvFile(run.path("sweep.csv"), "w,im_theta_min,j_used") as out:
        for start in range(0, ws.size, CHUNK_ROWS):
            sweep = sweep_decay(d, ws[start:start + CHUNK_ROWS])
            out.add(*sweep[:3])
            gaps = ~sweep.converged
            for w, note in zip(sweep.w[gaps].tolist(), sweep.note[gaps]):
                run.warnings.append(f"W={w:.17g}: no converged root ({note})")
    run.add_csv("sweep.csv", out.record())
    return EXIT_PARTIAL if run.warnings else EXIT_OK


def _cmd_wavefunction(args: argparse.Namespace, run: _Run) -> int:
    import numpy as np
    from .model import DimensionlessParams
    from .qnm import _row, find_modes
    from .scattering import qnm_wavefunction

    if args.samples < 2:
        raise ValueError("--samples must be >= 2")
    if args.x_max <= 0:
        raise ValueError("--x-max must be positive")
    d = DimensionlessParams(kappa=args.kappa, W=args.w)
    mode = _row(find_modes(d, args.j, args.j), 0)
    if not mode.converged:
        run.warnings.append(f"mode j={args.j} did not converge, so no "
                            f"samples: {mode.note}")
        return EXIT_PARTIAL
    xs = np.linspace(0.0, args.x_max, args.samples)
    phi = qnm_wavefunction(mode, xs)
    run.write_csv("wavefunction.csv", "x,re_phi,im_phi,abs_phi", xs, phi)
    run.extras["mode"] = {"j": mode.j, "re_theta": mode.theta.real,
                          "im_theta": mode.theta.imag}
    return EXIT_OK


def _cmd_scatter(args: argparse.Namespace, run: _Run) -> int:
    import numpy as np
    from .model import DimensionlessParams
    from .scattering import enhancement_scan

    if args.samples < 2:
        raise ValueError("--samples must be >= 2")
    if not 0 < args.theta_min < args.theta_max:
        raise ValueError("need 0 < --theta-min < --theta-max")
    d = DimensionlessParams(kappa=args.kappa, W=args.w)
    thetas = np.linspace(args.theta_min, args.theta_max, args.samples)
    scan = enhancement_scan(d, thetas)
    run.write_csv("scatter.csv", "theta,delta,delay,enhancement", *scan[:4])
    run.warnings += [f"theta={theta:.17g}: {note}" for theta, note
                     in zip(scan.theta.tolist(), scan.note) if note]
    return EXIT_OK


def _cmd_evolve(args: argparse.Namespace, run: _Run) -> int:
    from ._csv import StreamedCsv
    from .dynamics import DdeConfig, DdeStream, FitWindowError, fit_tail
    from .model import DimensionlessParams
    from .qnm import MAX_W, ApproximationRangeError, slowest_mode

    d = DimensionlessParams(kappa=args.kappa, W=args.w)
    cfg = DdeConfig(d=d, t_max=args.t_max)
    if (args.fit_start is None) != (args.fit_end is None):
        raise ValueError("give both --fit-start and --fit-end or neither")
    window = None if args.fit_start is None else (args.fit_start, args.fit_end)
    stream = DdeStream(cfg)  # refuses a run of over MAX_ROWS rows
    coverage_note = ""
    if d.kappa > 1.0:
        try:
            gamma_expected = abs(slowest_mode(d).theta.imag)
        except ApproximationRangeError as exc:
            if d.W > MAX_W:  # no mode index: the run is refused
                raise
            gamma_expected = math.nan  # fails the coverage test below
            coverage_note = f"expected decay rate unavailable: {exc}"
            run.warnings.append(coverage_note)
        if args.t_max * gamma_expected < _DECAY_COVERAGE:
            coverage_note = (
                f"t_max*gamma_expected = {args.t_max * gamma_expected:.3g} "
                f"< {_DECAY_COVERAGE:g}: the slowest mode (expected decay "
                f"rate {gamma_expected:.3g}) barely decays over this run; "
                f"fitted rates will be unreliable")
            run.warnings.append(coverage_note)
    csv = StreamedCsv(run.path("evolve.csv"), "s,re_w,im_w,abs_w",
                      stream.rows)
    with csv as send:
        try:
            fit, run.extras["dde"] = fit_tail(stream, window, send)
        except FitWindowError as exc:
            fit, run.extras["dde"] = None, exc.record
            run.warnings.append(f"decay fit failed: {exc}")
            hint = f" ({coverage_note})" if coverage_note else ""
            print(f"qnmlab evolve: decay fit failed: {exc}{hint}",
                  file=sys.stderr)
    run.add_csv("evolve.csv", csv.record)
    if fit is None:
        return EXIT_USAGE
    run.extras["fit"] = fit._asdict()
    return EXIT_OK


def _squid_from_args(args: argparse.Namespace, scale: float) -> SquidSpec:
    from .platforms import SquidSpec

    for name in ("e_j", "c_g", "c_j", "c_sigma", "phi_x", "l", "c_line",
                 "omega_mode", "mixing_angle"):
        if getattr(args, name) is None:
            raise ValueError(f"--{name.replace('_', '-')} is required "
                             f"for --platform squid")
    if (args.v_g_gate is None) == (args.n_g is None):
        raise ValueError("give exactly one of --v-g-gate or --n-g")
    return SquidSpec(E_J=args.e_j * scale, C_g=args.c_g, C_J=args.c_j,
                     C_Sigma=args.c_sigma, Phi_x=args.phi_x,
                     L=args.l, c_line=args.c_line,
                     omega_mode=args.omega_mode * scale,
                     mixing_angle=args.mixing_angle,
                     V_g=args.v_g_gate, n_g=args.n_g)


def _cmd_map(args: argparse.Namespace, run: _Run) -> int:
    from dataclasses import asdict
    from .platforms import (RamanSpec, raman_coupling, squid_coupling,
                            squid_level_spacing)

    scale = 2.0 * math.pi if args.frequency_unit == "ordinary" else 1.0
    if args.platform == "squid":
        s = _squid_from_args(args, scale)
        levels = squid_level_spacing(s)
        coupling = squid_coupling(s)
        if coupling.note:
            run.warnings.append(coupling.note)
        report = {
            "platform": "squid",
            "level_spacing": {
                "omega_rad_per_s": levels.omega,
                "b_z_rad_per_s": levels.b_z,
                "b_x_rad_per_s": levels.b_x,
                "e_c_rad_per_s": levels.e_c,
                "n_g": levels.n_g,
                "flag": asdict(levels.flag),
            },
            "coupling": {
                "v_rad_per_s": coupling.v,
                "flag": asdict(coupling.flag),
                "note": coupling.note,
            },
        }
    else:
        for name in ("g", "big_g", "delta"):
            if getattr(args, name) is None:
                raise ValueError(f"--{name.replace('_', '-')} is required "
                                 f"for --platform raman")
        r = RamanSpec(g=args.g * scale, G=args.big_g * scale,
                      Delta=args.delta * scale)
        report = {
            "platform": "raman",
            "j_eff_rad_per_s": raman_coupling(r),
        }
    run.write_json("map_report.json", report)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace, run: _Run) -> int:
    from .verify import run_checks

    dde = run.extras["dde"] = []
    checks = run.extras["checks"] = run_checks(args.full, dde)
    run.write_json("verify_report.json", {"checks": checks})
    failed = [check["name"] for check in checks if not check["passed"]]
    run.warnings += [f"check failed: {name}" for name in failed]
    return EXIT_VERIFY if failed else EXIT_OK


# ------------------------------------------------------------- entry point


def _build_parser() -> _Parser:
    parser = _Parser(prog="qnmlab",
                     description="Quasi-normal modes of an atom-terminated "
                                 "half-waveguide: spectra, scattering, "
                                 "dynamics and platform maps.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        p.add_argument("--out-dir", default=".",
                       help="directory for CSV/JSON outputs (default: .)")
        return p

    p = add("spectrum", _cmd_spectrum, "refined mode table -> modes.csv")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--w", type=float, required=True)
    p.add_argument("--j-min", type=int, default=1)
    p.add_argument("--j-max", type=int, default=6)

    p = add("sweep", _cmd_sweep, "decay-rate minima vs W -> sweep.csv")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--w-min", type=_finite, required=True)
    p.add_argument("--w-max", type=_finite, required=True)
    p.add_argument("--steps", type=int, required=True)

    p = add("wavefunction", _cmd_wavefunction,
            "mode profile -> wavefunction.csv")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--w", type=float, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--x-max", type=_finite, required=True)
    p.add_argument("--samples", type=int, default=2000)

    p = add("scatter", _cmd_scatter,
            "phase shift / delay / enhancement -> scatter.csv")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--w", type=float, required=True)
    p.add_argument("--theta-min", type=_finite, required=True)
    p.add_argument("--theta-max", type=_finite, required=True)
    p.add_argument("--samples", type=int, default=2000)

    p = add("evolve", _cmd_evolve, "time-domain amplitude -> evolve.csv")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--w", type=float, required=True)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--fit-start", type=_finite, default=None)
    p.add_argument("--fit-end", type=_finite, default=None)

    p = add("map", _cmd_map, "laboratory parameters -> map_report.json")
    p.add_argument("--platform", choices=("squid", "raman"), required=True)
    p.add_argument("--frequency-unit", choices=("angular", "ordinary"),
                   default="angular",
                   help="how E_J, omega-mode, g, G, Delta are given "
                        "(ordinary multiplies by 2*pi)")
    p.add_argument("--e-j", type=float, default=None)
    p.add_argument("--c-g", type=float, default=None)
    p.add_argument("--c-j", type=float, default=None)
    p.add_argument("--c-sigma", type=float, default=None)
    p.add_argument("--phi-x", type=float, default=None)
    p.add_argument("--l", type=float, default=None)
    p.add_argument("--c-line", type=float, default=None)
    p.add_argument("--omega-mode", type=float, default=None)
    p.add_argument("--mixing-angle", type=float, default=None)
    p.add_argument("--v-g-gate", type=float, default=None,
                   help="gate voltage (V); alternative to --n-g")
    p.add_argument("--n-g", type=float, default=None)
    p.add_argument("--g", type=float, default=None)
    p.add_argument("--big-g", type=float, default=None,
                   help="Raman drive coupling G")
    p.add_argument("--delta", type=float, default=None)

    p = add("verify", _cmd_verify,
            "cross-module consistency suite -> verify_report.json")
    group = p.add_mutually_exclusive_group()
    # store_false would default full to True: plain verify must be quick
    group.add_argument("--quick", dest="full", action="store_false",
                       default=False)
    group.add_argument("--full", action="store_true")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help / --version
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE

    try:
        os.makedirs(args.out_dir, exist_ok=True)
        run = _Run(command=args.command, parameters=_params_of(args),
                   out_dir=args.out_dir)
        code = args.func(args, run)
        run.write_manifest()
        return code
    except (ValueError, MemoryError) as exc:  # MemoryError: a count too big
        print(f"qnmlab {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:  # ContourError among them
        print(f"qnmlab {args.command}: internal consistency failure: {exc}",
              file=sys.stderr)
        return EXIT_VERIFY
    except OSError as exc:
        print(f"qnmlab {args.command}: cannot write outputs: {exc}",
              file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    """Run main() as the whole process: the console script and -m.

    A run is one command in a process about to end, so the cycle collector
    only costs time. It is off from before numpy's import, during which it
    would run some thirty times, and the heap is frozen before exit, so
    that the interpreter's last collection neither walks nor frees the
    tens of thousands of objects of numpy, the standard library and
    qnmlab: the OS reclaims their memory. numpy arrays are not tracked by
    the collector and reference counting frees them; files close in their
    with blocks, and exit still runs the atexit handlers and flushes
    stdio. main() itself, as library callers and the tests use it, leaves
    the collector alone.
    """
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
