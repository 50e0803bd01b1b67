"""Command-line front end: CSV data files plus a JSON manifest per run.

Subcommands: spectrum (mode table), sweep (decay-rate minima vs W),
wavefunction (mode profile), scatter (phase shift / delay / enhancement),
evolve (time-domain amplitude), map (laboratory-parameter report) and
verify (cross-module consistency suite). Each subcommand imports numpy and
the library modules it uses when it runs, so --version, --help, usage
errors and map start without numpy.

Every run writes its data files into --out-dir plus a manifest.json
recording the command, the exact parameters used, tool version, ISO-8601
timestamp, the list of emitted files and any warnings. Every numeric CSV
cell is exactly '%.17g' % value (integers '%d'), so reruns with identical
flags are byte-identical and values round-trip to double precision. The
manifest's csv block records, per CSV file, its rows, bytes, write_s (wall
seconds) and fallback_cells (float cells formatted by Python's '%' rather
than by the numpy column formatter, see _csv).

Exit codes: 0 success; 1 usage or invalid parameters (message on stderr);
2 partial results (some points failed, see warnings); 3 verification or
internal-consistency failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from datetime import datetime, timezone

from . import DEFAULT_TOL, __version__

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARTIAL = 2
EXIT_VERIFY = 3

#: Seed for the randomized pole-identity check (fixed: reruns must agree).
_VERIFY_SEED = 1302

#: evolve warns when t_max * expected decay rate falls below this.
_DECAY_COVERAGE = 3.0


class _Parser(argparse.ArgumentParser):
    """argparse parser that raises ValueError (exit code 1) on bad flags."""

    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        raise ValueError(f"{self.prog}: {message}")


def _dump_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
        """Write the header line, then one line per row of the columns.

        columns are equal-length sequences: float cells are '%.17g' %
        value, integer cells '%d' and any other '%s'. Records the file in
        the manifest's csv block.
        """
        from ._csv import csv_chunks

        start = time.perf_counter()
        path = self.path(name)
        fallback = 0
        with open(path, "wb") as fh:
            size = fh.write(header.encode() + b"\n")
            for data, slow in csv_chunks(columns):
                size += fh.write(data)
                fallback += slow
        self.outputs.append(path)
        self.extras.setdefault("csv", {})[name] = {
            "rows": len(columns[0]), "bytes": size, "fallback_cells": fallback,
            "write_s": time.perf_counter() - start}

    def write_json(self, name: str, payload: dict) -> None:
        _dump_json(self.path(name), payload)
        self.outputs.append(self.path(name))

    def write_manifest(self) -> None:
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
    modes = find_modes(d, j_min=args.j_min, j_max=args.j_max, tol=args.tol)
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
    from .model import DimensionlessParams
    from .qnm import sweep_decay

    if args.steps < 1:
        raise ValueError("--steps must be >= 1")
    d = DimensionlessParams(kappa=args.kappa, W=1.0)  # W comes per point
    ws = np.linspace(args.w_min, args.w_max, args.steps)
    sweep = sweep_decay(d, ws, tol=args.tol)
    run.write_csv("sweep.csv", "w,im_theta_min,j_used", *sweep[:3])
    gaps = ~sweep.converged
    for w, note in zip(sweep.w[gaps].tolist(), sweep.note[gaps]):
        run.warnings.append(f"W={w:.17g}: no converged root ({note})")
    return EXIT_PARTIAL if gaps.any() else EXIT_OK


def _cmd_wavefunction(args: argparse.Namespace, run: _Run) -> int:
    import numpy as np
    from .model import DimensionlessParams
    from .qnm import refine_root, seed_mode
    from .scattering import qnm_wavefunction

    if args.samples < 2:
        raise ValueError("--samples must be >= 2")
    if args.x_max <= 0:
        raise ValueError("--x-max must be positive")
    d = DimensionlessParams(kappa=args.kappa, W=args.w)
    mode = refine_root(seed_mode(args.j, d), d, tol=args.tol)
    if not mode.converged:
        run.warnings.append(f"mode j={args.j} did not converge "
                            f"(residual {mode.residual:.3e}); no samples")
        return EXIT_PARTIAL
    xs = np.linspace(0.0, args.x_max, args.samples)
    phi = qnm_wavefunction(mode, xs)
    # hypot, as Python's complex abs: np.abs differs in the last digit.
    run.write_csv("wavefunction.csv", "x,re_phi,im_phi,abs_phi",
                  xs, phi.real, phi.imag, np.hypot(phi.real, phi.imag))
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
    import numpy as np
    from .dynamics import DdeConfig, FitWindowError, evolve_atom
    from .model import DimensionlessParams
    from .qnm import MAX_W, ApproximationRangeError, slowest_mode

    d = DimensionlessParams(kappa=args.kappa, W=args.w)
    cfg = DdeConfig(d=d, t_max=args.t_max, dt=args.dt)
    window = None
    if (args.fit_start is None) != (args.fit_end is None):
        raise ValueError("give both --fit-start and --fit-end or neither")
    if args.fit_start is not None:
        window = (args.fit_start, args.fit_end)
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
    try:
        traj = evolve_atom(cfg, fit_window=window)
    except FitWindowError as exc:
        traj = exc.trajectory
        run.warnings.append(f"decay fit failed: {exc}")
        hint = f" ({coverage_note})" if coverage_note else ""
        print(f"qnmlab evolve: decay fit failed: {exc}{hint}", file=sys.stderr)
    w = traj.w
    # hypot, as Python's complex abs: np.abs differs in the last digit.
    run.write_csv("evolve.csv", "s,re_w,im_w,abs_w", traj.times, w.real,
                  w.imag, np.hypot(w.real, w.imag))
    run.extras["dde"] = {
        "n_per": traj.n_per, "n_intervals": traj.n_intervals,
        "stride": traj.stride, "output_points": int(traj.times.size),
        "peak_abs_w": traj.peak_abs_w, **traj.seconds}
    if traj.fit is None:
        return EXIT_USAGE
    run.extras["fit"] = {**traj.fit._asdict(), "dt_used": traj.dt_used}
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


# ------------------------------------------------------------------ verify


def _check_pole_identity(n_points: int) -> tuple[bool, str]:
    import random
    import numpy as np
    from .dynamics import pole_check
    from .model import DimensionlessParams
    from .qnm import characteristic

    rng = random.Random(_VERIFY_SEED)
    d = DimensionlessParams(kappa=200.0, W=5.0)
    thetas = [complex(rng.uniform(-5.0, 20.0), rng.uniform(-1.0, 0.5))
              for _ in range(n_points)]
    f_abs = np.abs(characteristic(np.array(thetas), d)).tolist()
    worst = max(abs(pole_check(d, theta) - f) / (1.0 + f)
                for theta, f in zip(thetas, f_abs))
    return worst <= 1e-12, f"max normalized gap {worst:.3e} over {n_points} points"


def _check_root_count() -> tuple[bool, str]:
    import numpy as np
    from .model import DimensionlessParams
    from .qnm import ContourBox, count_roots_in_box, find_modes

    d = DimensionlessParams(kappa=200.0, W=5.0)
    box = ContourBox(re_min=0.5, re_max=4.5 * math.pi,
                     im_min=-0.05, im_max=0.001)
    counted = count_roots_in_box(d, box)
    modes = find_modes(d, j_min=1, j_max=6)
    re, im = modes.theta.real, modes.theta.imag
    found = int(np.count_nonzero(
        modes.converged & (box.re_min <= re) & (re <= box.re_max)
        & (box.im_min <= im) & (im <= box.im_max)))
    return counted == found, (f"argument principle counts {counted}, "
                              f"refinement found {found} distinct roots")


def _check_dde_agreement(full: bool, records: list) -> tuple[bool, str]:
    """Check the DDE tail fit against the slowest mode; record each run."""
    from .dynamics import DdeConfig, fit_tail
    from .model import DimensionlessParams
    from .qnm import slowest_mode

    configs = [(50.0, 2.0)] + ([(200.0, 5.0)] if full else [])
    details = []
    ok = True
    for kappa, w in configs:
        d = DimensionlessParams(kappa=kappa, W=w)
        star = slowest_mode(d).theta
        gamma = abs(star.imag)
        t_max = max(40.0, 2.0 * math.ceil(3.2 / gamma / 2.0))
        fit, record = fit_tail(DdeConfig(d=d, t_max=t_max),
                               (t_max / 2.0, t_max))
        records.append({"kappa": kappa, "w": w, "t_max": t_max, **record,
                        "samples": fit.samples})
        err_w = abs(fit.omega_fit - star.real) / abs(star.real)
        err_g = abs(fit.gamma_fit - gamma) / gamma
        details.append(f"({kappa:g},{w:g}): omega off {err_w:.2e}, "
                       f"gamma off {err_g:.2e}")
        ok = ok and err_w <= 0.01 and err_g <= 0.01
    return ok, "; ".join(details)


def _check_bound_state() -> tuple[bool, str]:
    from .model import DimensionlessParams
    from .qnm import refine_root, seed_mode

    d = DimensionlessParams(kappa=200.0, W=math.pi)
    mode = refine_root(seed_mode(1, d), d)
    im = abs(mode.theta.imag)
    return (mode.converged and im <= 1e-12,
            f"W=pi root Im magnitude {im:.3e}")


def _cmd_verify(args: argparse.Namespace, run: _Run) -> int:
    dde = run.extras["dde"] = []
    checks = [
        ("pole_identity", *_check_pole_identity(1000 if args.full else 200)),
        ("root_count_certification", *_check_root_count()),
        ("dde_vs_root", *_check_dde_agreement(args.full, dde)),
        ("bound_state_in_continuum", *_check_bound_state()),
    ]
    payload = [{"name": name, "passed": passed, "detail": detail}
               for name, passed, detail in checks]
    run.write_json("verify_report.json", {"checks": payload})
    run.extras["checks"] = payload
    failed = [name for name, passed, _ in checks if not passed]
    for name in failed:
        run.warnings.append(f"check failed: {name}")
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
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)

    p = add("sweep", _cmd_sweep, "decay-rate minima vs W -> sweep.csv")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--w-min", type=_finite, required=True)
    p.add_argument("--w-max", type=_finite, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)

    p = add("wavefunction", _cmd_wavefunction,
            "mode profile -> wavefunction.csv")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--w", type=float, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--x-max", type=_finite, required=True)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)

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
    p.add_argument("--dt", type=float, default=1e-3)
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
    except ValueError as exc:
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
    sys.exit(main())


if __name__ == "__main__":
    entry()
