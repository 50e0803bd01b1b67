"""Output checks for every `qnmlab` subcommand against independent references.

The references are written here from the physics, in 40-digit mpmath, and
share no code with the package: the characteristic function
f(theta) = kappa sin(theta) e^{i theta} - (W - theta) and its Newton
roots, the closed-form phase shift and enhancement, the leaky-mode profile,
the exact first delay interval of the DDE, and the platform formulas with
the exact SI-2019 constants.

A check returns one of three statuses:

- "ok": the command did its job and every number checked is right;
- "defect": the command failed in a documented way (exit 2 on modes flagged
  unconverged at the residual floor while their values are right, or an
  evolve fit over the default window that misses the slowest mode by more
  than 1%). It counts as a failed command but not as a wrong output;
- "wrong": anything else, e.g. a number that disagrees with the reference,
  an unexpected exit code, a missing file or a seeded fit off by > 1%.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import os

import mpmath

OK, DEFECT, WRONG = "ok", "defect", "wrong"

#: Working precision of every reference, in decimal digits.
DPS = 40

#: |f(theta)| / ((1 + kappa) |theta|) a reported root may reach: a few
#: thousand double-precision ulps.
ROOT_REL_RESIDUAL = 1e-12

#: Relative tolerance of the time/frequency agreement, as in `verify`.
FIT_TOL = 0.01

#: Rows sampled per file for the pointwise reference checks.
SAMPLES = 12

#: Every this many evolve rows are checked against the norm bound |w| <= 1.
EVOLVE_ROW_STRIDE = 97

#: Exact SI-2019 constants.
E_CHARGE = mpmath.mpf("1.602176634e-19")
PLANCK = mpmath.mpf("6.62607015e-34")


def char_f(theta, kappa, w):
    return kappa * mpmath.sin(theta) * mpmath.exp(1j * theta) - (w - theta)


def newton_root(kappa: float, w: float, start: complex):
    """A zero of f near `start`, refined in mpmath to working precision."""
    with mpmath.workdps(DPS):
        theta = mpmath.mpc(start)
        k, wl = mpmath.mpf(kappa), mpmath.mpf(w)
        for _ in range(80):
            step = char_f(theta, k, wl) / (k * mpmath.exp(2j * theta) + 1)
            theta -= step
            if abs(step) < mpmath.mpf(10) ** (4 - DPS):
                break
        return complex(theta)


def seed(j: int, kappa: float, w: float) -> complex:
    delta = w - j * math.pi
    return (j * math.pi + delta * (kappa - 1.0) / kappa**2
            - 1j * delta * delta / kappa**2)


def slowest_root(kappa: float, w: float) -> complex:
    """The smaller-|Im| root of the two neighbours of W/pi."""
    j_lo = math.floor(w / math.pi)
    roots = [newton_root(kappa, w, seed(j, kappa, w))
             for j in (j_lo, j_lo + 1)]
    return min(roots, key=lambda t: abs(t.imag))


def _rel_residual(theta: complex, kappa: float, w: float) -> float:
    with mpmath.workdps(DPS):
        f = char_f(mpmath.mpc(theta), mpmath.mpf(kappa), mpmath.mpf(w))
        return float(abs(f) / ((1 + kappa) * abs(mpmath.mpc(theta))))


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _spread(n: int, k: int = SAMPLES) -> list[int]:
    """k indices spread evenly over range(n), ends included."""
    if n <= k:
        return list(range(n))
    return sorted({round(i * (n - 1) / (k - 1)) for i in range(k)})


def _exit_and_flags(code: int, flagged: int, what: str,
                    problems: list[str]) -> str | None:
    """Exit 0 with nothing flagged, or exit 2 with something flagged."""
    if code not in (0, 2) or (code == 2) != (flagged > 0):
        problems.append(f"exit {code} with {flagged} {what}")
        return None
    return f"{flagged} {what}" if flagged else None


def _spectrum(flags: dict, code: int, out: str, problems: list[str]):
    rows = _read_csv(os.path.join(out, "modes.csv"))
    if not rows:
        problems.append("modes.csv has no rows")
    for row in rows:
        theta = complex(float(row["re_theta"]), float(row["im_theta"]))
        rel = _rel_residual(theta, flags["kappa"], flags["w"])
        if rel > ROOT_REL_RESIDUAL:
            problems.append(f"mode j={row['j']}: relative |f| {rel:.2e}")
        if int(row["j"]) != round(theta.real / math.pi):
            problems.append(f"mode j={row['j']} sits at Re theta {theta.real}")
    flagged = sum(row["converged"] == "false" for row in rows)
    return _exit_and_flags(code, flagged, "modes flagged unconverged",
                           problems)


def _sweep(flags: dict, code: int, out: str, problems: list[str]):
    rows = _read_csv(os.path.join(out, "sweep.csv"))
    if len(rows) != flags["steps"]:
        problems.append(f"{len(rows)} rows for {flags['steps']} steps")
    gaps = _read_json(os.path.join(out, "manifest.json"))["warnings"]
    gap_ws = {float(g.split(":")[0].removeprefix("W=")) for g in gaps}
    picked = [rows[i] for i in _spread(len(rows))]
    picked += [r for r in rows if float(r["w"]) in gap_ws][:SAMPLES // 3]
    kappa = flags["kappa"]
    for row in picked:
        w, im = float(row["w"]), float(row["im_theta_min"])
        j = round(w / math.pi)
        if j >= 1 and abs(w - j * math.pi) < 1e-9:
            ref = complex(j * math.pi, 0.0)
        else:
            ref = newton_root(kappa, w, seed(j, kappa, w))
        if abs(im - abs(ref.imag)) > 1e-13 + 1e-9 * abs(ref.imag):
            problems.append(f"W={w!r}: |Im theta| {im!r}, reference "
                            f"{abs(ref.imag)!r}")
        if int(row["j_used"]) != round(ref.real / math.pi):
            problems.append(f"W={w!r}: j_used {row['j_used']}")
    return _exit_and_flags(code, len(gaps), "W points left as gaps",
                           problems)


def _phase_and_enhancement(theta, kappa, w):
    s, c = mpmath.sin(theta), mpmath.cos(theta)
    g = kappa / (w - theta)
    delta = mpmath.atan2(g * s * s, 1 - g * s * c)
    return delta, (mpmath.sin(theta + delta) / s) ** 2


def _condition(t, k, wl) -> tuple[float, float]:
    """|t d/dt| + |W d/dW| of (delta, enhancement).

    Rounding the inputs to double moves a double-precision result by eps
    times this condition number; the checks allow a few hundred ulps of it.
    """
    out = []
    for part in (0, 1):
        d_t = mpmath.diff(lambda x: _phase_and_enhancement(x, k, wl)[part], t)
        d_w = mpmath.diff(lambda y: _phase_and_enhancement(t, k, y)[part], wl)
        out.append(float(abs(t * d_t) + abs(wl * d_w)))
    return out[0], out[1]


def _scatter(flags: dict, code: int, out: str, problems: list[str]):
    if code != 0:
        problems.append(f"exit {code}")
    rows = _read_csv(os.path.join(out, "scatter.csv"))
    if len(rows) != flags.get("samples", 2000):
        problems.append(f"{len(rows)} rows")
    kappa, w = flags["kappa"], flags["w"]
    with mpmath.workdps(DPS):
        k, wl = mpmath.mpf(kappa), mpmath.mpf(w)
        for i in _spread(len(rows)):
            theta = float(rows[i]["theta"])
            jn = round(theta / math.pi)
            if abs(theta - jn * math.pi) < 1e-9 or abs(theta - w) < 1e-9:
                continue        # evaluated as a limit, by design
            t = mpmath.mpf(theta)
            delta, enh = _phase_and_enhancement(t, k, wl)
            cond_d, cond_e = _condition(t, k, wl)
            gap = float(rows[i]["delta"]) - delta
            gap = float(gap - mpmath.pi * mpmath.nint(gap / mpmath.pi))
            if abs(gap) > 1e-10 + 1e-13 * cond_d:
                problems.append(f"theta={theta!r}: delta off by {gap:.2e}")
            e_gap = abs(float(rows[i]["enhancement"]) - enh)
            if e_gap > 1e-10 * float(enh) + 1e-13 * cond_e:
                problems.append(f"theta={theta!r}: enhancement off by "
                                f"{float(e_gap):.2e}")
    return None


def _wavefunction(flags: dict, code: int, out: str, problems: list[str]):
    manifest = _read_json(os.path.join(out, "manifest.json"))
    if code == 2 and manifest["warnings"]:
        return "mode flagged unconverged"
    if code != 0:
        problems.append(f"exit {code}")
        return None
    mode = manifest["mode"]
    theta = complex(mode["re_theta"], mode["im_theta"])
    rel = _rel_residual(theta, flags["kappa"], flags["w"])
    if rel > ROOT_REL_RESIDUAL:
        problems.append(f"mode relative |f| {rel:.2e}")
    rows = _read_csv(os.path.join(out, "wavefunction.csv"))
    with mpmath.workdps(DPS):
        t = mpmath.mpc(theta)
        for i in _spread(len(rows)):
            x = mpmath.mpf(float(rows[i]["x"]))
            ref = (mpmath.sin(t * x) if x <= 1
                   else mpmath.sin(t) * mpmath.exp(1j * t * (x - 1)))
            got = complex(float(rows[i]["re_phi"]), float(rows[i]["im_phi"]))
            if abs(got - ref) > 1e-11 * max(1.0, abs(ref)):
                problems.append(f"phi({float(x)!r}) off by "
                                f"{float(abs(got - ref)):.2e}")
    return None


def _evolve(flags: dict, code: int, out: str, problems: list[str]):
    if code != 0:
        problems.append(f"exit {code}")
        return None
    kappa, w = flags["kappa"], flags["w"]
    lam = complex(kappa / 2.0, w)
    with open(os.path.join(out, "evolve.csv"), "rb") as fh:
        lines = fh.read().splitlines()[1:]
    peak = max(float(line.rsplit(b",", 1)[1])
               for line in lines[::EVOLVE_ROW_STRIDE])
    worst_early = 0.0
    for line in lines:      # up to the first round trip the decay is free
        s, re_w, im_w, _ = (float(v) for v in line.split(b","))
        if s > 2.0:
            break
        worst_early = max(worst_early,
                          abs(complex(re_w, im_w) - cmath.exp(-lam * s)))
    if len(lines) < 100:
        problems.append(f"only {len(lines)} trajectory rows")
    if peak > 1.0 + 1e-6:
        problems.append(f"|w| reaches {peak!r}, above the norm bound")
    if worst_early > 1e-9:
        problems.append(f"first delay interval off by {worst_early:.2e}")
    fit = _read_json(os.path.join(out, "manifest.json"))["fit"]
    star = slowest_root(kappa, w)
    err_w = abs(fit["omega_fit"] - star.real) / abs(star.real)
    err_g = abs(fit["gamma_fit"] - abs(star.imag)) / abs(star.imag)
    if max(err_w, err_g) <= FIT_TOL:
        return None
    miss = f"fit off the slowest mode: omega {err_w:.2e}, gamma {err_g:.2e}"
    if "fit_start" in flags:
        problems.append(miss)
        return None
    return "default window " + miss


def _map(flags: dict, code: int, out: str, problems: list[str]):
    if code != 0:
        problems.append(f"exit {code}")
        return None
    report = _read_json(os.path.join(out, "map_report.json"))
    scale = 2 * mpmath.pi if flags.get("frequency_unit") == "ordinary" else 1
    pairs = []      # (name, reported, reference)
    with mpmath.workdps(DPS):
        if flags["platform"] == "raman":
            pairs.append(("j_eff", report["j_eff_rad_per_s"],
                          -flags["g"] * flags["big_g"] * scale
                          / (2 * flags["delta"])))
        else:
            hbar = PLANCK / (2 * mpmath.pi)
            phi0 = PLANCK / (2 * E_CHARGE)
            e_c = E_CHARGE**2 / (2 * (flags["c_g"] + 2 * flags["c_j"]) * hbar)
            b_z = 4 * e_c * (2 * flags["n_g"] - 1)
            b_x = 2 * flags["e_j"] * scale * mpmath.cos(
                mpmath.pi * flags["phi_x"] / phi0)
            omega = mpmath.sqrt(b_z**2 + b_x**2)
            v = (E_CHARGE * mpmath.sin(flags["mixing_angle"])
                 * flags["c_g"] / flags["c_sigma"]
                 * mpmath.sqrt(flags["omega_mode"] * scale
                               / (flags["l"] * flags["c_line"] * hbar)))
            levels, coupling = report["level_spacing"], report["coupling"]
            pairs += [("omega", levels["omega_rad_per_s"], omega),
                      ("e_c", levels["e_c_rad_per_s"], e_c),
                      ("v", coupling["v_rad_per_s"], v)]
            in_range = 5e9 <= omega / (2 * mpmath.pi) <= 15e9
            if levels["flag"]["within_paper_range"] != in_range:
                problems.append("level-spacing range flag")
        for name, got, ref in pairs:
            if abs(got - ref) > 1e-12 * abs(ref):
                problems.append(f"{name} {got!r}, reference {float(ref)!r}")
    return None


def _verify(flags: dict, code: int, out: str, problems: list[str]):
    checks = _read_json(os.path.join(out, "verify_report.json"))["checks"]
    failed = [c["name"] for c in checks if not c["passed"]]
    if code != 0 or failed or not checks:
        problems.append(f"exit {code}, failed checks {failed}")
    return None


CHECKS = {"spectrum": _spectrum, "sweep": _sweep, "scatter": _scatter,
          "wavefunction": _wavefunction, "evolve": _evolve, "map": _map,
          "verify": _verify}


def check(sub: str, flags: dict, code: int, out: str) -> tuple[str, str]:
    """Check one command's outputs: (status, detail)."""
    problems: list[str] = []
    try:
        defect = CHECKS[sub](flags, code, out, problems)
    except (OSError, KeyError, ValueError, StopIteration) as exc:
        return WRONG, f"exit {code}; unreadable output: {exc!r}"
    if problems:
        return WRONG, "; ".join(problems[:3])
    return (DEFECT, defect) if defect else (OK, "")
