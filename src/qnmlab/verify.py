"""The checks of `qnmlab verify`, as one table. Each looks up the library
names it uses when it runs, so a patched attribute reaches it."""

import math
import random

import numpy as np

from . import dynamics, qnm
from .model import DimensionlessParams


def _pole_identity(full: bool, *_) -> tuple:
    rng = random.Random(1302)  # fixed: reruns must agree
    d = DimensionlessParams(kappa=200.0, W=5.0)
    thetas = [complex(rng.uniform(-5.0, 20.0), rng.uniform(-1.0, 0.5))
              for _ in range(1000 if full else 200)]
    f_abs = np.abs(qnm.characteristic(np.array(thetas), d)).tolist()
    gaps = [abs(dynamics.pole_check(d, theta) - f) / (1.0 + f)
            for theta, f in zip(thetas, f_abs)]
    i = int(np.argmax(gaps))  # the first NaN, if there is one
    return gaps[i], f"kappa=200 W=5 theta={thetas[i]:.6g}"


def _root_count(*_) -> tuple:
    d = DimensionlessParams(kappa=200.0, W=5.0)
    box = qnm.ContourBox(re_min=0.5, re_max=4.5 * math.pi,
                         im_min=-0.05, im_max=0.001)
    counted = qnm.count_roots_in_box(d, box)
    modes = qnm.find_modes(d, j_min=1, j_max=6)
    re, im = modes.theta.real, modes.theta.imag
    found = int(np.count_nonzero(
        modes.converged & (box.re_min <= re) & (re <= box.re_max)
        & (box.im_min <= im) & (im <= box.im_max)))
    return abs(counted - found), "kappa=200 W=5 Re 0.5..4.5pi Im -0.05..0.001"


def _dde_vs_root(full: bool, records: list) -> tuple:
    gaps, trip = {}, dynamics.ROUND_TRIP
    for kappa, w in [(50.0, 2.0)] + ([(200.0, 5.0)] if full else []):
        d = DimensionlessParams(kappa=kappa, W=w)
        star = qnm.slowest_mode(d).theta
        gamma = abs(star.imag)
        t_max = max(2.0 * dynamics.FIT_START,
                    trip * math.ceil(3.2 / gamma / trip))
        # only the fitted half is summed, at the stride the phase allows
        stream = dynamics.DdeStream(dynamics.DdeConfig(d=d, t_max=t_max),
                                    start=t_max / 2.0, max_stride=math.inf)
        fit, record = dynamics.fit_tail(stream)
        records.append({"kappa": kappa, "w": w, "t_max": t_max, **record,
                        "samples": fit.samples})
        at = f"kappa={kappa:g} W={w:g}"
        gaps[at + " omega"] = abs(fit.omega_fit - star.real) / abs(star.real)
        gaps[at + " gamma"] = abs(fit.gamma_fit - gamma) / gamma
    where = list(gaps)[int(np.argmax(list(gaps.values())))]
    return gaps[where], where


def _bound_state(*_) -> tuple:
    d = DimensionlessParams(kappa=200.0, W=math.pi)
    mode = qnm.refine_root(qnm.seed_mode(1, d), d)
    return (abs(mode.theta.imag) if mode.converged else None,
            "kappa=200 W=pi j=1")


#: verify_report.json's checks: name, tolerance, check(full, dde_records) ->
#: (largest gap between two routes, or None for no answer; where it is).
CHECKS = (("pole_identity", 1e-12, _pole_identity),
          ("root_count_certification", 0, _root_count),
          ("dde_vs_root", 0.01, _dde_vs_root),
          ("bound_state_in_continuum", 1e-12, _bound_state))


def run_checks(full: bool, dde_records: list) -> list[dict]:
    """The report's rows; each DDE run's record goes to dde_records."""
    rows = []
    for name, tolerance, check in CHECKS:
        worst, where = check(full, dde_records)
        worst = worst if math.isfinite(worst or 0.0) else None
        rows.append({"name": name, "worst": worst, "tolerance": tolerance,
                     "passed": worst is not None and worst <= tolerance,
                     "where": where})
    return rows
