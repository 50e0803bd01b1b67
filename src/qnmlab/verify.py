"""The cross-module consistency checks of `qnmlab verify`. Each looks up
the library names it uses when it runs, so a patched attribute reaches it.
"""

import math

#: Seed for the randomized pole-identity check (fixed: reruns must agree).
_SEED = 1302


def _check_pole_identity(n_points: int) -> tuple[bool, str]:
    import random
    import numpy as np
    from .dynamics import pole_check
    from .model import DimensionlessParams
    from .qnm import characteristic

    rng = random.Random(_SEED)
    d = DimensionlessParams(kappa=200.0, W=5.0)
    thetas = [complex(rng.uniform(-5.0, 20.0), rng.uniform(-1.0, 0.5))
              for _ in range(n_points)]
    f_abs = np.abs(characteristic(np.array(thetas), d)).tolist()
    worst = max(abs(pole_check(d, theta) - f) / (1.0 + f)
                for theta, f in zip(thetas, f_abs))
    return worst <= 1e-12, (f"max normalized gap {worst:.3e} over "
                            f"{n_points} points")


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
    from .dynamics import DdeConfig, DdeStream, fit_tail
    from .model import DimensionlessParams
    from .qnm import slowest_mode

    configs = [(50.0, 2.0)] + ([(200.0, 5.0)] if full else [])
    details, ok = [], True
    for kappa, w in configs:
        d = DimensionlessParams(kappa=kappa, W=w)
        star = slowest_mode(d).theta
        gamma = abs(star.imag)
        t_max = max(40.0, 2.0 * math.ceil(3.2 / gamma / 2.0))
        fit, record = fit_tail(DdeStream(DdeConfig(d=d, t_max=t_max)),
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


def run_checks(full: bool, dde_records: list) -> list[dict]:
    """verify_report.json's checks: name, passed and detail of each. Each
    DDE run's record is appended to dde_records."""
    checks = (
        ("pole_identity", _check_pole_identity(1000 if full else 200)),
        ("root_count_certification", _check_root_count()),
        ("dde_vs_root", _check_dde_agreement(full, dde_records)),
        ("bound_state_in_continuum", _check_bound_state()))
    return [{"name": name, "passed": passed, "detail": detail}
            for name, (passed, detail) in checks]
