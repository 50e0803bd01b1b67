"""Dressed-atom decay with an extra loss channel: closed form vs the
complex-level-spacing root, and cavity suppression of the bare rate."""

import math

import mpmath
import pytest

from qnmlab.emission import (modified_emission_formula,
                             modified_emission_numeric)
from qnmlab.model import DimensionlessParams
from qnmlab.qnm import (MAX_NEWTON_STEPS, ApproximationRangeError,
                        refine_root, seed_mode)

D_BARE = DimensionlessParams(kappa=200.0, W=5.0)


def _d(gamma_ext):
    return DimensionlessParams(kappa=200.0, W=5.0, gamma_ext=gamma_ext)


# --- closed form --------------------------------------------------------

def test_formula_reference_value():
    # (5 - pi)^2/200^2 + 1/200 - 1/200^2, frozen from this expression
    val = modified_emission_formula(_d(1.0), 1)
    assert val == pytest.approx(0.005061341946629786, rel=1e-12)
    assert val == pytest.approx(5.061e-3, rel=1e-3)


def test_formula_reduces_to_seed_linewidth():
    # with no extra channel the closed form is exactly the seed's |Im|
    # (same operation order on purpose)
    assert modified_emission_formula(D_BARE, 1) == -seed_mode(1, D_BARE).imag


def test_formula_needs_strong_coupling():
    with pytest.raises(ApproximationRangeError):
        modified_emission_formula(DimensionlessParams(kappa=1.0, W=5.0), 1)


def test_formula_rejects_low_mode_index():
    with pytest.raises(ValueError):
        modified_emission_formula(D_BARE, 0)


# --- numeric route ------------------------------------------------------

def test_numeric_without_loss_matches_bare_mode():
    report = modified_emission_numeric(D_BARE, 1)
    bare = abs(refine_root(seed_mode(1, D_BARE), D_BARE).theta.imag)
    assert report.gamma_t_numeric == pytest.approx(bare, rel=1e-12)
    assert report.gamma_t_numeric == pytest.approx(8.504536241580799e-5,
                                                   rel=1e-11)
    assert math.isinf(report.suppression_ratio)


def test_numeric_reference_with_loss():
    # frozen from the converged complex-W root at gamma_ext = 0.01
    report = modified_emission_numeric(_d(0.01), 1)
    assert report.gamma_t_numeric == pytest.approx(1.3477735062892513e-4,
                                                   rel=1e-12)
    assert report.gamma_t_formula == pytest.approx(1.3609194662978568e-4,
                                                   rel=1e-12)
    assert report.suppression_ratio == report.gamma_t_numeric / 0.01


def test_formula_tracks_numeric_within_factor_two():
    for g_ext in (1e-4, 1e-3, 1e-2, 0.1):
        report = modified_emission_numeric(_d(g_ext), 1)
        frac = report.gamma_t_formula / report.gamma_t_numeric
        assert 0.5 <= frac <= 2.0


def test_rate_decreases_continuously_to_bare_limit():
    bare = abs(refine_root(seed_mode(1, D_BARE), D_BARE).theta.imag)
    rates = [modified_emission_numeric(_d(g), 1).gamma_t_numeric
             for g in (1e-2, 1e-3, 1e-4)]
    assert rates[0] > rates[1] > rates[2] > bare
    assert rates[1] == pytest.approx(9.001878265607041e-5, rel=1e-12)
    assert rates[2] == pytest.approx(8.554270665416794e-5, rel=1e-12)
    assert rates[2] == pytest.approx(bare, rel=0.01)


def test_cavity_suppresses_extra_loss_channel():
    # near a mode and at strong coupling the dressed rate stays far below
    # the bare gamma_ext, and the closed form stays within its factor-two
    # envelope of the root
    for kappa in (100.0, 400.0):
        for j in (1, 2):
            for detuning in (0.1, -0.5):
                for g_ext in (1e-3, 0.1):
                    d = DimensionlessParams(kappa=kappa,
                                            W=j * math.pi + detuning,
                                            gamma_ext=g_ext)
                    report = modified_emission_numeric(d, j)
                    assert report.gamma_t_numeric < g_ext
                    assert report.suppression_ratio < 1.0
                    frac = report.gamma_t_formula / report.gamma_t_numeric
                    assert 0.5 <= frac <= 2.0


@pytest.mark.parametrize("w", [1e20, 1e150, 1e160])
def test_numeric_refuses_far_detuned_levels(w):
    # Newton reaches the root (the refusal names a proved disc), but the
    # rounding floor of |f| there, about |f'| ulp(theta), is far above the
    # Newton tolerance: the numeric route raises rather than report a rate
    # from a root it did not converge
    d = DimensionlessParams(kappa=200.0, W=w, gamma_ext=1e-3)
    with pytest.raises(RuntimeError, match="did not converge"):
        modified_emission_numeric(d, 1)


@pytest.mark.parametrize("kappa, w", [(3.0, 0.5), (1.5, 2.0)])
def test_numeric_root_is_mode_j_at_weak_coupling(kappa, w):
    # mode j = 3 from its own branch: the 1/kappa seed reached another mode
    # at (3, 0.5) (rate 1.0103) and no root at (1.5, 2); the reference is
    # W_c + i(W_k(kappa e^{kappa + 2iW_c}) - kappa)/2, W_c = W - i gamma_ext,
    # k = round(W/pi) - j, in 40-digit mpmath
    d = DimensionlessParams(kappa=kappa, W=w, gamma_ext=0.01)
    with mpmath.workdps(40):
        w_c = mpmath.mpc(w, -0.01)
        z = kappa * mpmath.exp(kappa + 2j * w_c)
        ref = w_c + 0.5j * (mpmath.lambertw(z, round(w / math.pi) - 3)
                            - kappa)
    report = modified_emission_numeric(d, 3)
    assert report.gamma_t_numeric == pytest.approx(float(-ref.imag),
                                                   rel=1e-12)


def test_refusal_at_the_residual_floor_names_steps_and_disc():
    # at kappa 2000 the rounding floor of |f| near mode 3 (1.6e-12) is
    # above NEWTON_TOL: Newton runs all its steps, yet a disc proves the
    # root, and the row's note, which the message quotes, says both
    d = DimensionlessParams(kappa=2000.0, W=5.0, gamma_ext=0.01)
    with pytest.raises(RuntimeError, match=(
            r"did not converge for j=3, kappa=2000.0, W=5.0, "
            r"gamma_ext=0.01: Newton stopped at \|f\| = 1\.\d+e-12 after "
            rf"{MAX_NEWTON_STEPS} steps from the j=3 seed; a disc of radius "
            r"1\.\d+e-14 holds one root$")):
        modified_emission_numeric(d, 3)
