"""Complex-mode solver: characteristic function, seeds, refinement,
contour certification and the decay-vs-level sweep."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_helpers import scalar_newton
from qnmlab.model import ComplexFrequency, DimensionlessParams
from qnmlab.qnm import (ApproximationRangeError, CharacteristicParams,
                        ContourBox, QnmMode, characteristic,
                        characteristic_derivative, count_roots_in_box,
                        find_modes, lifetime, lifetime_from_theta,
                        newton_roots, refine_root, seed_mode, slowest_mode,
                        sweep_decay)
from refs import ROOTS

D200 = DimensionlessParams(kappa=200.0, W=5.0)


# --- characteristic function -------------------------------------------

def test_characteristic_vanishes_at_pi_when_level_is_pi():
    d = DimensionlessParams(kappa=7.0, W=math.pi)
    # sin(pi) and W - theta vanish together; float64 leaves only
    # kappa * sin(fl(pi)) ~ 1e-15
    assert abs(characteristic(math.pi, d)) < 1e-13


def test_characteristic_decoupled_atom_pole():
    d = DimensionlessParams(kappa=0.0, W=5.0)
    assert characteristic(5.0, d) == 0.0


def test_characteristic_near_reference_root():
    # residual at the four-digit rounded root; exact value frozen from
    # this same expression evaluated once and pinned for regression
    val = abs(characteristic(complex(3.15084, -8.6e-5), D200))
    assert val < 0.05
    assert val == pytest.approx(5.528982887373373e-4, rel=1e-9)


def test_characteristic_derivative_matches_finite_difference():
    h = 1e-6
    for theta in (0.7 + 0.0j, 3.2 - 1e-4j, 9.5 - 0.01j, 1.0 - 0.2j):
        exact = characteristic_derivative(theta, D200)
        fd = (characteristic(theta + h, D200)
              - characteristic(theta - h, D200)) / (2 * h)
        assert abs(exact - fd) <= 1e-6 * abs(exact)


# --- analytic seed ------------------------------------------------------

def test_seed_position_and_linewidth():
    s = seed_mode(1, D200)
    assert abs(s.real - 3.15084) < 1e-5
    # -(5 - pi)^2 / 200^2
    assert s.imag == pytest.approx(-8.634194662978567e-5, rel=1e-12)


def test_seed_is_exact_at_integer_multiples_of_pi():
    d = DimensionlessParams(kappa=200.0, W=2 * math.pi)
    assert seed_mode(2, d) == complex(2 * math.pi, 0.0)


def test_seed_rejects_weak_coupling():
    for kappa in (0.0, 0.5, 1.0):
        with pytest.raises(ApproximationRangeError):
            seed_mode(1, DimensionlessParams(kappa=kappa, W=5.0))


# --- Newton refinement --------------------------------------------------

def test_refined_root_matches_external_reference():
    mode = refine_root(seed_mode(1, D200), D200)
    assert mode.converged
    assert mode.j == 1
    assert mode.residual <= 1e-12
    assert mode.iterations <= 25
    assert abs(mode.theta.theta.real - 3.15084) < 1e-4
    ref = ROOTS[(200.0, 5.0, 1)]
    assert abs(mode.theta.theta - ref) < 1e-11


def test_refinement_against_all_reference_roots():
    for (kappa, w, j), ref in ROOTS.items():
        d = DimensionlessParams(kappa=kappa, W=w)
        mode = refine_root(seed_mode(j, d), d)
        assert mode.converged and mode.j == j
        assert abs(mode.theta.theta - ref) < 1e-11


def test_bound_state_root_is_exact():
    d = DimensionlessParams(kappa=200.0, W=2 * math.pi)
    mode = refine_root(seed_mode(2, d), d)
    assert mode.converged
    assert mode.theta.theta == complex(2 * math.pi, 0.0)
    assert mode.theta.theta.imag == 0.0
    assert mode.lifetime == math.inf


@settings(derandomize=True, max_examples=200, deadline=None)
@given(kappa=st.floats(1.0, 500.0, exclude_min=True),
       ws=st.lists(st.floats(0.0, 12.0), min_size=1, max_size=16))
def test_batched_kernel_matches_scalar_reference(kappa, ws):
    # one kernel call over several level spacings against the scalar
    # iteration seed by seed; numpy's complex arithmetic rounds differently
    # from Python's, so roots agree to a few ulps, not bit for bit
    tol = 1e-12
    w = np.array(ws)
    d = CharacteristicParams(kappa, w)
    seeds = seed_mode(np.round(w / math.pi).astype(int), d)
    theta, resid, _, converged = newton_roots(seeds, d, tol)
    for i, seed in enumerate(seeds.tolist()):
        ref, _, _, ref_ok = scalar_newton(seed, kappa, ws[i], tol, 50)
        assert converged[i] == ref_ok
        assert abs(theta[i] - ref) <= 1e-14 * abs(ref)
        if ref_ok:
            assert resid[i] <= tol


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_tolerance_must_be_finite_and_positive(tol):
    with pytest.raises(ValueError, match="tol"):
        refine_root(seed_mode(1, D200), D200, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        find_modes(D200, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        sweep_decay(D200, [-1.0, math.pi, 5.0], tol=tol)


def test_non_finite_step_stops_unconverged_at_last_iterate():
    # f' vanishes at theta = pi/2 + i ln(kappa)/2 up to rounding, so the
    # Newton step from there overflows: that element stops at its seed,
    # unconverged, while its neighbour in the same batch converges
    kappa = 200.0
    flat = complex(math.pi / 2, math.log(kappa) / 2)
    assert abs(characteristic_derivative(flat, D200)) < 1e-12
    d = CharacteristicParams(kappa, 5.0)
    theta, _, iterations, converged = newton_roots([flat, seed_mode(1, d)], d)
    assert theta[0] == flat and iterations[0] == 0 and not converged[0]
    assert converged[1] and abs(theta[1] - ROOTS[(200.0, 5.0, 1)]) < 1e-11


def test_refined_modes_are_passive():
    for j in range(1, 5):
        mode = refine_root(seed_mode(j, D200), D200)
        assert mode.theta.theta.imag <= 1e-12


def test_characteristic_forms_agree_where_both_defined():
    # the tan-based form R = tan(theta)*(kappa/(W-theta) + i) - 1 differs
    # from the entire form by a nonvanishing factor, away from cos(theta)=0
    # and theta=W; zero sets must coincide
    rng = np.random.default_rng(7)
    kappa, w = 200.0, 5.0
    d = DimensionlessParams(kappa=kappa, W=w)
    samples = []
    while len(samples) < 100:
        theta = complex(rng.uniform(0.0, 4 * math.pi), rng.uniform(-0.2, 0.0))
        if abs(cmath.cos(theta)) < 0.1 or abs(w - theta) < 0.1:
            continue
        samples.append(theta)
    samples += [ROOTS[(200.0, 5.0, j)] for j in range(1, 5)]
    for theta in samples:
        coef = kappa / (w - theta) + 1j
        tan_form = cmath.tan(theta) * coef - 1.0
        f = characteristic(theta, d)
        assert (abs(f) <= 1e-9) == (abs(tan_form) <= 1e-6 * abs(coef))


# --- contour counting ---------------------------------------------------

def test_count_roots_linear_function():
    d = DimensionlessParams(kappa=0.0, W=5.0)
    empty = ContourBox(re_min=0.4, re_max=0.6, im_min=-0.05, im_max=0.05)
    hit = ContourBox(re_min=4.9, re_max=5.1, im_min=-0.05, im_max=0.05)
    assert count_roots_in_box(d, empty) == 0
    assert count_roots_in_box(d, hit) == 1


def test_count_roots_brackets_first_mode():
    box = ContourBox(re_min=0.9 * math.pi, re_max=1.1 * math.pi,
                     im_min=-0.01, im_max=0.005)
    assert count_roots_in_box(D200, box) == 1


def test_count_roots_inflates_past_root_on_corner():
    # the root of theta - 5 sits exactly on a corner; the counter must
    # inflate the rectangle rather than return garbage
    d = DimensionlessParams(kappa=0.0, W=5.0)
    box = ContourBox(re_min=4.5, re_max=5.0, im_min=-0.05, im_max=0.0)
    assert count_roots_in_box(d, box) == 1


def test_count_roots_input_validation():
    with pytest.raises(ValueError):
        ContourBox(re_min=1.0, re_max=0.5, im_min=0.0, im_max=1.0)
    box = ContourBox(re_min=0.0, re_max=1.0, im_min=-1.0, im_max=0.0)
    with pytest.raises(ValueError):
        count_roots_in_box(D200, box, samples_per_edge=4)


# --- batch solve --------------------------------------------------------

def test_find_modes_returns_four_distinct_certified_roots():
    modes = find_modes(D200, j_min=1, j_max=4)
    assert [m.j for m in modes] == [1, 2, 3, 4]
    assert all(m.converged for m in modes)
    res = [m.theta.theta.real for m in modes]
    assert res == sorted(res)
    for m in modes:
        # seeds shift the roots off j*pi by (W - j*pi)*(kappa-1)/kappa^2
        assert abs(m.theta.theta.real - m.j * math.pi) < 0.05
        assert abs(m.theta.theta - ROOTS[(200.0, 5.0, m.j)]) < 1e-11


def test_find_modes_matches_refine_root_per_seed():
    batched = find_modes(D200, j_min=1, j_max=4)
    alone = [refine_root(seed_mode(j, D200), D200) for j in range(1, 5)]
    assert batched == alone


def test_seeds_do_not_depend_on_batching():
    # an array of seeds equals the seeds computed one at a time, bit for
    # bit, so a root does not depend on which batch it was refined in
    for kappa in (1.5, 37.0, 200.0, 1333.0):
        for w in np.linspace(0.0, 12.0, 25).tolist():
            d = DimensionlessParams(kappa=kappa, W=w)
            batch = seed_mode(np.arange(0, 9), d).tolist()
            assert batch == [seed_mode(j, d) for j in range(9)]


def test_find_modes_rejects_weak_coupling_and_bad_range():
    with pytest.raises(ApproximationRangeError):
        find_modes(DimensionlessParams(kappa=0.5, W=5.0))
    with pytest.raises(ValueError):
        find_modes(D200, j_min=3, j_max=1)


def test_find_modes_contains_exact_real_root_at_level_pi():
    d = DimensionlessParams(kappa=200.0, W=math.pi)
    modes = find_modes(d, j_min=1, j_max=1)
    assert len(modes) == 1
    assert abs(modes[0].theta.theta.real - math.pi) <= 1e-12
    assert abs(modes[0].theta.theta.imag) <= 1e-14


# --- sweep and slowest mode ---------------------------------------------

def test_sweep_records_exact_zero_at_pi():
    rows = sweep_decay(D200, [math.pi])
    assert rows.im_theta_min[0] == 0.0
    assert rows.j_used[0] == 1
    assert rows.converged[0]
    assert "bound state" in rows.note[0]


def test_sweep_low_energy_points_are_flagged():
    rows = sweep_decay(D200, [0.4])
    assert rows.j_used[0] == 0
    assert "low-energy" in rows.note[0]


def test_sweep_decay_grows_quadratically_off_the_minimum():
    ws = np.linspace(math.pi, math.pi + 0.5, 11)
    rows = sweep_decay(D200, ws)
    vals = rows.im_theta_min
    assert vals[0] == 0.0
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_sweep_row_at_level_five_uses_nearest_mode():
    # round(5/pi) = 2: the nearest multiple of pi is above the level and
    # that mode decays slowest (4.05e-5, not the 8.5e-5 of the mode below)
    rows = sweep_decay(D200, [5.0])
    assert rows.j_used[0] == 2
    assert rows.im_theta_min[0] == pytest.approx(4.0549524617653316e-5,
                                                 rel=1e-6)


def test_sweep_rejects_weak_coupling():
    # no seed exists for kappa <= 1, as for find_modes
    with pytest.raises(ApproximationRangeError):
        sweep_decay(DimensionlessParams(kappa=0.5, W=1.0), [1.0, math.pi])


def test_slowest_mode_picks_the_smaller_linewidth_neighbour():
    mode = slowest_mode(D200)
    assert mode.j == 2
    assert abs(mode.theta.theta - ROOTS[(200.0, 5.0, 2)]) < 1e-11

    mode2 = slowest_mode(DimensionlessParams(kappa=50.0, W=2.0))
    assert mode2.j == 1
    assert abs(mode2.theta.theta - ROOTS[(50.0, 2.0, 1)]) < 1e-11


# --- lifetimes ----------------------------------------------------------

def test_lifetime_reciprocal_of_linewidth():
    tau = lifetime_from_theta(complex(3.15, -8.633e-5))
    assert tau == pytest.approx(1.1583e4, rel=1e-3)


def test_lifetime_unbounded_below_cutoff():
    assert lifetime_from_theta(complex(math.pi, 0.0)) == math.inf
    assert lifetime_from_theta(complex(math.pi, -1e-15)) == math.inf


def test_lifetime_rejects_unconverged_mode():
    bad = QnmMode(j=1, theta=ComplexFrequency(complex(3.15, -1e-4)),
                  residual=1.0, iterations=50, converged=False,
                  lifetime=1e4)
    with pytest.raises(ValueError):
        lifetime(bad)


def test_lifetime_scales_with_coupling_squared_at_seed_level():
    # seed linewidth is (W - j*pi)^2 / kappa^2: doubling kappa quadruples
    # the seed-level lifetime exactly
    s100 = seed_mode(1, DimensionlessParams(kappa=100.0, W=5.0))
    s200 = seed_mode(1, DimensionlessParams(kappa=200.0, W=5.0))
    assert s100.imag / s200.imag == pytest.approx(4.0, rel=1e-12)
