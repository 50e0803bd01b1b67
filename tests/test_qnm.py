"""Complex-mode solver: characteristic function, seeds, refinement,
contour certification and the decay-vs-level sweep."""

import cmath
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracle_helpers import scalar_newton
from qnmlab import qnm
from qnmlab.model import DimensionlessParams
from qnmlab.qnm import (LOW_ENERGY_NOTE, ApproximationRangeError,
                        CharacteristicParams, ContourBox, ContourError, Modes,
                        characteristic, characteristic_derivative,
                        branch_seed, count_roots_in_box, find_modes,
                        lifetime, lifetime_from_theta, newton_roots,
                        real_grid, refine_root, seed_mode, slowest_mode,
                        sweep_decay)
from qnmlab.scattering import enhancement_scan, qnm_wavefunction
from refs import ROOTS

D200 = DimensionlessParams(kappa=200.0, W=5.0)

#: Each function that takes a grid, called on one.
_GRID_TAKERS = [
    lambda grid: sweep_decay(D200, grid).w,
    lambda grid: enhancement_scan(D200, grid).theta,
    lambda grid: qnm_wavefunction(qnm._row(find_modes(D200, 1, 1), 0), grid),
]
_GRID_IDS = ["sweep_decay", "enhancement_scan", "qnm_wavefunction"]


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
    assert abs(mode.theta.real - 3.15084) < 1e-4
    ref = ROOTS[(200.0, 5.0, 1)]
    assert abs(mode.theta - ref) < 1e-11


def test_refinement_against_all_reference_roots():
    for (kappa, w, j), ref in ROOTS.items():
        d = DimensionlessParams(kappa=kappa, W=w)
        mode = refine_root(seed_mode(j, d), d)
        assert mode.converged and mode.j == j
        assert abs(mode.theta - ref) < 1e-11


def test_bound_state_root_is_exact():
    d = DimensionlessParams(kappa=200.0, W=2 * math.pi)
    mode = refine_root(seed_mode(2, d), d)
    assert mode.converged
    assert mode.theta == complex(2 * math.pi, 0.0)
    assert mode.theta.imag == 0.0
    assert lifetime(mode) == math.inf


def test_non_finite_seed_is_refused():
    with pytest.raises(ValueError, match="theta must be finite"):
        refine_root(complex(math.nan, 0.0), D200)


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
    theta, resid, _, converged, _ = newton_roots(seeds, d)
    for i, seed in enumerate(seeds.tolist()):
        ref, _, _, ref_ok = scalar_newton(seed, kappa, ws[i], tol, 50)
        assert converged[i] == ref_ok
        assert abs(theta[i] - ref) <= 1e-14 * abs(ref)
        if ref_ok:
            assert resid[i] <= tol


def test_non_finite_step_stops_unconverged_at_last_iterate():
    # f' vanishes at theta = pi/2 + i ln(kappa)/2 up to rounding, so the
    # Newton step from there overflows: that element stops at its seed,
    # unconverged, while its neighbour in the same batch converges
    kappa = 200.0
    flat = complex(math.pi / 2, math.log(kappa) / 2)
    assert abs(characteristic_derivative(flat, D200)) < 1e-12
    d = CharacteristicParams(kappa, 5.0)
    theta, _, iterations, converged, _ = newton_roots(
        [flat, seed_mode(1, d)], d)
    assert theta[0] == flat and iterations[0] == 0 and not converged[0]
    assert converged[1] and abs(theta[1] - ROOTS[(200.0, 5.0, 1)]) < 1e-11


def test_seeds_where_f_overflows_raise_no_warning(monkeypatch):
    # at kappa = 1.2 the closed-form seeds of j >= 4, given to find_modes as
    # its branch seeds, lie so far below the real axis that f overflows
    # there; the suite turns any RuntimeWarning into an error, so this fails
    # if the first evaluation escapes np.errstate
    monkeypatch.setattr(qnm, "branch_seed", seed_mode)
    modes = find_modes(DimensionlessParams(kappa=1.2, W=5.0), 1, 12)
    assert modes.converged[:3].all() and not modes.converged[3:].any()


def test_refined_modes_are_passive():
    for j in range(1, 5):
        mode = refine_root(seed_mode(j, D200), D200)
        assert mode.theta.imag <= 1e-12


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


def test_count_roots_refuses_a_contour_where_f_overflows():
    # kappa e^{-2 Im theta} overflows at Im theta = -400: no count, and no
    # numpy warning on the way
    box = ContourBox(re_min=0.5, re_max=4.0, im_min=-400.0, im_max=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContourError,
                           match="f is not finite on the contour"):
            count_roots_in_box(D200, box)


def test_count_roots_gives_up_after_six_inflated_contours(monkeypatch):
    boxes = []

    def zero_on_contour(d, box):
        boxes.append(box)
        return None

    monkeypatch.setattr(qnm, "_winding_or_none", zero_on_contour)
    box = ContourBox(re_min=3.0, re_max=3.3, im_min=-0.05, im_max=0.001)
    with pytest.raises(ContourError, match="could not certify"):
        count_roots_in_box(D200, box)
    expected = [box]
    while len(expected) < 6:
        expected.append(expected[-1].inflated())
    assert boxes == expected


def _mp_root(d, seed):
    with mpmath.workdps(40):
        return complex(mpmath.findroot(
            lambda t: d.kappa * mpmath.sin(t) * mpmath.exp(1j * t) - (d.W - t),
            mpmath.mpc(seed)))


def test_count_roots_separates_a_close_pair():
    # near kappa = W0(1/e) two zeros sit 3e-4 apart, close to the double
    # zero at pi/2 + i ln(kappa)/2 where f' vanishes; both lie in this box,
    # and a fixed sampling of its edges can step over the pair
    d = DimensionlessParams(kappa=0.2784645527610738, W=math.pi / 2)
    box = ContourBox(re_min=math.pi / 2 - 0.49975,
                     re_max=math.pi / 2 + 0.50025, im_min=-1.0,
                     im_max=-0.63922)
    centre = complex(math.pi / 2, math.log(d.kappa) / 2)
    roots = {_mp_root(d, centre + s) for s in (-3e-4, 3e-4)}
    assert len(roots) == 2
    for theta in roots:
        assert box.re_min < theta.real < box.re_max
        assert box.im_min < theta.imag < box.im_max
    assert count_roots_in_box(d, box) == 2


def test_count_roots_double_zero_on_contour_is_inflated_past(monkeypatch):
    # at kappa = W0(1/e) f and f' vanish together at pi/2 + i ln(kappa)/2,
    # so |f| is at rounding level along a stretch of this contour: a zero on
    # it, not segments to halve without end. The inflated box holds both
    kappa = float(mpmath.lambertw(1 / mpmath.e))
    d = DimensionlessParams(kappa=kappa, W=math.pi / 2)
    theta = complex(math.pi / 2, math.log(kappa) / 2)
    box = ContourBox(re_min=theta.real - 0.5, re_max=theta.real + 0.5,
                     im_min=-1.0, im_max=theta.imag)
    evaluated = []

    def counted(z, d):
        evaluated.append(np.size(z))
        assert sum(evaluated) < 10_000, "runaway bisection"
        return characteristic(z, d)

    monkeypatch.setattr(qnm, "characteristic", counted)
    assert count_roots_in_box(d, box) == 2


@settings(derandomize=True, deadline=None)
@given(kappa=st.floats(1.0, 2000.0, exclude_min=True),
       w=st.floats(0.0, 12.0),
       re_min=st.floats(0.0, 60.0), width=st.floats(0.5, 10.0),
       im_min=st.floats(-3.0, -1e-3), im_max=st.floats(1e-3, 1.0),
       split=st.floats(0.05, 0.95))
def test_counts_certify_modes_and_add_up(kappa, w, re_min, width, im_min,
                                         im_max, split):
    # the proved discs agree with the count: each converged row's disc holds
    # exactly one zero and kept discs are disjoint, so at most `whole` of
    # them lie inside the box. Counts are additive: a box split by a
    # vertical line holds the zeros of its two halves
    d = DimensionlessParams(kappa=kappa, W=w)
    modes = find_modes(d, j_min=1, j_max=20)
    cut = re_min + split * width
    whole, left, right = (
        count_roots_in_box(d, ContourBox(lo, hi, im_min, im_max))
        for lo, hi in ((re_min, re_min + width), (re_min, cut),
                       (cut, re_min + width)))
    re, im, r = modes.theta.real, modes.theta.imag, modes.radius
    inside = (modes.converged & (re - r >= re_min) & (re + r <= re_min + width)
              & (im - r >= im_min) & (im + r <= im_max))
    assert np.count_nonzero(inside) <= whole
    assert left + right == whole


def _assert_disc_holds_root(kappa, w, theta, radius):
    # the 40-digit root of f that findroot reaches from theta lies within
    # the proved radius of it
    with mpmath.workdps(40):
        root = mpmath.findroot(
            lambda t: kappa * mpmath.sin(t) * mpmath.exp(1j * t) - (w - t),
            mpmath.mpc(theta))
        assert abs(root - mpmath.mpc(theta)) <= radius, (kappa, w, theta)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(kappa=st.floats(1.0, 1e5, exclude_min=True), w=st.floats(0.0, 12.0),
       ws=st.lists(st.floats(0.0, 12.0), min_size=1, max_size=8))
def test_every_proved_disc_holds_its_root(kappa, w, ws):
    # find_modes rows and sweep points alike: a converged row always has a
    # disc, and every disc, converged row or not, holds a root of f
    d = DimensionlessParams(kappa=kappa, W=w)
    modes = find_modes(d, j_min=1, j_max=20)
    assert np.isfinite(modes.radius[modes.converged]).all()
    for theta, radius in zip(modes.theta.tolist(), modes.radius.tolist()):
        if math.isfinite(radius):
            _assert_disc_holds_root(kappa, w, theta, radius)
    # the sweep's own seeds, through the kernel it calls
    sweep = sweep_decay(d, ws)
    sub = CharacteristicParams(kappa, np.array(ws))
    theta, _, _, _, radius = newton_roots(
        branch_seed(np.round(sub.W / math.pi).astype(int), sub), sub)
    for i, (wi, t, r) in enumerate(zip(ws, theta.tolist(), radius.tolist())):
        if sweep.converged[i] and "bound state" not in sweep.note[i]:
            assert math.isfinite(r)
            assert sweep.im_theta_min[i] == abs(t.imag)
        if math.isfinite(r):
            _assert_disc_holds_root(kappa, wi, t, r)


# --- batch solve --------------------------------------------------------

def test_find_modes_returns_four_distinct_certified_roots():
    modes = find_modes(D200, j_min=1, j_max=4)
    assert modes.j.tolist() == [1, 2, 3, 4]
    assert modes.converged.all()
    res = modes.theta.real.tolist()
    assert res == sorted(res)
    for j, theta in zip(modes.j.tolist(), modes.theta.tolist()):
        # seeds shift the roots off j*pi by (W - j*pi)*(kappa-1)/kappa^2
        assert abs(theta.real - j * math.pi) < 0.05
        assert abs(theta - ROOTS[(200.0, 5.0, j)]) < 1e-11


def test_find_modes_matches_refine_root_per_seed():
    batched = find_modes(D200, j_min=1, j_max=4)
    alone = [refine_root(branch_seed(j, D200), D200) for j in range(1, 5)]
    assert list(zip(*(column.tolist() for column in batched))) == alone


def test_seeds_do_not_depend_on_batching():
    # an array of seeds equals the seeds computed one at a time, bit for
    # bit, so a root does not depend on which batch it was refined in
    for kappa in (1.5, 37.0, 200.0, 1333.0):
        for w in np.linspace(0.0, 12.0, 25).tolist():
            d = DimensionlessParams(kappa=kappa, W=w)
            batch = seed_mode(np.arange(0, 9), d).tolist()
            assert batch == [seed_mode(j, d) for j in range(9)]


def test_branch_seeds_do_not_depend_on_batching():
    # as for seed_mode, and also at a complex level spacing (the emission
    # root), where numpy's scalar complex product would round differently
    for kappa in (1.5, 37.0, 200.0, 1333.0, 1e4):
        for w in np.linspace(0.0, 12.0, 25).tolist():
            for level in (w, complex(w, -0.3)):
                d = CharacteristicParams(kappa, level)
                batch = branch_seed(np.arange(-40, 41), d).tolist()
                assert batch == [branch_seed(j, d) for j in range(-40, 41)]


def test_find_modes_rejects_weak_coupling_and_bad_range():
    with pytest.raises(ApproximationRangeError):
        find_modes(DimensionlessParams(kappa=0.5, W=5.0))
    with pytest.raises(ValueError):
        find_modes(D200, j_min=3, j_max=1)


def test_find_modes_flags_rows_that_share_a_root(monkeypatch):
    # fault injection: the closed-form seeds of j = 4 and 5, given as their
    # branch seeds, fall back onto the j = 2 and j = 1 roots at this weak
    # coupling; every row stays, sorted by Re theta, and both rows of each
    # shared root are flagged; j = 6 does not converge
    monkeypatch.setattr(qnm, "branch_seed", seed_mode)
    d = DimensionlessParams(kappa=3.0716, W=3.5611)
    modes = find_modes(d)
    shared = "its root disc overlaps a neighbour's"
    assert list(zip(modes.j.tolist(), modes.theta.tolist(),
                    modes.iterations.tolist(), modes.converged.tolist(),
                    modes.note)) == [
        (1, complex(3.2439340804618246, -0.007952093547167045), 4, False,
         shared),
        (5, complex(3.2439340804618246, -0.007952093547167046), 44, False,
         shared),
        (2, complex(5.761681368592322, -0.25297091641332387), 6, False,
         shared),
        (4, complex(5.761681368592322, -0.25297091641332387), 25, False,
         shared),
        (3, complex(8.72762215658331, -0.6144016484756893), 12, True, ""),
        (6, complex(14.944189584094206, -1.0034838988085257), 50, False,
         "Newton stopped at |f| = 0.051 after 50 steps from the j=6 seed; "
         "a disc of radius 0.00445 holds one root"),
    ]
    assert np.isfinite(modes.radius).all()


@pytest.mark.parametrize("kappa, w, j_max", [
    # the closed-form seed of j = 5 stopped on the j = 2 root and that of
    # j = 6 diverged; of j = 1..20 here, two fell onto roots found already
    (1.8618254128079412, 7.041582857257689, 6),
    (22.6, 10.52, 20),
], ids=["weak", "moderate"])
def test_find_modes_gives_each_index_its_own_root(kappa, w, j_max):
    d = DimensionlessParams(kappa=kappa, W=w)
    modes = find_modes(d, 1, j_max)
    assert modes.j.tolist() == list(range(1, j_max + 1))
    assert modes.converged.all() and not any(modes.note)
    assert (modes.residual <= 1e-12).all()
    assert (np.round(modes.theta.real / math.pi) == modes.j).all()
    for theta, radius in zip(modes.theta.tolist(), modes.radius.tolist()):
        _assert_disc_holds_root(kappa, w, theta, radius)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(kappa=st.floats(1.0, 1e4, exclude_min=True), w=st.floats(0.0, 12.0),
       j_min=st.integers(-1000, 998))
def test_every_branch_holds_its_lambert_w_root(kappa, w, j_min):
    # mode j is theta = W + i(W_k(kappa e^{kappa + 2iW}) - kappa)/2 with
    # k = round(W/pi) - j, here in 40-digit mpmath: each row carries its
    # branch's index, and each proved disc holds that branch's root
    modes = find_modes(DimensionlessParams(kappa=kappa, W=w), j_min,
                       j_min + 2)
    assert modes.j.tolist() == list(range(j_min, j_min + 3))
    assert (np.round(modes.theta.real / math.pi) == modes.j).all()
    assert np.isfinite(modes.radius[modes.converged]).all()
    with mpmath.workdps(40):
        z = kappa * mpmath.exp(mpmath.mpc(kappa, 2 * w))
        for j, theta, radius in zip(modes.j.tolist(), modes.theta.tolist(),
                                    modes.radius.tolist()):
            w_k = mpmath.lambertw(z, round(w / math.pi) - j)
            ref = w + 0.5j * (w_k - kappa)
            if math.isfinite(radius):
                assert abs(ref - mpmath.mpc(theta)) <= radius, (j, ref)


def test_unconverged_rows_say_where_newton_stopped(monkeypatch):
    # fault injection: at kappa = 1.2 the closed-form seeds of j >= 4, given
    # as branch seeds, lie far below the real axis and never converge; the
    # note names the seed the row started from
    monkeypatch.setattr(qnm, "branch_seed", seed_mode)
    modes = find_modes(DimensionlessParams(kappa=1.2, W=5.0), 1, 12)
    notes = modes.note[~modes.converged].tolist()
    assert len(notes) == 9
    assert all(notes)
    assert [note.rsplit(" from the ", 1)[1] for note in notes] == [
        f"j={j} seed" for j in range(4, 13)]
    for note, resid, steps in zip(notes, modes.residual[~modes.converged],
                                  modes.iterations[~modes.converged]):
        assert note.startswith(f"Newton stopped at |f| = {resid:.3g} after "
                               f"{steps} steps")


def test_newton_stops_after_max_steps(monkeypatch):
    # tol below double precision: every step stays finite, none converges
    monkeypatch.setattr(qnm, "NEWTON_TOL", 1e-30)
    _, _, iterations, converged, _ = newton_roots(seed_mode(1, D200), D200)
    assert not converged[0]
    assert iterations[0] == qnm.MAX_NEWTON_STEPS
    mode = refine_root(seed_mode(1, D200), D200)
    assert f"after {qnm.MAX_NEWTON_STEPS} steps" in mode.note


@pytest.mark.parametrize("error", [
    # a rounding bound E >= |f'| gives r >= 2 and E r > |f| + E: the disc's
    # circle never proves a count of exactly one zero
    lambda d, grow, z: grow + 1.0,
    # a bound that is not finite on the circle, as where f overflows
    lambda d, grow, z: grow * math.nan,
], ids=["wrong-count", "contour-error"])
def test_failed_certification_demotes_mode(monkeypatch, error):
    # fault injection into the disc proof: no row is proved, so rows whose
    # |f| meets tol come back unconverged, and say why
    monkeypatch.setattr(qnm, "_rounding_error", error)
    modes = find_modes(D200, j_min=0, j_max=2)
    assert (modes.residual <= 1e-12).all()
    assert np.isnan(modes.radius).all()
    assert list(zip(modes.j.tolist(), modes.converged.tolist(),
                    modes.note)) == [
        (j, False, prefix + f"no root disc was proved at |f| = {r:.3g} after "
         f"{n} steps from the j={j} seed")
        for j, prefix, r, n in zip([0, 1, 2], [LOW_ENERGY_NOTE + "; ", "", ""],
                                   modes.residual.tolist(),
                                   modes.iterations.tolist())]


def test_find_modes_contains_exact_real_root_at_level_pi():
    d = DimensionlessParams(kappa=200.0, W=math.pi)
    modes = find_modes(d, j_min=1, j_max=1)
    assert modes.theta.size == 1
    assert abs(modes.theta[0].real - math.pi) <= 1e-12
    assert abs(modes.theta[0].imag) <= 1e-14


# --- sweep and slowest mode ---------------------------------------------

def test_sweep_records_exact_zero_at_pi():
    rows = sweep_decay(D200, [math.pi])
    assert rows.im_theta_min[0] == 0.0
    assert rows.j_used[0] == 1
    assert rows.converged[0]
    assert "bound state" in rows.note[0]


def test_sweep_reads_no_bound_state_where_float64_cannot_resolve_it():
    # above W = 2**23 a spacing of float64 exceeds 1e-9 and j*pi rounds onto
    # W; such a W is solved like any other, not read as an exact zero
    huge = sweep_decay(D200, [3e15, 1e16, 1e17, 1.4e19])
    assert not huge.converged.any()
    assert not [note for note in huge.note if "bound state" in note]
    exact = sweep_decay(D200, [math.pi, math.pi * 2 ** 21])
    assert exact.converged.all() and (exact.im_theta_min == 0).all()
    assert all("bound state" in note for note in exact.note)


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


def test_sweep_gap_note_names_its_seed(monkeypatch):
    # tol below double precision: the point is a gap after the full budget
    monkeypatch.setattr(qnm, "NEWTON_TOL", 1e-30)
    rows = sweep_decay(D200, [5.0])
    assert not rows.converged[0]
    assert rows.note[0].startswith("Newton stopped at |f| = ")
    assert rows.note[0].endswith(" after 50 steps from the j=2 seed; a disc "
                                 "of radius 1.51e-14 holds one root")


def test_sweep_gap_note_text_after_the_low_energy_note(monkeypatch):
    monkeypatch.setattr(qnm, "NEWTON_TOL", 1e-30)
    rows = sweep_decay(D200, [0.4])
    assert rows.note.tolist() == [
        LOW_ENERGY_NOTE + "; Newton stopped at |f| = 5.55e-17 after 50 "
        "steps from the j=0 seed; a disc of radius 1.42e-14 holds one root"]


def test_sweep_gap_records_no_decay_rate(monkeypatch):
    # nan marks a gap: Newton's last iterate is not a decay rate
    monkeypatch.setattr(qnm, "NEWTON_TOL", 1e-30)
    rows = sweep_decay(D200, [5.0])
    assert not rows.converged[0]
    assert np.isnan(rows.im_theta_min[0])


def test_sweep_above_the_largest_usable_w_is_an_invalid_gap():
    # round(W/pi) of the last two points does not fit int64; they are gaps
    # like a negative W, with no numpy warning (the suite makes those errors).
    # MAX_W itself is solved, and does not converge: j*pi rounds onto it, so
    # it is no bound state
    ws = [qnm.MAX_W, math.nextafter(qnm.MAX_W, math.inf), 1e200, -1.0]
    rows = sweep_decay(D200, ws)
    assert rows.j_used.tolist() == [2 ** 62, 0, 0, 0]
    assert rows.converged.tolist() == [False, False, False, False]
    assert np.isnan(rows.im_theta_min[1:]).all()
    huge = f"invalid W: above the largest usable W = {qnm.MAX_W:.17g}"
    assert rows.note.tolist()[1:] == [huge, huge, "invalid W"]


@pytest.mark.parametrize("search", [
    lambda d: refine_root(seed_mode(1, d), d),
    lambda d: find_modes(d),
    slowest_mode,
], ids=["refine_root", "find_modes", "slowest_mode"])
def test_w_above_the_largest_usable_w_is_refused(search):
    # one refusal, in one text, for every search: slowest_mode's is
    # find_modes'
    for w in (math.nextafter(qnm.MAX_W, math.inf), 1e200,
              sys.float_info.max):
        d = DimensionlessParams(kappa=200.0, W=w)
        with pytest.raises(ApproximationRangeError,
                           match="the largest usable W") as info:
            search(d)
        assert str(info.value) == (
            f"W must be at most {qnm.MAX_W:.17g}, the largest usable W (its "
            f"mode index round(W/pi) must fit int64), got {w:.17g}")


def test_largest_usable_w_is_pi_times_the_largest_usable_index():
    assert qnm.MAX_W == math.pi * 2.0 ** 62
    assert round(qnm.MAX_W / math.pi) == qnm.MAX_J == 2 ** 62


@pytest.mark.parametrize("search", [
    lambda d: seed_mode(1, d),
    find_modes,
    lambda d: sweep_decay(d, [5.0]),
], ids=["seed_mode", "find_modes", "sweep_decay"])
def test_kappa_whose_square_overflows_is_refused(search):
    d = DimensionlessParams(kappa=1e200, W=5.0)
    with pytest.raises(ApproximationRangeError,
                       match="the largest usable kappa") as info:
        search(d)
    assert f"at most {qnm.MAX_KAPPA:.17g}," in str(info.value)


def test_largest_usable_kappa_is_the_last_with_a_finite_square():
    assert math.isfinite(qnm.MAX_KAPPA ** 2)
    with pytest.raises(OverflowError):
        math.nextafter(qnm.MAX_KAPPA, math.inf) ** 2
    seed = seed_mode(1, DimensionlessParams(kappa=qnm.MAX_KAPPA, W=5.0))
    assert cmath.isfinite(seed)


def test_mode_index_beyond_the_largest_usable_index_is_refused():
    assert cmath.isfinite(seed_mode(2 ** 62, D200))
    assert cmath.isfinite(seed_mode(-2 ** 62, D200))
    for j in (2 ** 62 + 1, -2 ** 62 - 1, 10 ** 20,
              np.array([1, 2 ** 62 + 1]), np.array([-2 ** 63])):
        with pytest.raises(ApproximationRangeError,
                           match=r"mode indices must lie within \+/-"
                                 r"4611686018427387904"):
            seed_mode(j, D200)
    # an index range past the largest usable index is refused before
    # np.arange: past int64, it would cast the range to float; just past
    # MAX_J, it would ask for 2**62 rows; the message names the index exactly
    for j_min, j_max in ((10 ** 20 - 1, 10 ** 20), (1, 2 ** 63 + 5),
                         (1, 2 ** 62 + 1)):
        outside = j_min if j_min > 2 ** 62 else j_max
        with pytest.raises(ApproximationRangeError,
                           match=f"4611686018427387904 .*got j = {outside}$"):
            find_modes(D200, j_min=j_min, j_max=j_max)
    # a usable but wide range is refused before np.arange: one call's
    # columns and Newton temporaries grow with its width
    for j_min, j_max in ((1, qnm.MAX_J_WIDTH + 1), (1, 10 ** 8),
                         (-2 ** 62, 2 ** 62)):
        with pytest.raises(ValueError, match=f"holds more than "
                                             f"{qnm.MAX_J_WIDTH} indices"):
            find_modes(D200, j_min=j_min, j_max=j_max)


def test_sweep_rejects_weak_coupling():
    # no seed exists for kappa <= 1, as for find_modes
    with pytest.raises(ApproximationRangeError):
        sweep_decay(DimensionlessParams(kappa=0.5, W=1.0), [1.0, math.pi])


def test_slowest_mode_without_a_converged_neighbour_is_refused(monkeypatch):
    # fault injection: no Newton step from seeds off both roots
    monkeypatch.setattr(qnm, "branch_seed", seed_mode)
    monkeypatch.setattr(qnm, "MAX_NEWTON_STEPS", 0)
    with pytest.raises(ApproximationRangeError, match="no converged mode"):
        slowest_mode(D200)


def test_slowest_mode_picks_the_nearest_branch():
    mode = slowest_mode(D200)
    assert mode.j == 2
    assert abs(mode.theta - ROOTS[(200.0, 5.0, 2)]) < 1e-11

    mode2 = slowest_mode(DimensionlessParams(kappa=50.0, W=2.0))
    assert mode2.j == 1
    assert abs(mode2.theta - ROOTS[(50.0, 2.0, 1)]) < 1e-11


@settings(derandomize=True, max_examples=300, deadline=None)
@given(log_kappa=st.floats(0.0, 4.0, exclude_min=True),
       w=st.floats(0.0, 12.0))
def test_slowest_mode_is_the_sweeps_nearest_branch(log_kappa, w):
    # kappa log-uniform in (1, 1e4]: slowest_mode solves sweep_decay's one
    # index j = round(W/pi), so it refuses exactly at the sweep's gaps and
    # elsewhere returns the sweep's rate bit for bit. W within 1e-9 of j*pi
    # is skipped: the sweep records those bound states without solving
    kappa = 10.0 ** log_kappa
    assume(kappa > 1.0 and abs(w - round(w / math.pi) * math.pi) >= 1e-9)
    d = DimensionlessParams(kappa=kappa, W=w)
    sweep = sweep_decay(d, [w])
    if not sweep.converged[0]:
        with pytest.raises(ApproximationRangeError, match="no converged mode"):
            slowest_mode(d)
        return
    mode = slowest_mode(d)
    assert mode.j == round(w / math.pi) == sweep.j_used[0]
    assert abs(mode.theta.imag) == sweep.im_theta_min[0]


def test_slowest_mode_refuses_at_the_nearest_roots_residual_floor():
    # ROADMAP item 9: the j = 3 root next to W has a proved disc, but its
    # |f| stays above NEWTON_TOL. The j = 2 neighbour converges with a rate
    # 3.6e5 times as large, which is not the slowest mode's rate
    d = DimensionlessParams(kappa=1200.0, W=9.419548872180451)
    nearest = find_modes(d, 3, 3)
    assert not nearest.converged[0] and nearest.radius[0] < 1e-13
    assert find_modes(d, 2, 2).converged[0]
    with pytest.raises(ApproximationRangeError) as info:
        slowest_mode(d)
    assert str(info.value) == (
        "no converged mode near W = 9.419548872180451 for kappa = 1200.0: "
        "Newton stopped at |f| = 1.04e-12 after 50 steps from the j=3 seed; "
        "a disc of radius 1.61e-14 holds one root")


# --- lifetimes ----------------------------------------------------------

def test_lifetime_reciprocal_of_linewidth():
    tau = lifetime_from_theta(complex(3.15, -8.633e-5))
    assert tau == pytest.approx(1.1583e4, rel=1e-3)


def test_lifetime_unbounded_below_cutoff():
    assert lifetime_from_theta(complex(math.pi, 0.0)) == math.inf
    assert lifetime_from_theta(complex(math.pi, -1e-15)) == math.inf


def test_refined_decaying_mode_sign_convention():
    # theta = omega - i gamma: a decaying mode has Im(theta) < 0, and its
    # lifetime is 1 / gamma = 1 / -Im(theta)
    mode = refine_root(seed_mode(1, D200), D200)
    assert mode.converged and mode.theta.imag < 0.0
    assert lifetime(mode) == 1.0 / -mode.theta.imag


def test_lifetime_rejects_unconverged_mode():
    bad = Modes(j=1, theta=complex(3.15, -1e-4), residual=1.0,
                iterations=50, converged=False, note="")
    with pytest.raises(ValueError):
        lifetime(bad)


def test_lifetime_scales_with_coupling_squared_at_seed_level():
    # seed linewidth is (W - j*pi)^2 / kappa^2: doubling kappa quadruples
    # the seed-level lifetime exactly
    s100 = seed_mode(1, DimensionlessParams(kappa=100.0, W=5.0))
    s200 = seed_mode(1, DimensionlessParams(kappa=200.0, W=5.0))
    assert s100.imag / s200.imag == pytest.approx(4.0, rel=1e-12)


@pytest.mark.parametrize("take", _GRID_TAKERS, ids=_GRID_IDS)
@pytest.mark.parametrize("grid", [
    [2.5, 6], (2.5, 6.0), np.array([2.5, 6.0]),
    np.array([2.5, 0.0, 6.0])[::2], np.array([2.5, 6.0], dtype=">f8"),
    np.array([2, 6])],
    ids=["list", "tuple", "array", "strided", "big-endian", "int-array"])
def test_grids_in_as_lists_tuples_and_real_arrays(take, grid):
    assert real_grid(grid).dtype == np.float64
    # a new array, so that changing the caller's grid leaves it alone
    assert not np.shares_memory(take(grid), grid)
    assert len(take(grid)) == 2
    assert take(grid).tolist() == take([float(x) for x in grid]).tolist()


@pytest.mark.parametrize("take", _GRID_TAKERS, ids=_GRID_IDS)
@pytest.mark.parametrize("grid", [
    # np.asarray([5.0, None], dtype=float) would read the None as nan
    [5.0, None], [5.0 + 1j], np.array([5.0 + 0j]), np.ones((2, 2)), 5.0],
    ids=["none", "complex", "complex-array", "2-d", "scalar"])
def test_grids_refuse_complex_none_and_not_1d(take, grid):
    with pytest.raises(TypeError, match="a grid must be 1-D and real"):
        take(grid)
