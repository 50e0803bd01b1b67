"""Complex-mode solver: characteristic function, seeds, refinement,
contour certification and the decay-vs-level sweep."""

import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_helpers import scalar_newton
from qnmlab import qnm
from qnmlab.model import DimensionlessParams
from qnmlab.qnm import (LOW_ENERGY_NOTE, ApproximationRangeError,
                        CharacteristicParams, ContourBox, ContourError, Modes,
                        characteristic, characteristic_derivative,
                        count_roots_in_box, find_modes, lifetime,
                        lifetime_from_theta, newton_roots, refine_root,
                        seed_mode, slowest_mode, sweep_decay)
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
    theta, resid, _, converged, _ = newton_roots(seeds, d, tol)
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
    theta, _, iterations, converged, _ = newton_roots(
        [flat, seed_mode(1, d)], d)
    assert theta[0] == flat and iterations[0] == 0 and not converged[0]
    assert converged[1] and abs(theta[1] - ROOTS[(200.0, 5.0, 1)]) < 1e-11


def test_seeds_where_f_overflows_raise_no_warning():
    # at kappa = 1.2 the seeds of j >= 4 lie so far below the real axis
    # that f overflows there; the suite turns any RuntimeWarning into an
    # error, so this fails if the first evaluation escapes np.errstate
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
        seed_mode(np.round(sub.W / math.pi).astype(int), sub), sub)
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
    alone = [refine_root(seed_mode(j, D200), D200) for j in range(1, 5)]
    assert list(zip(*(column.tolist() for column in batched))) == alone


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


def test_find_modes_drops_duplicate_roots():
    # at this weak coupling the j = 4 and j = 5 seeds fall back onto the
    # j = 2 and j = 1 roots; the stable sort on Re theta keeps the root
    # from the lower seed (fewer iterations), and j = 6 does not converge
    d = DimensionlessParams(kappa=3.0716, W=3.5611)
    modes = find_modes(d)
    assert list(zip(modes.j.tolist(), modes.theta.tolist(),
                    modes.iterations.tolist(), modes.converged.tolist(),
                    modes.note)) == [
        (1, complex(3.2439340804618246, -0.007952093547167045), 4, True, ""),
        (2, complex(5.761681368592322, -0.25297091641332387), 6, True, ""),
        (3, complex(8.72762215658331, -0.6144016484756893), 12, True, ""),
        (5, complex(14.944189584094206, -1.0034838988085257), 50, False,
         "Newton stopped at |f| = 0.051 after 50 steps from the j=6 seed"),
    ]


def test_find_modes_keeps_the_converged_copy_of_a_root():
    # the j = 5 seed stops at |f| = 1.4e-11 on the j = 2 root, 4e-12 from
    # the j = 2 seed's converged copy: their discs overlap, and the converged
    # copy is the row kept, though the other has the lower Re theta
    d = DimensionlessParams(kappa=1.8618254128079412, W=7.041582857257689)
    modes = find_modes(d)
    assert modes.j.tolist() == [1, 2, 3, 4, 5]
    assert modes.converged.tolist() == [True, True, True, True, False]
    assert modes.residual[1] <= 1e-12


def test_unconverged_rows_say_where_newton_stopped():
    # at kappa = 1.2 the seeds of j >= 4 lie far below the real axis and
    # never converge; each row's j is where Newton stopped, so the note
    # names the seed the row started from
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


def test_newton_stops_after_max_steps():
    # tol below double precision: every step stays finite, none converges
    _, _, iterations, converged, _ = newton_roots(seed_mode(1, D200), D200,
                                                  tol=1e-30)
    assert not converged[0]
    assert iterations[0] == qnm.MAX_NEWTON_STEPS
    mode = refine_root(seed_mode(1, D200), D200, tol=1e-30)
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


def test_sweep_gap_note_names_its_seed():
    # tol below double precision: the point is a gap after the full budget
    rows = sweep_decay(D200, [5.0], tol=1e-30)
    assert not rows.converged[0]
    assert rows.note[0].startswith("Newton stopped at |f| = ")
    assert rows.note[0].endswith(" after 50 steps from the j=2 seed")


def test_sweep_gap_note_text_after_the_low_energy_note():
    rows = sweep_decay(D200, [0.4], tol=1e-30)
    assert rows.note.tolist() == [
        LOW_ENERGY_NOTE + "; Newton stopped at |f| = 5.55e-17 after 50 "
        "steps from the j=0 seed"]


def test_sweep_gap_records_no_decay_rate():
    # nan marks a gap: Newton's last iterate is not a decay rate
    rows = sweep_decay(D200, [5.0], tol=1e-30)
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
    d = DimensionlessParams(kappa=200.0, W=1e200)
    with pytest.raises(ApproximationRangeError,
                       match="the largest usable W") as info:
        search(d)
    assert f"at most {qnm.MAX_W:.17g}," in str(info.value)


def test_sweep_rejects_weak_coupling():
    # no seed exists for kappa <= 1, as for find_modes
    with pytest.raises(ApproximationRangeError):
        sweep_decay(DimensionlessParams(kappa=0.5, W=1.0), [1.0, math.pi])


def test_slowest_mode_without_a_converged_neighbour_is_refused(monkeypatch):
    monkeypatch.setattr(qnm, "MAX_NEWTON_STEPS", 0)
    with pytest.raises(ApproximationRangeError, match="no converged mode"):
        slowest_mode(D200)


def test_slowest_mode_picks_the_smaller_linewidth_neighbour():
    mode = slowest_mode(D200)
    assert mode.j == 2
    assert abs(mode.theta - ROOTS[(200.0, 5.0, 2)]) < 1e-11

    mode2 = slowest_mode(DimensionlessParams(kappa=50.0, W=2.0))
    assert mode2.j == 1
    assert abs(mode2.theta - ROOTS[(50.0, 2.0, 1)]) < 1e-11


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
