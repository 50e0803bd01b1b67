"""Real-energy scattering: phase shift, Wigner delay, cavity enhancement
and the leaky-mode profile."""

import math
import re
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracle_helpers import (breit_wigner_fwhm, lorentzian_ode_phase,
                            mp_scattering, pi_shift_offset, wrap_half_pi)
from qnmlab.model import DimensionlessParams
from qnmlab.qnm import Modes, refine_root, seed_mode
from qnmlab.scattering import (DEGENERATE_TOL, MIRROR_LIMIT_NOTE,
                               enhancement_scan, phase_shift,
                               qnm_wavefunction)

D200 = DimensionlessParams(kappa=200.0, W=5.0)
D0 = DimensionlessParams(kappa=0.0, W=5.0)

#: Rounding bound of the scattering kernel, in units of the error model
#: below: each part of F, and the delay's bracket (1 - kappa) sin + 2 (W -
#: theta) cos, is off by a few eps (|W - theta| + (1 + kappa) |sin theta|)
#: plus a few subnormal steps, which dividing by |F| turns into the
#: relative error of arg F, |F| and (W - theta) / |F|.
SCATTER_ULPS = 8


def _mode_j1():
    return refine_root(seed_mode(1, D200), D200)


def _within(value, ref, rel, floor):
    # value == ref first: rel may be inf where |F| is subnormal
    return value == ref or abs(value - ref) <= rel * abs(ref) + floor


def _rounding(t, kappa, w, size):
    """(rel, delay_floor) of a scan row at theta = t with |F| = size: delta,
    |F| and (W - theta) / |F| are off by rel, the delay by rel of itself
    plus delay_floor."""
    eps, step = sys.float_info.epsilon, math.ulp(0.0)
    level, sin_t = abs(w - t), abs(math.sin(t))
    # each term over |F| on its own: |F| is inf past float max
    rel = SCATTER_ULPS * (eps + eps * (level / size + (1.0 + kappa)
                                       * sin_t / size) + step / size)
    # delay = (kappa sin / |F|) (bracket / |F|): off by rel, and by the
    # rounding of each factor
    coupling = kappa * sin_t / size
    bracket = (1.0 + kappa) * sin_t / size + 2.0 * (level / size)
    return rel, SCATTER_ULPS * ((coupling * eps + step / size) * bracket
                                + coupling * step / size) + sys.float_info.min


def _assert_matches_mpmath(scan, d):
    """Every row of scan within SCATTER_ULPS of the 40-digit closed form;
    delta modulo pi, as the scan unwraps it."""
    for t, delta, delay, enhancement in zip(*(c.tolist() for c in scan[:4])):
        ref_delta, ref_delay, ref_enhancement, size = mp_scattering(
            t, d.kappa, d.W)
        if size == 0.0:  # the decoupled atom at theta = W is exact
            assert (delta, delay, enhancement) == (0.0, 0.0, 1.0)
            continue
        rel, delay_floor = _rounding(t, d.kappa, d.W, size)
        assert _within(wrap_half_pi(delta - ref_delta), 0.0, 0.0, rel)
        # + float min: below the normal range results round to subnormal
        # steps, as an enhancement of 1e-600 does
        assert _within(enhancement, ref_enhancement, rel, sys.float_info.min)
        assert _within(delay, ref_delay, rel, delay_floor)


# --- phase shift: limits and identities ---------------------------------

def test_decoupled_atom_scatters_trivially():
    for theta in (2.0, 5.0):  # including theta = W
        p = phase_shift(theta, D0)
        assert p.delta == 0.0
        assert p.delay == 0.0
        assert p.enhancement == 1.0


def test_phase_satisfies_cotangent_identity():
    # delta is defined by cot(theta + delta) = cot(theta) - g; check the
    # identity directly at points away from the degenerate angles
    for theta in (0.7, 1.9, 2.95, 4.4):
        p = phase_shift(theta, D200)
        g = D200.kappa / (D200.W - theta)
        lhs = math.cos(theta + p.delta) / math.sin(theta + p.delta)
        rhs = math.cos(theta) / math.sin(theta) - g
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))


def test_phase_against_independent_integration():
    # Independent oracle: integrate the stationary wave through a narrow
    # normalized Lorentzian barrier (half-width 1e-4) standing in for the
    # delta potential and read the phase off the outgoing tail. Finite
    # barrier width biases the comparison by a few 1e-4 at most on these
    # off-resonance points.
    for theta in (0.7, 1.9, 2.95):
        closed = phase_shift(theta, D200).delta
        numeric = lorentzian_ode_phase(theta, D200.kappa, D200.W)
        assert abs(wrap_half_pi(closed - numeric)) <= 1e-3


def test_mirror_limit_has_node_at_atom():
    p = phase_shift(5.0, D200)
    assert p.note == MIRROR_LIMIT_NOTE
    assert p.enhancement == 0.0
    # g -> inf forces theta + delta to a multiple of pi
    assert abs(math.sin(5.0 + p.delta)) <= 1e-12


def test_node_forms_continuously_toward_level():
    # |sin(theta + delta)| ~ |W - theta| / kappa near theta = W, from
    # either side: the node at the atom develops continuously
    offsets = np.geomspace(1e-5, 1e-2, 8)
    for sign in (-1.0, 1.0):
        vals = [abs(math.sin(5.0 + sign * off + phase_shift(5.0 + sign * off,
                                                            D200).delta))
                for off in offsets]
        assert all(a < b for a, b in zip(vals, vals[1:]))
    small = abs(math.sin(5.0 + 1e-4 + phase_shift(5.0 + 1e-4, D200).delta))
    assert small == pytest.approx(1e-4 / 200.0, rel=1e-3)


def test_multiple_of_pi_is_evaluated_directly():
    # sin^2(theta + delta) / sin^2(theta) is 0/0 at theta = j*pi, but
    # (W - theta)^2 / |F|^2 is not: F = W - theta there
    scan = enhancement_scan(D200, [math.pi - 2e-12, math.pi, math.pi + 2e-12])
    assert all(np.isfinite(column).all() for column in scan[:4])
    assert scan.note.tolist() == ["", "", ""]
    _assert_matches_mpmath(scan, D200)


@pytest.mark.parametrize("kappa, w, thetas", [
    (1e100, 5.0, [4.0, 4.75, 5.0 - 1e-12, 5.0, 5.0 + 1e-12, 5.5, 6.0]),
    (1e300, 5.0, [4.0, 4.75, 5.0 - 1e-12, 5.0, 5.0 + 1e-12, 5.5, 6.0]),
    (sys.float_info.max, 5.0, [4.0, 4.75, 5.0, 5.5, 6.0]),
    (200.0, 0.0, [1e-300, 1e-10, 0.5, 1.0]),
    # 2 (W - theta) cos(theta) would overflow: the delay is ~1e-307
    (50.0, 1e308, [0.5, 2.25, 4.0]),
    (0.0, sys.float_info.max, [0.5, 2.25, 4.0]),
    # W - theta - kappa sin cos would overflow: |F| is past float max
    (1e300, sys.float_info.max, [2.25]),
], ids=["kappa-1e100", "kappa-1e300", "kappa-max", "w-0-theta-1e-300",
        "w-1e308", "w-max-decoupled", "w-max-kappa-1e300"])
def test_extreme_inputs_stay_finite_and_accurate(kappa, w, thetas):
    # No intermediate overflows, and the enhancement has no rounding floor:
    # at kappa = 1e100 it is ~1e-200, not sin^2 of a rounded node
    d = DimensionlessParams(kappa=kappa, W=w)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scan = enhancement_scan(d, thetas)
    assert all(np.isfinite(column).all() for column in scan[:4])
    _assert_matches_mpmath(scan, d)
    if w == 0.0:
        # theta = 1e-300 is not W = 0: its enhancement is 2.48e-5, not 0
        assert scan.note.tolist() == ["", "", "", ""]


def test_phase_rejects_bad_energy():
    with pytest.raises(ValueError):
        phase_shift(0.0, D200)
    with pytest.raises(ValueError):
        phase_shift(math.inf, D200)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("position", [0, 2, 4])
def test_scan_rejects_bad_energy_anywhere(bad, position):
    grid = [1.0, 1.5, 2.0, 2.5, 3.0]
    grid[position] = bad
    with pytest.raises(ValueError, match="theta"):
        enhancement_scan(D200, grid)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(kappa=st.one_of(st.just(0.0),
                       st.floats(0.0, 2000.0, exclude_min=True)),
       w=st.one_of(st.floats(0.0, 12.0),
                   st.sampled_from([math.pi, 2.0 * math.pi, 3.0 * math.pi])),
       start=st.floats(0.01, 6.0), span=st.floats(1e-3, 8.0),
       samples=st.integers(2, 40), near_w=st.floats(-1e-9, 1e-9),
       near_node=st.floats(-2e-12, 2e-12))
def test_scan_matches_mpmath(kappa, w, start, span, samples, near_w,
                             near_node):
    # The grid holds exact j*pi nodes, a point within 2e-12 of one, theta = W
    # and a point within 1e-9 of W, besides a plain linspace.
    d = DimensionlessParams(kappa=kappa, W=w)
    grid = np.concatenate([np.linspace(start, start + span, samples),
                           [math.pi, 2.0 * math.pi, 3.0 * math.pi,
                            math.pi + near_node, w, w + near_w]])
    grid = np.sort(grid[grid > 0])
    scan = enhancement_scan(d, grid)
    _assert_matches_mpmath(scan, d)
    assert np.all(np.abs(np.diff(scan.delta)) <= math.pi / 2)
    assert scan.note.tolist() == [
        MIRROR_LIMIT_NOTE if kappa > 0 and abs(w - t) <= DEGENERATE_TOL * w
        else "" for t in grid.tolist()]


def _off(value, rel, floor):
    """Largest |value - exact| for a scan value within rel |exact| + floor
    of its exact one."""
    return (rel * abs(value) + floor) / (1.0 - rel)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(log_kappa=st.floats(0.0, 4.0, exclude_min=True),
       w=st.floats(0.0, 12.0),
       thetas=st.lists(st.floats(1e-3, 12.0), min_size=1, max_size=8),
       m=st.integers(1, 10 ** 6))
def test_scan_repeats_when_w_and_theta_shift_by_pi(log_kappa, w, thetas, m):
    # F(theta + pi; W + pi) = F(theta; W), so delta (mod pi), the delay and
    # the enhancement repeat. The float shifts land off W + m pi and theta
    # + m pi by the exact offsets dw and dt: the shifted scan reads the
    # exact F at level W - theta + dw - dt and angle theta + dt. F moves by
    # at most |dw - dt| + kappa |dt| (d/d level = 1, and |d/d theta| of sin
    # cos and sin^2 is at most 1), r of |F|; arg F then moves by at most
    # asin(r), |F| by a factor within 1 -+ r, and the delay's numerator
    # kappa sin ((1 - kappa) sin + 2 level cos) by at most its largest
    # derivatives times the offsets. Each scan adds its own rounding.
    kappa = 10.0 ** log_kappa
    d = DimensionlessParams(kappa=kappa, W=w)
    shifted_d = DimensionlessParams(kappa=kappa, W=w + m * math.pi)
    grid = np.array(thetas)
    scan = enhancement_scan(d, grid)
    shifted = enhancement_scan(shifted_d, grid + m * math.pi)
    dw = pi_shift_offset(shifted_d.W, w, m)
    eps = sys.float_info.epsilon
    for (t, delta, delay, enhancement, t_shifted, delta2, delay2,
         enhancement2) in zip(*(c.tolist() for c in scan[:4] + shifted[:4])):
        dt = pi_shift_offset(t_shifted, t, m)
        sin_t, cos_t = math.sin(t), math.cos(t)
        level = w - t
        size = abs(complex(level - kappa * sin_t * cos_t,
                           kappa * sin_t * sin_t))
        rel, floor = _rounding(t, kappa, w, size)
        low = size / (1.0 + rel)  # at most the exact |F|
        moved = (1.0 + eps) * (abs(dw - dt) + kappa * abs(dt))
        r = moved / low
        if not r < 1.0:  # F may vanish in between: nothing is bounded
            continue
        rel2, floor2 = _rounding(t_shifted, kappa, shifted_d.W,
                                 low * (1.0 - r))
        assert abs(wrap_half_pi(delta2 - delta)) <= (
            math.asin(r) + rel + rel2 + 4.0 * eps * (abs(delta)
                                                     + abs(delta2)))
        # sqrt(enhancement) is |level| / |F|
        q = math.sqrt(enhancement) + _off(math.sqrt(enhancement), rel, 0.0)
        dq = (abs(dw - dt) / low + q * r) / (1.0 - r)
        assert abs(enhancement2 - enhancement) <= (
            dq * (2.0 * q + dq) + _off(enhancement, rel, sys.float_info.min)
            + _off(enhancement2, rel2, sys.float_info.min))
        exact = abs(delay) + _off(delay, rel, floor)
        numerator = kappa * (abs(dw - dt) + (abs(1.0 - kappa) + 2.0 * abs(
            level) + 2.0 * abs(dw - dt)) * abs(dt))
        shrink = (1.0 - r) ** -2
        assert abs(delay2 - delay) <= (
            numerator / (low * low) * shrink + exact * (shrink - 1.0)
            + _off(delay, rel, floor) + _off(delay2, rel2, floor2))


@pytest.mark.parametrize("kappa, w, theta", [
    (200.0, 5.0, 0.7), (200.0, 5.0, 3.1408), (200.0, 5.0, 4.4),
    (200.0, 5.0, 5.3), (200.0, 5.0, 7.9), (50.0, 2.0, 2.6),
    (1.2, 0.3, 0.2), (1.2, 0.3, 2.5),
])
def test_closed_forms_match_definitions(kappa, w, theta):
    # The reference's F-based forms against the definitions they replace:
    # delta = atan2(g sin^2, 1 - g sin cos), delay its derivative (taken
    # numerically) and enhancement sin^2(theta + delta) / sin^2(theta)
    delta, delay, enhancement, _ = mp_scattering(theta, kappa, w)
    with mpmath.workdps(40):
        def phase(x):
            g = kappa / (w - x)
            s, c = mpmath.sin(x), mpmath.cos(x)
            return mpmath.atan2(g * s * s, 1 - g * s * c)
        t = mpmath.mpf(theta)
        ref_delta = phase(t)
        ref_delay = mpmath.diff(phase, t)
        ref_enhancement = (mpmath.sin(t + ref_delta) / mpmath.sin(t)) ** 2
    assert abs(wrap_half_pi(delta - float(ref_delta))) <= 1e-15
    assert delay == pytest.approx(float(ref_delay), rel=1e-14)
    assert enhancement == pytest.approx(float(ref_enhancement), rel=1e-14)


# --- resonance shape ----------------------------------------------------

def test_phase_rises_by_pi_across_resonance():
    mode = _mode_j1()
    t0 = mode.theta.real
    width = abs(mode.theta.imag)
    grid = np.linspace(t0 - 0.01, t0 + 0.01, 4001)
    deltas = enhancement_scan(D200, grid).delta
    rise = deltas[-1] - deltas[0]
    # the +/-0.01 window cuts two Lorentzian tails of atan(width/0.01)
    # ~ 0.009 each and picks up ~0.02 of smooth background drift, so the
    # rise sits just below pi (measured pi - 0.037)
    assert rise < math.pi
    assert abs(rise - math.pi) < 0.06
    assert np.max(np.abs(np.diff(deltas))) < 0.2
    # steepest ascent localized on the mode position
    steep = int(np.argmax(np.diff(deltas)))
    assert abs(0.5 * (grid[steep] + grid[steep + 1]) - t0) <= 1e-5


def test_half_rise_spans_the_linewidth():
    mode = _mode_j1()
    t0 = mode.theta.real
    width = abs(mode.theta.imag)
    pts = enhancement_scan(D200, [t0 - width, t0 + width])
    half = pts.delta[1] - pts.delta[0]
    assert half == pytest.approx(math.pi / 2, rel=0.01)


def test_resonance_rise_against_independent_integration():
    # Oracle bracket around the j = 1 resonance, just outside the core
    # where the finite barrier width of the oracle still resolves the
    # closed form to ~1e-3 (measured gaps 8.8e-5 and 6.1e-4).
    for theta in (3.140837420724337, 3.200837420724337):
        closed = phase_shift(theta, D200).delta
        numeric = lorentzian_ode_phase(theta, D200.kappa, D200.W)
        assert abs(wrap_half_pi(closed - numeric)) <= 1e-3


def test_enhancement_peaks_on_mode_position():
    mode = _mode_j1()
    t0 = mode.theta.real
    grid = np.linspace(3.13, 3.17, 4001)
    enh = enhancement_scan(D200, grid).enhancement
    peak = int(np.argmax(enh))
    assert abs(grid[peak] - t0) <= 1e-5
    # on resonance sin^2(theta + delta) -> 1, so the peak height is
    # 1/sin^2(theta0) up to O(width)
    assert enh[peak] == pytest.approx(1.0 / math.sin(t0) ** 2, rel=0.01)


def test_enhancement_width_matches_mode_decay():
    mode = _mode_j1()
    t0 = mode.theta.real
    width = abs(mode.theta.imag)
    grid = np.linspace(t0 - 3e-4, t0 + 3e-4, 121)
    enh = enhancement_scan(D200, grid).enhancement
    center, fwhm = breit_wigner_fwhm(grid, enh, t0)
    assert abs(center - t0) <= 1e-5
    assert fwhm == pytest.approx(2.0 * width, rel=1e-3)


@pytest.mark.parametrize("kappa, w, j", [
    (200.0, 5.0, 1),
    # quasi-bound states: linewidths 2.5e-9 and 1.0e-10, far below the
    # step a finite-difference delay would need
    (2000.0, math.pi + 0.1, 1),
    (1000.0, 2.0 * math.pi + 0.01, 2),
])
def test_delay_peak_is_inverse_linewidth(kappa, w, j):
    d = DimensionlessParams(kappa=kappa, W=w)
    mode = refine_root(seed_mode(j, d), d)
    t0 = mode.theta.real
    width = abs(mode.theta.imag)
    grid = np.linspace(t0 - 5.0 * width, t0 + 5.0 * width, 2001)
    delays = enhancement_scan(d, grid).delay
    peak = int(np.argmax(delays))
    assert abs(grid[peak] - t0) <= 1e-2 * width
    assert delays[peak] == pytest.approx(1.0 / width, rel=5e-3)


def test_scan_unwraps_to_a_smooth_branch():
    # away from the j = 1 resonance the delay stays O(10), so a 2e-3 grid
    # moves delta by well under the pi/2 unwrap margin
    grid = np.linspace(0.4, 3.0, 1301)
    deltas = enhancement_scan(D200, grid).delta
    assert np.max(np.abs(np.diff(deltas))) < 0.5


def test_scan_decoupled_atom_is_flat():
    pts = enhancement_scan(D0, np.linspace(0.5, 6.0, 51))
    assert all(delta == 0.0 and enhancement == 1.0
               for delta, enhancement in zip(pts.delta, pts.enhancement))


# --- leaky-mode profile -------------------------------------------------

def test_wavefunction_vanishes_at_mirror():
    phi = qnm_wavefunction(_mode_j1(), [0.0])
    assert phi[0] == 0


def test_wavefunction_is_continuous_at_atom():
    inner, outer = qnm_wavefunction(_mode_j1(), [1.0, 1.0 + 1e-12])
    assert abs(inner - outer) <= 1e-9


def test_wavefunction_solves_free_equation():
    # phi'' = -theta^2 phi on both sides of the atom; check with a
    # second-difference at h = 1e-4 (truncation theta^4 h^2 / 12 ~ 1e-7)
    mode = _mode_j1()
    theta = mode.theta
    h = 1e-4
    for x in (0.5, 2.0):
        lo, mid, hi = qnm_wavefunction(mode, [x - h, x, x + h])
        second = (lo - 2.0 * mid + hi) / h**2
        assert abs(second + theta * theta * mid) <= 1e-4


def test_wavefunction_derivative_jump_matches_weight():
    # phi'(1+h) - phi'(1-h) + theta g phi(1) -> 0 linearly in h: the
    # residual is ~ -2 theta^2 phi(1) h, so shrinking h tenfold shrinks
    # it tenfold (measured ratio 0.108)
    mode = _mode_j1()
    theta = mode.theta
    g = D200.kappa / (D200.W - theta)
    eps = 1e-7

    def residual(h):
        xs = [1.0 - h - eps, 1.0 - h + eps, 1.0 + h - eps, 1.0 + h + eps, 1.0]
        s = qnm_wavefunction(mode, xs)
        d_in = (s[1] - s[0]) / (2.0 * eps)
        d_out = (s[3] - s[2]) / (2.0 * eps)
        return d_out - d_in + theta * g * s[4]

    ratio = abs(residual(1e-4)) / abs(residual(1e-3))
    assert 0.07 <= ratio <= 0.14


def test_wavefunction_grows_at_mode_rate():
    # |phi(x)| / |phi(1)| = exp(|Im theta| (x - 1)) outside the atom
    mode = _mode_j1()
    width = abs(mode.theta.imag)
    at_one, far = qnm_wavefunction(mode, [1.0, 1.0e4])
    ratio = abs(far) / abs(at_one)
    assert ratio == pytest.approx(math.exp(width * (1.0e4 - 1.0)), rel=1e-9)
    assert ratio == pytest.approx(math.exp(0.86), rel=0.02)


def _mp_wavefunction(theta, x):
    """phi(x) at 40 digits and the size its rounding error scales with:
    cosh(Im(theta) x) inside, which bounds |sin| and |cos| of theta x,
    and |phi(x)| outside."""
    t, xm = mpmath.mpc(theta), mpmath.mpf(x)
    if x <= 1.0:
        return mpmath.sin(t * xm), mpmath.cosh(t.imag * xm)
    value = mpmath.sin(t) * mpmath.exp(1j * t * (xm - 1))
    return value, abs(value)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(kappa=st.floats(1.0, 2000.0, exclude_min=True), w=st.floats(0.0, 12.0),
       j=st.integers(-1, 5), x_max=st.floats(1.0, 50.0),
       samples=st.integers(2, 60), growth=st.floats(0.0, 708.0))
# the exact bound state: Im(theta) = 0, a tail that neither grows nor decays
@example(kappa=200.0, w=math.pi, j=1, x_max=50.0, samples=60, growth=708.0)
def test_wavefunction_matches_mpmath(kappa, w, j, x_max, samples, growth):
    # Within 4 eps (1 + |theta| x) of the 40-digit profile: rounding theta x
    # costs eps |theta| x, and the libm adds a few eps. Measured worst 1.92
    # in these units. Besides a linspace the grid holds the mirror, the
    # atom and its float neighbours, a far point where the tail has grown
    # by e^growth, and one grown by e^708.6, close to overflow but below it
    # for every |sin(theta)| a converged mode here reaches.
    d = DimensionlessParams(kappa=kappa, W=w)
    mode = refine_root(seed_mode(j, d), d)
    assume(mode.converged)
    gamma = max(abs(mode.theta.imag), 1e-300)
    xs = np.concatenate([np.linspace(0.0, x_max, samples),
                         [0.0, 1.0, 1.0 - 1e-12, 1.0 + 1e-12,
                          1.0 + growth / gamma, 1.0 + 708.6 / gamma]])
    phi = qnm_wavefunction(mode, xs)
    eps = sys.float_info.epsilon
    with mpmath.workdps(40):
        for x, value in zip(xs.tolist(), phi.tolist()):
            ref, size = _mp_wavefunction(mode.theta, x)
            bound = 4 * eps * (1 + abs(mode.theta) * x) * size
            assert abs(mpmath.mpc(value) - ref) <= bound, (x, value, ref)


@pytest.mark.parametrize("kappa, w, j", [
    (50.0, 2.0, 1), (200.0, 5.0, 1), (200.0, 5.0, 3), (3.0, 7.0, 2)])
def test_wavefunction_sample_does_not_depend_on_grid(kappa, w, j):
    # each sample alone equals the same sample inside a grid, signed zeros
    # included; 571 samples leave a remainder for any vector width
    d = DimensionlessParams(kappa=kappa, W=w)
    mode = refine_root(seed_mode(j, d), d)
    xs = np.concatenate([np.linspace(0.0, 30.0, 571), [1.0 - 1e-12, 1.0]])
    phi = qnm_wavefunction(mode, xs).tolist()
    alone = [qnm_wavefunction(mode, [x])[0].item() for x in xs.tolist()]
    assert ([(v.real.hex(), v.imag.hex()) for v in phi]
            == [(v.real.hex(), v.imag.hex()) for v in alone])


@pytest.mark.parametrize("growth", [
    8500.0,     # exp of the tail exponent overflows
    710.3,      # exp(growth) overflows, exp(growth - 1) * e does not
    709.95,     # past the limit, yet numpy's exp times sin(theta) is finite
])
def test_wavefunction_refuses_overflowing_tail(growth):
    mode = _mode_j1()
    gamma = abs(mode.theta.imag)
    limit = 1.0 + math.log(sys.float_info.max) / gamma
    # 8.35e6 at (200, 5), j = 1
    assert limit == pytest.approx(8.35e6, rel=1e-3)
    with pytest.raises(ValueError, match=re.escape(f"{limit:.6g}")):
        qnm_wavefunction(mode, [0.5, 2.0, 1.0 + growth / gamma])


def test_wavefunction_rejects_bad_input():
    mode = _mode_j1()
    for x in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            qnm_wavefunction(mode, [x])
    stale = Modes(j=1, theta=3.15 - 1e-4j, residual=1.0, iterations=50,
                  converged=False, note="")
    with pytest.raises(ValueError):
        qnm_wavefunction(stale, [0.5])
