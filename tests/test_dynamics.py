"""Delay-differential evolution of the atomic amplitude and decay fitting."""

import functools
import math
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnmlab import dynamics
from qnmlab.dynamics import (CHUNK_ROWS, FIT_START, MAX_ROUNDING_BOUND,
                             ROUND_TRIP, DdeConfig, DdeStream, FitWindowError,
                             TailFit, evolve_atom, fit_decay, fit_tail,
                             pole_check)
from qnmlab.model import DimensionlessParams
from qnmlab.qnm import characteristic, find_modes
from oracle_helpers import (PI_40, drained_dde, interval_recurrence_dde,
                            mp_delay_series, pi_shift_offset,
                            piecewise_delay_solution, polyfit_decay)
from refs import ROOTS

D200 = DimensionlessParams(kappa=200.0, W=5.0)
D50 = DimensionlessParams(kappa=50.0, W=2.0)


# --- configuration validation --------------------------------------------

def test_config_rejects_short_horizon_and_coarse_step():
    with pytest.raises(ValueError):
        DdeConfig(d=D50, t_max=19.0)
    # every run shares one output grid: no step can be passed at all
    with pytest.raises(TypeError):
        DdeConfig(d=D50, t_max=100.0, dt=0.02)


# --- closed-form segments -------------------------------------------------

def test_before_first_round_trip_decay_is_free_space():
    # no feedback before s = 2: w(s) = exp(-(iW + kappa/2) s) exactly
    cfg = DdeConfig(d=DimensionlessParams(kappa=10.0, W=2.0), t_max=334.0)
    res = evolve_atom(cfg, fit_window=(167.0, 334.0))
    early = res.times <= 2.0
    expected = np.exp(-(2.0j + 5.0) * res.times[early])
    err = np.abs(res.w[early] - expected) / np.abs(expected)
    assert err.max() <= 1e-8


@pytest.mark.parametrize("w_level", [2.0, 5.0, 7.3])
def test_decoupled_atom_only_rotates(w_level):
    # |w| drifts by rounding up or down depending on W; the fit reads
    # either as no decay
    cfg = DdeConfig(d=DimensionlessParams(kappa=0.0, W=w_level), t_max=50.0)
    res = evolve_atom(cfg)
    assert np.max(np.abs(np.abs(res.w) - 1.0)) <= 1e-12
    expected = np.exp(-1j * w_level * res.times)
    assert np.max(np.abs(res.w - expected)) <= 1e-9
    assert res.fit.gamma_fit == 0.0


def test_decoupled_atom_rotates_accurately_for_long():
    # 10^4 intervals, where the series keeps one term, exp(-iWs): the phase
    # error stays below 1e-12 and |w| at 1 to a few roundings
    cfg = DdeConfig(d=DimensionlessParams(kappa=0.0, W=5.0), t_max=20000.0)
    stream, times, w = drained_dde(cfg)
    assert np.max(np.abs(w - np.exp(-5.0j * times))) <= 1e-12
    assert stream.peak_abs_w <= 1.0 + 1e-13


def test_matches_interval_polynomial_solution():
    # method-of-steps polynomials (exact integrals, small coupling so the
    # polynomial coefficients stay well conditioned) vs the series
    d = DimensionlessParams(kappa=2.0, W=1.5)
    cfg = DdeConfig(d=d, t_max=40.0)
    res = evolve_atom(cfg)
    exact = piecewise_delay_solution(2.0, 1.5, res.times)
    assert np.max(np.abs(res.w - exact)) <= 1e-12


def test_failed_fit_keeps_the_trajectory():
    # |w| underflows inside the default window, so the fit must refuse; the
    # error carries the run's record, as evolve's manifest `dde` block
    cfg = DdeConfig(d=DimensionlessParams(kappa=1000.0, W=3.1516),
                    t_max=400.0)
    with pytest.raises(FitWindowError, match="underflows") as info:
        evolve_atom(cfg)
    record = dict(info.value.record)
    seconds = [record.pop(k) for k in ("integrate_s", "fit_s", "handoff_s")]
    assert min(seconds) >= 0.0
    stream, times, _ = drained_dde(cfg)
    # |w| underflows at the window's first row, so no row was fitted
    assert record == {"n_per": cfg.n_per, "n_intervals": stream.n_intervals,
                      "stride": stream.stride, "output_points": times.size,
                      "peak_abs_w": stream.peak_abs_w, "terms": stream.terms,
                      "rounding_bound": 0.0}


# --- amplitude bound ------------------------------------------------------

def test_amplitude_above_the_norm_bound_is_an_integration_error(monkeypatch):
    # a faulty series: every term's log-pmf raised by ln 1.5, so w(0) = 1.5
    scale = dynamics._log_scale
    monkeypatch.setattr(dynamics, "_log_scale",
                        lambda lo, hi: scale(lo, hi) + math.log(1.5))
    with pytest.raises(RuntimeError, match="single-excitation bound"):
        drained_dde(DdeConfig(d=D50, t_max=40.0))


def test_any_kappa_dt_runs_without_a_step():
    # kappa * dt / 2 = 5000 would overflow one step of a method-of-steps
    # integrator; the series has no step. From kappa ~3e15 on,
    # d / lam of a band term rounds to -1, where its weight underflows: the
    # term is dropped, not summed as inf * 0. 1.34e154 is the largest kappa
    # whose square is finite
    for kappa in (1e7, 1e16, 1e50, 1.34e154):
        cfg = DdeConfig(d=DimensionlessParams(kappa=kappa, W=2.0), t_max=20.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stream, times, w = drained_dde(cfg)
        assert np.isfinite(w).all() and np.abs(w).max() <= 1.0
        assert stream.peak_abs_w == 1.0 and stream.rows == 20001
        rows = np.arange(0, stream.rows, 499)
        ref = mp_delay_series(kappa, 2.0, times[rows])
        assert np.abs(w[rows] - ref).max() <= 1e-12


def test_stiffest_accepted_config_integrates_without_overflow():
    # kappa * dt / 2 = 709.75, just inside log(float max), where one step
    # of a method-of-steps integrator would still be finite: the series'
    # terms fall to subnormals and 0 with no overflow on the way
    cfg = DdeConfig(d=DimensionlessParams(kappa=1.4195e6, W=2.0), t_max=40.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stream, _, w = drained_dde(cfg)
    assert np.isfinite(w).all()
    assert stream.peak_abs_w <= 1.0


def test_single_excitation_norm_never_exceeds_one():
    res = evolve_atom(DdeConfig(d=DimensionlessParams(kappa=10.0, W=2.0),
                                t_max=334.0), fit_window=(167.0, 334.0))
    assert np.max(np.abs(res.w)) <= 1.0 + 1e-9


# --- the exact series ----------------------------------------------------

def _rows(stream):
    """(times, w, sum|terms|) of every row of the stream, as whole arrays."""
    parts = [(t.copy(), w.copy(), a.copy()) for t, w, a in stream.chunks()]
    return tuple(np.concatenate(p) for p in zip(*parts))


def _with_bound(cfg):
    """(times, w, eps * sum|terms| / |w|) of every row of the run."""
    times, w, abs_sum = _rows(DdeStream(cfg))
    with np.errstate(invalid="ignore"):     # NaN where every term is 0
        return times, w, np.finfo(float).eps * (abs_sum / np.abs(w))


# (kappa, W, t_max): the pulse case where the method-of-steps integrator
# is 1.1e-4 off on the return pulses at s = 4..6, the benchmark's long run,
# the README run, the decoupled atom and kappa dt / 2 = 709.75, just inside
# log(float max)
_MP_RUNS = [(1000.0, 5.0 * math.pi + 1e-3, 400.0),
            (111.67522699950392, 2.1030341380000053, 38010.0),
            (50.0, 2.0, 6522.0), (0.0, 5.0, 50.0), (1.4195e6, 2.0, 40.0)]


@pytest.mark.parametrize("run", _MP_RUNS,
                         ids=["pulses", "long", "readme", "decoupled", "stiff"])
def test_series_matches_mpmath_at_sampled_rows(run):
    times, w, bound = _with_bound(DdeConfig(
        d=DimensionlessParams(kappa=run[0], W=run[1]), t_max=run[2]))
    rng = np.random.default_rng(26)
    # 60 random rows, the last one and 21 on each of the first two return
    # pulses, which peak at s = 2n (1 + 1/kappa)
    rows = np.unique(np.concatenate([
        rng.integers(0, times.size, 60), [times.size - 1],
        np.searchsorted(times, np.linspace(4.0, 4.02, 21)),
        np.searchsorted(times, np.linspace(6.0, 6.02, 21))]))
    ref = mp_delay_series(run[0], run[1], times[rows])
    err = np.abs(w[rows] - ref)
    assert err.max() <= 1e-12
    # relative accuracy where the bound promises it and |w| is a normal float
    kept = (bound[rows] <= 1e-12) & (np.abs(ref) >= 1e-300)
    assert np.all(err[kept] <= 1e-10 * np.abs(ref[kept]))
    if run[0] == 1000.0:
        assert np.abs(ref).max() > 0.25    # the pulses were sampled
    if run[0] == 1.4195e6:
        # every term at the first row of the fit window is 0, so the fit
        # refuses there
        first = int(np.searchsorted(times, FIT_START))
        assert w[first] == mp_delay_series(*run[:2], times[first:first + 1])
        assert w[first] == 0.0


@settings(derandomize=True, max_examples=40, deadline=None)
@given(kappa=st.floats(2.0, 1000.0), detuning=st.floats(0.0, 1.0),
       t_max=st.floats(20.0, 60.0))
def test_series_is_the_integrator_to_fourth_order_in_kappa_dt(
        kappa, detuning, t_max):
    # the integrator's Hermite history errs like (kappa dt)^4 for W up to
    # kappa/2; 4.1e-11 at kappa 50. Its grid is its own, not the stream's
    cfg = DdeConfig(d=DimensionlessParams(
        kappa=kappa, W=detuning * min(12.0, kappa / 2.0)), t_max=t_max)
    _, times, w = drained_dde(cfg)
    grid, reference, _ = interval_recurrence_dde(cfg)
    assert np.array_equal(times, grid)
    assert np.abs(w - reference).max() <= 1e-3 * (kappa * cfg.dt) ** 4 + 1e-13


def test_fit_refuses_a_window_past_the_rounding_bound():
    # at kappa 0.3 |w| falls ~13 decades below its terms by s = 200, where
    # the series keeps only absolute accuracy
    cfg = DdeConfig(d=DimensionlessParams(kappa=0.3, W=1.0), t_max=200.0)
    with pytest.raises(FitWindowError, match=(
            r"rounding bound eps\*sum\|terms\|/\|w\| reaches .* in "
            r"\[20.0, 200.0\], above 1e-08: .*end the window earlier")) as info:
        fit_tail(DdeStream(cfg))
    bound = info.value.record["rounding_bound"]
    assert bound > MAX_ROUNDING_BOUND
    # the bound holds: the last row is off mpmath by less than it says
    times, w, _ = _with_bound(cfg)
    (ref,) = mp_delay_series(0.3, 1.0, times[-1:])
    assert 1e-4 < abs(w[-1] - ref) / abs(ref) <= bound
    # an earlier window end is the remedy
    fit, record = fit_tail(DdeStream(cfg), (FIT_START, 80.0))
    assert record["rounding_bound"] <= MAX_ROUNDING_BOUND
    assert fit.gamma_fit > 0.0


@pytest.mark.parametrize("run", [(0.0, 5.0, 50.0), (50.0, 2.0, 6522.0),
                                 (1000.0, 3.1516, 400.0)],
                         ids=["decoupled", "readme", "pulses"])
def test_series_chunks_rerun_bit_for_bit_and_bound_each_row(run):
    cfg = DdeConfig(d=DimensionlessParams(kappa=run[0], W=run[1]),
                    t_max=run[2])
    stream = DdeStream(cfg)
    chunks = [(t.copy(), w.copy(), a.copy()) for t, w, a in stream.chunks()]
    assert {len(t) for t, _, _ in chunks[:-1]} <= {CHUNK_ROWS}
    times, w, abs_sum = (np.concatenate(p) for p in zip(*chunks))
    assert times.size == stream.rows and stream.end == times[-1]
    # the moduli bound their sum, to rounding, and to the subnormals'
    # absolute spacing
    assert np.all(np.abs(w) <= abs_sum * (1.0 + 1e-13) + 1e-300)
    assert stream.peak_abs_w == np.abs(w).max() <= 1.0 + 1e-15
    assert 0 < stream.terms <= 60 * stream.rows
    _, again, w_again = drained_dde(cfg)
    assert np.array_equal(again, times) and np.array_equal(w_again, w)


# --- tail fitting ---------------------------------------------------------

def test_fit_recovers_synthetic_decay_exactly():
    s = np.linspace(0.0, 100.0, 5001)
    w = np.exp((-2.5j - 3e-4) * s)
    fit = fit_decay(s, w, (20.0, 100.0))
    assert fit.omega_fit == pytest.approx(2.5, abs=1e-12)
    assert fit.gamma_fit == pytest.approx(3e-4, abs=1e-12)
    assert fit.fit_residual <= 1e-12


def test_fit_keeps_a_slow_real_decay():
    # ln|w| falls by 1e-9 over the window: far above rounding drift
    s = np.linspace(0.0, 100.0, 5001)
    gamma = 1e-9 / 80.0
    fit = fit_decay(s, np.exp((-2.5j - gamma) * s), (20.0, 100.0))
    assert fit.gamma_fit == pytest.approx(gamma, rel=1e-3)


def test_fit_window_validation():
    s = np.linspace(0.0, 100.0, 2001)
    w = np.exp(-0.01 * s) * np.exp(-1j * s)
    with pytest.raises(FitWindowError):
        fit_decay(s, w, (5.0, 100.0))        # starts inside the transient
    with pytest.raises(FitWindowError):
        fit_decay(s, w, (99.0, 98.0))        # empty
    with pytest.raises(FitWindowError):
        fit_decay(s, w, (20.0, 21.0))        # too few samples
    grown = np.exp(+0.01 * s) * np.exp(-1j * s)
    with pytest.raises(FitWindowError):
        fit_decay(s, grown, (20.0, 100.0))   # growth is not a decay tail
    tiny = np.full_like(s, 1e-310, dtype=complex)
    with pytest.raises(FitWindowError):
        fit_decay(s, tiny, (20.0, 100.0))    # underflowed amplitudes


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_fit_refuses_non_finite_samples(bad):
    s = np.linspace(0.0, 100.0, 2001)
    w = np.exp(-0.01 * s) * np.exp(-1j * s)
    w[1000] = bad
    with pytest.raises(FitWindowError, match=r"\[20.0, 100.0\]"):
        fit_decay(s, w, (20.0, 100.0))


def test_premature_window_on_slow_config_reports_growth():
    # at kappa=200, W=5 both slow modes have lifetimes > 1e4, so ln|w| on
    # [1000, 2000] is a beating two-tone signal, not a decay line; the
    # fitter must refuse rather than return a bogus rate
    with pytest.raises(FitWindowError):
        evolve_atom(DdeConfig(d=D200, t_max=2000.0),
                    fit_window=(1000.0, 2000.0))


def test_default_window_matches_explicit_call():
    cfg = DdeConfig(d=DimensionlessParams(kappa=0.0, W=5.0), t_max=50.0)
    res = evolve_atom(cfg)
    fit = fit_decay(res.times, res.w, (20.0, 50.0))
    assert res.fit.omega_fit == fit.omega_fit
    assert res.fit.gamma_fit == fit.gamma_fit


def test_tail_fit_matches_slowest_reference_root():
    ref = ROOTS[(50.0, 2.0, 1)]
    t_max = 2.0 * math.ceil(3.2 / abs(ref.imag) / 2.0)
    res = evolve_atom(DdeConfig(d=D50, t_max=t_max),
                      fit_window=(t_max / 2.0, t_max))
    assert res.fit.omega_fit == pytest.approx(ref.real, rel=1e-4)
    assert res.fit.gamma_fit == pytest.approx(abs(ref.imag), rel=1e-4)


def test_result_grid_is_increasing_and_step_snapped():
    cfg = DdeConfig(d=DimensionlessParams(kappa=0.0, W=5.0), t_max=100.0)
    res = evolve_atom(cfg)
    assert np.all(np.diff(res.times) > 0)
    # n_per steps of dt span a delay period exactly, so interval ends land
    # exactly on the delay grid
    ends = res.times[::cfg.n_per]
    assert np.array_equal(ends, ROUND_TRIP * np.arange(ends.size))
    assert ends[-1] == cfg.t_max


def test_config_and_integrator_share_the_step_grid():
    # one grid for every run, which the stream's rows thin
    assert (DdeConfig.dt, DdeConfig.n_per) == (1e-3, 2000)
    assert DdeConfig.n_per * DdeConfig.dt == ROUND_TRIP
    stream = DdeStream(DdeConfig(d=D50, t_max=40.0))
    assert stream.stride == 1
    assert np.array_equal(next(stream.chunks())[0][:3], [0.0, 1e-3, 2e-3])


@pytest.mark.parametrize("w_level", [0.0, 2.0, 12.0, 1e4, 1e12, 1e300])
def test_row_bound_names_the_largest_run_that_fits(w_level):
    # past MAX_OUTPUT_POINTS rows the phase cap on the stride sets the row
    # count; a run of more than MAX_ROWS is refused, naming the largest
    # whole t_max that fits, and the one after it does not. From W ~ 1e3
    # on the stride is 1 and that t_max is 999, a run that can be fitted
    d = DimensionlessParams(kappa=50.0, W=w_level)
    with pytest.raises(ValueError,
                       match="needs over 1000000 rows") as refused:
        DdeStream(DdeConfig(d=d, t_max=1e300))
    fits = int(str(refused.value).rsplit(" ", 1)[1])
    assert fits >= 999 >= FIT_START
    assert dynamics.MAX_ROWS - 1000 < DdeStream(
        DdeConfig(d=d, t_max=fits)).rows <= dynamics.MAX_ROWS
    with pytest.raises(ValueError, match=f"fits is {fits}$"):
        DdeStream(DdeConfig(d=d, t_max=fits + 1))


# --- closed-form fit and output grid -------------------------------------

# (kappa, W, t_max): the README example, then the three seeded evolve runs
# of the time-domain benchmark (seed 1), each fitted over [t_max/2, t_max]
README_RUN = (50.0, 2.0, 6522.0)
SEEDED_RUNS = [(42.77082964881827, 4.1293426540381475, 6438.0),
               (45.39267478251692, 7.0244445823613715, 12818.0),
               (111.67522699950392, 2.1030341380000053, 38010.0)]


@functools.lru_cache(maxsize=None)
def _trajectory(kappa, w_level, t_max):
    """(stream, times, w) of the run, drained once and shared."""
    return drained_dde(DdeConfig(d=DimensionlessParams(kappa=kappa,
                                                       W=w_level),
                                 t_max=t_max))


def _synthetic(rate):
    s = np.linspace(0.0, 100.0, 5001)
    return s, np.exp(rate * s)


def _fit_case(case):
    if case == "readme":
        _, times, w = _trajectory(*README_RUN)
        return times, w, (FIT_START, float(times[-1]))
    if case == "decoupled":
        _, times, w = _trajectory(0.0, 5.0, 50.0)
        return times, w, (FIT_START, 50.0)
    if case.startswith("seeded"):
        run = SEEDED_RUNS[int(case[-1])]
        _, times, w = _trajectory(*run)
        return times, w, (run[2] / 2.0, run[2])
    rate = {"synthetic": -2.5j - 3e-4, "synthetic-slow": -2.5j - 1e-9 / 80.0}
    return (*_synthetic(rate[case]), (20.0, 100.0))


@pytest.mark.parametrize("case", [
    "readme", "seeded-0", "seeded-1", "seeded-2", "decoupled", "synthetic",
    "synthetic-slow"])
def test_fit_matches_polyfit_oracle(case):
    times, w, window = _fit_case(case)
    fit = fit_decay(times, w, window)
    omega, gamma, residual = polyfit_decay(times, w, window)
    assert fit.omega_fit == pytest.approx(omega, rel=1e-12)
    assert fit.gamma_fit == pytest.approx(gamma, rel=1e-12)
    # a residual at the rounding of ln|w| has no relative digits
    assert fit.fit_residual == pytest.approx(residual, rel=1e-9, abs=1e-15)
    assert fit.samples == np.count_nonzero(
        (times >= window[0]) & (times <= window[1]))
    if case == "decoupled":
        assert fit.gamma_fit == gamma == 0.0


def test_fit_reads_the_phase_of_a_tiny_tail():
    # |w| ~ 1e-200: a product w[k+1] conj(w[k]) would underflow to 0
    s, w = _synthetic(-2.5j - 3e-4)
    fit = fit_decay(s, 1e-200 * w, (20.0, 100.0))
    assert fit.omega_fit == pytest.approx(2.5, abs=1e-12)
    assert fit.gamma_fit == pytest.approx(3e-4, rel=1e-9)


@pytest.mark.parametrize("run, stride", [
    ((0.0, 5.0, 50.0), 1), (README_RUN, 16), (SEEDED_RUNS[2], 95),
    ((50.0, 2.0, 6523.0), 16),      # odd t_max: the last interval is cut
    ((50.0, 2.0, 1202.0), 3), ((50.0, 2.0, 2806.0), 7),
    ((1000.0, 3.1516, 400.0), 1),
], ids=["stride-1", "stride-16", "stride-95", "odd-t-max", "stride-3",
        "stride-7", "kappa-1000"])
def test_output_grid_matches_its_integer_expression(run, stride):
    stream, times, _ = _trajectory(*run)
    assert stream.stride == stride
    assert stream.n_intervals == math.ceil(run[2] / ROUND_TRIP)
    n_per, dt = DdeConfig.n_per, DdeConfig.dt
    g = np.arange(0, n_per * stream.n_intervals + 1, stride)
    interval = np.maximum(g - 1, 0) // n_per
    expected = ROUND_TRIP * interval + dt * (g - n_per * interval)
    inside = expected <= run[2] + 0.5 * dt
    assert np.array_equal(times, expected[inside])


@pytest.mark.parametrize("run, start", [
    (README_RUN, README_RUN[2] / 2.0), ((1000.0, 3.1516, 400.0), 123.4565),
    ((0.0, 5.0, 50.0), 20.0), ((1.4195e6, 2.0, 40.0), 39.9995),
], ids=["readme-half", "between-rows", "on-a-row", "last-row-alone"])
def test_stream_from_a_later_start_is_the_tail_of_the_run(run, start):
    # the rows at or after start, at the whole run's stride; each is summed
    # over a band sized by its own chunk, so it is the whole run's row to
    # rounding and to the e^-40 the band leaves out
    cfg = DdeConfig(d=DimensionlessParams(kappa=run[0], W=run[1]),
                    t_max=run[2])
    whole = DdeStream(cfg)
    times, w, abs_sum = _rows(whole)
    tail = DdeStream(cfg, start=start, max_stride=whole.stride)
    kept = times >= start
    assert (tail.stride, tail.end) == (whole.stride, whole.end)
    assert (tail.first, tail.rows) == (np.argmax(kept), np.count_nonzero(kept))
    tail_times, tail_w, tail_abs_sum = _rows(tail)
    assert np.array_equal(tail_times, times[kept])
    scale = np.maximum(abs_sum[kept], tail_abs_sum)
    assert np.all(np.abs(tail_w - w[kept]) <= 1e-13 * scale + 1e-300)
    assert tail.peak_abs_w == np.abs(tail_w).max()
    assert 0 < tail.terms < whole.terms


def test_stride_bound_gives_way_to_the_phase_cap():
    # by default about MAX_OUTPUT_POINTS rows; an unbounded stride is the
    # phase cap pi / (2 (W + pi) dt), 305 at W = 2, and the cap holds
    # whatever the caller's bound
    cfg = DdeConfig(d=D50, t_max=6522.0)
    assert DdeStream(cfg).stride == 16
    assert DdeStream(cfg, max_stride=math.inf).stride == 305
    assert DdeStream(cfg, max_stride=7).stride == 7
    assert DdeStream(cfg, max_stride=1000).stride == 305
    fast = DdeConfig(d=DimensionlessParams(kappa=50.0, W=1e4), t_max=40.0)
    assert DdeStream(fast, max_stride=math.inf).stride == 1


def test_a_stream_with_no_row_is_refused():
    cfg = DdeConfig(d=D50, t_max=40.0)
    with pytest.raises(ValueError, match=r"no output row in \[41, 40\]"):
        DdeStream(cfg, start=41.0)


def _fit_rounding(ln_amp, centred, slope, rate):
    """Largest rounding of a float fit of n rows over a span L: the slope,
    sum(c ln|w|) / sum(c^2), its dot products of n terms off by n eps of
    their sizes; the phase rate, a mean of n - 1 steps of at most `rate`,
    each off by 2 eps of itself, which numpy sums pairwise (in runs of 8
    under 128 terms), so off by (log2 n + 16) eps of rate more, and each of
    its at most rate L / (2 pi) + 1 wraps off by 2 pi eps of phase."""
    n, eps = ln_amp.size, sys.float_info.epsilon
    gamma = (n + 16) * eps * (
        float(np.abs(centred) @ (np.abs(ln_amp) + np.abs(ln_amp).max()))
        / float(centred @ centred) + abs(slope))
    span = float(centred.max() - centred.min())
    return gamma, (math.log2(n) + 20) * eps * rate + 7.0 * eps / span


@settings(derandomize=True, max_examples=30, deadline=None)
@given(log_kappa=st.floats(0.0, 4.0, exclude_min=True),
       w=st.floats(0.0, 12.0), m=st.integers(1, 24))
def test_series_repeats_when_w_shifts_by_pi(log_kappa, w, m):
    # Term n's phase exp(-i W (s - 2n)) gains exp(-i m pi s) at W + m pi, as
    # exp(2 i m pi n) = 1: |w(s)| and the fitted gamma repeat, and omega
    # moves by m pi. At t_max = 40 both runs have stride 1 (W + m pi <= 90),
    # so they share their rows. The float W + m pi lands dw off, which
    # moves term n by at most |dw| s of its modulus. Each run rounds the
    # angle 2 W k of a term (k <= n <= s/2) by at most eps W s/2, its cos
    # and sin by eps each, the dot product of at most s/2 + 1 nonzero terms
    # by (s/2 + 1) eps of their moduli, and |w| by a few eps more; a
    # subnormal term is off by a step of its own:
    # | |w'| - |w| | <= sum|terms| (|dw| s + eps ((W + W') s/2 + s + 22))
    # + (s + 8) steps.
    kappa, eps = 10.0 ** log_kappa, sys.float_info.epsilon
    shifted_w = w + m * math.pi
    runs = [DdeConfig(d=DimensionlessParams(kappa=kappa, W=level),
                      t_max=40.0) for level in (w, shifted_w)]
    (times, z, abs_sum), (times2, z2, abs_sum2) = (_rows(DdeStream(cfg))
                                                   for cfg in runs)
    assert np.array_equal(times, times2)
    dw = abs(pi_shift_offset(shifted_w, w, m))
    bound = np.maximum(abs_sum, abs_sum2) * (
        dw * times + eps * ((w + shifted_w) * times / 2.0 + times + 22.0)
        ) + (times + 8.0) * math.ulp(0.0)
    assert np.all(np.abs(np.abs(z2) - np.abs(z)) <= bound)

    fits = []
    for cfg in runs:
        try:
            fits.append(fit_tail(DdeStream(cfg))[0])
        except FitWindowError as refused:  # a bound state's beating grows
            fits.append(str(refused).split(" (")[0])
    fit, fit2 = fits
    if isinstance(fit, str):
        assert fit2 == fit
        return
    inside = times >= FIT_START
    s, amp, x = times[inside], np.abs(z[inside]), bound[inside]
    assert fit.samples == fit2.samples == s.size
    x = x / amp
    assert x.max() < 0.5
    # ln|w| moves by at most x / (1 - x) a row: the least-squares slope by
    # sum |c| that / sum c^2, c the centred times
    centred = s - s.mean()
    shift = float(np.abs(centred) @ (x / (1.0 - x))) / float(centred @
                                                             centred)
    ln_amp = np.log(amp)
    rate = 1.0 + float(np.abs(np.diff(np.unwrap(np.angle(z2[inside]))))
                       .max() / np.diff(s).min())
    gamma_round, omega_round = _fit_rounding(ln_amp, centred, fit.gamma_fit,
                                             rate)
    flat = dynamics._FLAT_LOG_DRIFT / (s[-1] - s[0])  # either may read 0
    assert abs(fit2.gamma_fit - fit.gamma_fit) <= (
        shift + 2.0 * gamma_round + flat)
    # arg w moves by at most asin(x) plus the rounding of the row's phase
    # W s: the steps' mean moves by the ends' change over h = dt, plus the
    # spread of the steps about h
    turn = float((np.arcsin(x) + eps * ((w + shifted_w) * s / 2.0 + 14.0))
                 .max())
    steps = np.diff(s)
    spread = float(np.abs(1.0 / steps - 1.0 / DdeConfig.dt).sum())
    moved = 2.0 * turn * (1.0 / DdeConfig.dt + spread) / (s.size - 1)
    assert abs(float(Fraction(fit2.omega_fit) - Fraction(fit.omega_fit)
                     - m * PI_40)) <= moved + 2.0 * omega_round


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_integration_and_fit_allocate_little_beyond_their_results():
    cfg = DdeConfig(d=DimensionlessParams(kappa=50.0, W=2.0), t_max=6522.0)
    res, peak = _traced_peak(evolve_atom, cfg)
    assert peak <= 1.1 * (res.times.nbytes + res.w.nbytes)
    window = (FIT_START, float(res.times[-1]))
    fit, peak = _traced_peak(fit_decay, res.times, res.w, window)
    assert peak <= 3 * 8 * fit.samples


def _raise(*args, **kwargs):
    raise AssertionError("the tail fit must not need a LAPACK least squares")


def test_fit_needs_no_least_squares_solver(monkeypatch):
    monkeypatch.setattr(np, "polyfit", _raise)
    monkeypatch.setattr(np.linalg, "lstsq", _raise)
    res = evolve_atom(DdeConfig(d=DimensionlessParams(kappa=10.0, W=2.0),
                                t_max=334.0), fit_window=(167.0, 334.0))
    assert res.fit.gamma_fit > 0.0


@pytest.mark.parametrize("swap", [False, True], ids=["repeated", "swapped"])
def test_fit_refuses_unsorted_times(swap):
    s, w = _synthetic(-2.5j - 3e-4)
    if swap:
        s[3000], s[3001] = s[3001], s[3000]
    else:
        s[3001] = s[3000]
    with pytest.raises(FitWindowError, match="strictly increasing"):
        fit_decay(s, w, (20.0, 100.0))


# --- streamed integration and chunked fit --------------------------------

def _fed(times, w, window, size):
    fit = TailFit(window)
    for k in range(0, len(times), size):
        fit.feed(times[k:k + size], w[k:k + size])
    return fit.result()


def _assert_same_fit(fit, whole):
    assert fit.samples == whole.samples
    assert fit.omega_fit == pytest.approx(whole.omega_fit, rel=1e-13)
    assert fit.gamma_fit == pytest.approx(whole.gamma_fit, rel=1e-13)
    assert fit.fit_residual == pytest.approx(whole.fit_residual, rel=1e-9,
                                             abs=1e-15)


_TAIL_CASES = ["readme", "seeded-0", "seeded-1", "seeded-2"]


@pytest.mark.parametrize("size", [100, CHUNK_ROWS])
@pytest.mark.parametrize("case", _TAIL_CASES)
def test_fit_is_chunk_invariant(case, size):
    times, w, window = _fit_case(case)
    _assert_same_fit(_fed(times, w, window, size),
                     _fed(times, w, window, len(times)))


@pytest.mark.parametrize("size", [1, 7])
@pytest.mark.parametrize("case", _TAIL_CASES)
def test_fit_is_chunk_invariant_down_to_single_rows(case, size):
    # the last 20000 window samples: fed one row at a time, the whole
    # arrays would take over a minute; 20000 single rows still pool 15
    # levels deep
    times, w, window = _fit_case(case)
    hi = int(np.searchsorted(times, window[1], "right"))
    window = (float(times[hi - 20_000]), window[1])
    times, w = times[hi - 20_005:hi + 5], w[hi - 20_005:hi + 5]
    _assert_same_fit(_fed(times, w, window, size),
                     _fed(times, w, window, len(times)))


def test_streamed_fit_is_the_array_fit():
    # the stream's chunks are fit_decay's slices, so the fits are equal
    run = README_RUN
    stream, times, w = _trajectory(*run)
    window = (run[2] / 2.0, run[2])
    fit, record = fit_tail(DdeStream(DdeConfig(d=D50, t_max=run[2])), window)
    assert fit == fit_decay(times, w, window)
    assert record.pop("integrate_s") >= 0.0 and record.pop("fit_s") >= 0.0
    # the README run keeps all but about 1.4 digits of each row
    assert 0.0 < record.pop("rounding_bound") <= 1e-12
    assert record == {"n_per": DdeConfig.n_per,
                      "n_intervals": stream.n_intervals,
                      "stride": stream.stride, "output_points": times.size,
                      "peak_abs_w": stream.peak_abs_w, "terms": stream.terms}


@pytest.mark.parametrize("window, refusal", [
    (None, None),
    # refused on construction of the fit, yet the run still goes to its end
    ((5.0, 40.0), "window start 5.0 is inside the transient"),
], ids=["default-window", "refused-window"])
def test_fit_tail_hands_on_each_chunk_and_keeps_its_record(window, refusal):
    cfg = DdeConfig(d=DimensionlessParams(kappa=10.0, W=2.0), t_max=40.0)
    _, times, w = _trajectory(10.0, 2.0, 40.0)
    seen = []
    try:
        fit, record = fit_tail(DdeStream(cfg), window, lambda t, w:
                               seen.append((t.copy(), w.copy())))
    except FitWindowError as exc:
        assert str(exc).startswith(refusal)
        record = exc.record
    else:
        assert refusal is None
        assert fit == fit_decay(times, w, (FIT_START, float(times[-1])))
    assert len(seen) == 5
    assert np.array_equal(np.concatenate([t for t, _ in seen]), times)
    assert np.array_equal(np.concatenate([c for _, c in seen]), w)
    assert set(record) == {"n_per", "n_intervals", "stride", "output_points",
                           "peak_abs_w", "terms", "rounding_bound",
                           "integrate_s", "fit_s", "handoff_s"}
    assert record["output_points"] == times.size
    assert min(record[k] for k in ("integrate_s", "fit_s", "handoff_s")) >= 0


def _long_tail():
    # 30001 samples, so fit_decay feeds them in four slices
    s = np.linspace(0.0, 100.0, 30_001)
    return s, np.exp((-2.5j - 3e-4) * s)


_WINDOW_MESSAGES = {
    "non-finite": "w is not finite inside [20.0, 100.0]; pass finite samples",
    "underflow": "|w| underflows inside the window; shorten --t-max or the "
                 "window",
    "unsorted": "times are not strictly increasing; sort them",
}


def _spoil(s, w, fault, at):
    if fault == "non-finite":
        w[at] = math.nan
    elif fault == "underflow":
        w[at] = 1e-310
    else:
        s[at], s[at + 1] = s[at + 1], s[at]


@pytest.mark.parametrize("fault", list(_WINDOW_MESSAGES))
@pytest.mark.parametrize("at", [7000, CHUNK_ROWS - 1, 25_000],
                         ids=["first-slice", "slice-boundary", "last-slice"])
def test_fit_refusal_is_the_same_in_any_slice(fault, at):
    s, w = _long_tail()
    _spoil(s, w, fault, at)
    with pytest.raises(FitWindowError) as info:
        fit_decay(s, w, (20.0, 100.0))
    assert str(info.value) == _WINDOW_MESSAGES[fault]


@pytest.mark.parametrize("faults, message", [
    # a later non-finite sample outranks an earlier underflow, an unsorted
    # pair outranks both, and too few samples outrank a bad one
    ((("underflow", 7000), ("non-finite", 25_000)), "non-finite"),
    ((("non-finite", 7000), ("unsorted", 25_000)), "unsorted"),
    ((("non-finite", 6000),), "too few"),
])
def test_fit_refusals_keep_their_precedence_across_slices(faults, message):
    s, w = _long_tail()
    for fault, at in faults:
        _spoil(s, w, fault, at)
    window = (20.0, 20.01) if message == "too few" else (20.0, 100.0)
    with pytest.raises(FitWindowError) as info:
        fit_decay(s, w, window)
    n = np.count_nonzero((s >= window[0]) & (s <= window[1]))
    assert str(info.value) == _WINDOW_MESSAGES.get(message, (
        f"only {n} samples in [20.0, 20.01]; need >= 100: widen the window "
        f"or increase --t-max"))


def test_streamed_fit_memory_does_not_grow_with_the_run():
    window = (FIT_START, 6522.0)
    _, peak = _traced_peak(fit_tail, DdeStream(DdeConfig(d=D50, t_max=6522.0)),
                           window)
    assert peak <= 1.5e6
    _, longer = _traced_peak(fit_tail, DdeStream(DdeConfig(d=D50,
                                                           t_max=13044.0)),
                             window)
    assert longer <= 1.1 * peak


# --- pole condition -------------------------------------------------------

def test_pole_residual_trivial_points():
    assert pole_check(DimensionlessParams(kappa=0.0, W=5.0), 6.0) == 1.0
    d = DimensionlessParams(kappa=2.0, W=math.pi)
    assert pole_check(d, complex(math.pi, 0.0)) <= 1e-12


def test_pole_condition_equals_characteristic_everywhere():
    rng = np.random.default_rng(11)
    for _ in range(50):
        theta = complex(rng.uniform(-5.0, 20.0), rng.uniform(-1.0, 0.5))
        f = abs(characteristic(theta, D200))
        assert abs(pole_check(D200, theta) - f) <= 1e-12 * (1.0 + f)


def test_every_converged_mode_sits_on_a_pole():
    for theta in find_modes(D200, j_min=1, j_max=4).theta.tolist():
        assert pole_check(D200, theta) <= 1e-10
