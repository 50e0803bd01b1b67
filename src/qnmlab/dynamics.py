"""Time-domain oracle: exact single-excitation dynamics of the atom amplitude.

Unfolding the mirror maps the half-line problem onto a chiral field, and the
atom amplitude w(s) (s in units of the round-trip-defining a/v_g) then obeys
the delay-differential equation

    dw/ds = -(i W + kappa/2) w(s) + (kappa/2) w(s - 2),    w(s - 2) = 0 for s < 2,

with the round trip to the mirror and back giving the delay 2. This module
integrates that DDE by the method of steps with a fixed step: within one
delay interval the equation is linear with a known forcing (the previous
interval's solution), so each step multiplies by the exact exponential of the
local part and adds the exact integral of the forcing represented by a cubic
Hermite interpolant of the history, its derivatives read off the DDE. The
scheme is therefore exact on the pre-delay segment (where w = exp(-(iW +
kappa/2) s) to rounding, from w(0) = 1) and 4th-order overall through the
cubic history; error per step only enters via the interpolation, never via
the stiff exponential.

The long-time tail of |w| decays at the slowest quasi-normal mode rate, which
is how the frequency-domain solver is cross-checked: fit_decay extracts
(omega_fit, gamma_fit) from a tail window and pole_check verifies that a
characteristic zero is a pole of the DDE's Laplace transform. DdeStream
integrates chunk by chunk and TailFit fits chunk by chunk. fit_tail runs
the two as one loop, the one time-domain run: the CLI's evolve and verify
stream through it, and evolve_atom keeps its chunks as whole arrays.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import LOG_FLOAT_MAX, DimensionlessParams

#: Round-trip delay in natural units (mirror at x=0, atom at x=1, v_g=1).
ROUND_TRIP = 2.0

#: Minimum steps per delay interval (resolves the stiff exponential).
MIN_STEPS_PER_DELAY = 200

#: Earliest tail-fit start: ten delay periods skip the direct-decay transient.
FIT_START = 10.0 * ROUND_TRIP

#: Output rows of one run, roughly (DdeStream thins in whole steps).
MAX_OUTPUT_POINTS = 400_000

#: Output rows per DdeStream chunk, and per slice fit_decay feeds TailFit.
CHUNK_ROWS = 8192

#: Largest |Re(lambda)*s| span handled in one vectorised block before the
#: running rescale kicks in (exp(400) is still comfortably inside float64).
_BLOCK_EXPONENT_CAP = 400.0

#: Delay intervals integrated between two passes of |w|, the peak guard
#: and the output thinning over all their nodes. At least 3: the interval
#: in row r reads rows r - 1 and r - 2, and row 0, which wraps round to
#: follow the last row, shares no node with it.
_RING = 3

#: Fall of the fitted ln|w| across a fit window read as rounding drift.
_FLAT_LOG_DRIFT = 1e-12


class FitWindowError(ValueError):
    """Raised when a decay-fit window is unusable.

    When raised by fit_tail (and so by evolve_atom), `record` holds the
    run's record, so its counts and seconds are not lost.
    """

    record: dict | None = None


@dataclass(frozen=True)
class DdeConfig:
    """Integration request for the atomic-amplitude DDE, from w(0) = 1."""

    d: DimensionlessParams
    t_max: float
    dt: float = 1e-3

    def __post_init__(self) -> None:
        if not math.isfinite(self.t_max) or self.t_max < FIT_START:
            raise ValueError(
                f"t_max must be >= {FIT_START} (ten delay periods), "
                f"got {self.t_max}")
        if not (0.0 < self.dt <= ROUND_TRIP / MIN_STEPS_PER_DELAY * (1 + 1e-12)):
            raise ValueError(
                f"dt must be in (0, {ROUND_TRIP / MIN_STEPS_PER_DELAY}] so the "
                f"delay period is resolved by >= {MIN_STEPS_PER_DELAY} steps, "
                f"got {self.dt}")
        step = ROUND_TRIP / self.n_per
        if self.d.kappa * step / 2.0 > LOG_FLOAT_MAX:
            raise ValueError(
                f"dt = {self.dt} is too coarse for kappa = {self.d.kappa}: "
                f"one step grows by exp(kappa*dt/2) = exp("
                f"{self.d.kappa * step / 2.0:.6g}), above the float64 range; "
                f"need kappa*dt/2 <= {LOG_FLOAT_MAX:.6g}")

    @property
    def n_per(self) -> int:
        """Steps per delay interval: dt snapped onto the delay grid."""
        return int(round(ROUND_TRIP / self.dt))


class FitResult(NamedTuple):
    """Decay parameters extracted from a tail window of |w| and arg(w)."""

    omega_fit: float
    gamma_fit: float
    fit_residual: float
    samples: int


def _exp_integrals(z: complex) -> list[complex]:
    """I_p(z) = integral_0^1 exp(-z (1 - u)) u^p du for p = 0..3.

    Small |z| uses the series I_p = sum_n (-z)^n p! / (p + n + 1)! (the direct
    recurrence cancels catastrophically there); larger |z| uses the stable
    upward recurrence I_p = (1 - p I_{p-1}) / z.
    """
    if abs(z) < 1.0:
        out = []
        for p in range(4):
            term = 1.0 / (p + 1)
            total = term
            n = 0
            while abs(term) > 1e-20 and n < 60:
                n += 1
                term *= -z / (p + n + 1)
                total += term
            out.append(total)
        return out
    i0 = (1.0 - cmath.exp(-z)) / z
    i1 = (1.0 - i0) / z
    i2 = (1.0 - 2.0 * i1) / z
    i3 = (1.0 - 3.0 * i2) / z
    return [i0, i1, i2, i3]


def _hermite_forcing_weights(z: complex, dt: float) -> tuple[complex, complex,
                                                             complex, complex]:
    """Exact step integrals of the four cubic-Hermite basis functions.

    For a step [0, dt] with the delayed history represented as the Hermite
    cubic through (w_a, d_a) and (w_b, d_b), the forcing integral
    integral_0^dt exp(-z (dt - v)/dt * ... ) H(v) dv equals
    c_wa*w_a + c_da*d_a + c_wb*w_b + c_db*d_b with the weights below.
    """
    i0, i1, i2, i3 = _exp_integrals(z)
    c_wa = dt * (2.0 * i3 - 3.0 * i2 + i0)
    c_da = dt * dt * (i3 - 2.0 * i2 + i1)
    c_wb = dt * (-2.0 * i3 + 3.0 * i2)
    c_db = dt * dt * (i3 - i2)
    return c_wa, c_da, c_wb, c_db


class DdeStream:
    """The integration of one DdeConfig, run as a stream of output chunks.

    Fixed on construction: n_per steps per delay interval of dt,
    n_intervals intervals, every stride-th step kept (thinned only in whole
    steps, to about MAX_OUTPUT_POINTS and a phase advance of at most ~pi/2)
    and rows samples up to t_max. peak_abs_w, the largest |w| over every
    node, is set once chunks() is exhausted.
    """

    def __init__(self, cfg: DdeConfig) -> None:
        self.cfg, self.n_per = cfg, cfg.n_per
        self.dt = ROUND_TRIP / self.n_per
        self.n_intervals = int(math.ceil(cfg.t_max / ROUND_TRIP - 1e-12))
        total_steps = self.n_per * self.n_intervals
        stride = max(1, int(total_steps / MAX_OUTPUT_POINTS))
        phase_rate = cfg.d.W + math.pi  # generous bound on |Re theta| of the tail
        self.stride = min(stride, max(1, int(math.pi / 2.0
                                             / (phase_rate * self.dt))))
        # only the last interval can reach past t_max
        first = (total_steps - self.n_per) // self.stride
        tail = self._times(first, total_steps // self.stride + 1)
        self.rows = first + int(tail.searchsorted(cfg.t_max + 0.5 * self.dt,
                                                  side="right"))
        self.peak_abs_w = math.nan

    def _times(self, row: int, stop: int) -> np.ndarray:
        """Times of output rows row..stop - 1, kept at every stride-th node.

        Node g > 0 is node i = g - m n_per of interval m, at time ROUND_TRIP
        m + dt i: of these integer-valued floats only dt i rounds.
        """
        g = np.arange(row * self.stride, stop * self.stride, self.stride,
                      dtype=float)
        start = np.maximum(g - 1.0, 0.0)
        start -= np.fmod(start, self.n_per)  # m n_per
        g -= start  # i
        g *= self.dt
        g += start / (self.n_per / ROUND_TRIP)  # ROUND_TRIP m
        return g

    def chunks(self):
        """Integrate the DDE, yielding (times, w) of at most CHUNK_ROWS rows.

        The chunks are views of one reused buffer. Raises RuntimeError
        after the last interval if |w| ever exceeded 1 by more than 1e-6 at
        a node: the dynamics conserve the single-excitation norm.

        Within delay interval m the step recurrence w_{k+1} = exp(-lam dt)
        w_k + b_k is solved as a cumsum: w_k = exp(-lam k dt) (w_0 +
        S_{k-1}) with S_k = sum_{j<=k} exp(lam (j+1) dt) b_j. b_k, the
        exact step integral of the cubic-Hermite history, takes its
        derivatives from the DDE, so it is alpha u_k + beta u_{k+1} +
        gamma v_k + delta v_{k+1} over the nodes u of interval m - 1 and v
        of m - 2 (v = 0 for m = 1), with alpha = (kappa/2)(c_wa - lam
        c_da), beta = (kappa/2)(c_wb - lam c_db), gamma = (kappa/2)^2 c_da
        and delta = (kappa/2)^2 c_db. The growing factor spans exp(kappa)
        over an interval, so the work is split into blocks that keep every
        intermediate below exp(400). The weights, the factor, its inverse
        (an exp, not a division) and the block spans are computed once per
        run: 7 array passes per interval and 4 per block, within 1e-13
        absolute of the same method with derivative arrays and a division.

        Each interval is written into a ring of _RING rows laid end to end
        in one array, neighbouring rows sharing the node that ends one
        interval and starts the next. Once per ring (and after the last
        interval) |w|, the peak and the kept nodes are taken over every
        node of the filled rows, so the guard sees every node.
        """
        cfg, n_per, dt, stride = self.cfg, self.n_per, self.dt, self.stride
        kappa, n_intervals = cfg.d.kappa, self.n_intervals
        lam = 1j * cfg.d.W + kappa / 2.0
        half_kappa = kappa / 2.0
        times = np.empty(CHUNK_ROWS)
        w_out = np.empty(CHUNK_ROWS, dtype=complex)

        c_wa, c_da, c_wb, c_db = _hermite_forcing_weights(lam * dt, dt)
        alpha = half_kappa * (c_wa - lam * c_da)
        beta = half_kappa * (c_wb - lam * c_db)
        gamma = half_kappa * half_kappa * c_da
        delta = half_kappa * half_kappa * c_db
        re_z = lam.real * dt
        block = n_per if re_z * n_per <= _BLOCK_EXPONENT_CAP else max(
            1, int(_BLOCK_EXPONENT_CAP / re_z))
        grow = np.exp(lam * dt * np.arange(1, block + 1))
        decay = np.exp(-lam * dt * np.arange(1, block + 1))

        # Row m % _RING holds interval m; the last row's zeros are interval -1.
        ring = np.zeros(_RING * n_per + 1, dtype=complex)
        abs_ring = np.empty(ring.size)
        rows = [ring[r * n_per:(r + 1) * n_per + 1] for r in range(_RING)]
        node_times = dt * np.arange(n_per + 1)
        rows[0][:] = np.exp(-lam * node_times)  # interval 0: closed form
        # Products never overwrite an operand: numpy's in-place multiply of a
        # one-element array can round differently from the out-of-place one.
        acc = np.empty(n_per, dtype=complex)
        b = np.empty(n_per, dtype=complex)
        edges = [*range(0, n_per, block), n_per]
        spans = [(acc[k0:k1], b[k0:k1], grow[:k1 - k0], decay[:k1 - k0],
                  k0 + 1, k1 + 1) for k0, k1 in zip(edges, edges[1:])]
        # rows done are yielded; the open chunk holds fill rows
        w_out[0] = 1.0
        done, fill, peak = 0, 1, 0.0

        for m in range(1, n_intervals):
            r = m % _RING
            w_prev, w_back, w_cur = rows[r - 1], rows[r - 2], rows[r]
            # b_k first: row r ends on w_back's node 0 unless r is the last row
            np.multiply(alpha, w_prev[:-1], out=acc)
            np.multiply(beta, w_prev[1:], out=b)
            np.add(acc, b, out=acc)
            np.multiply(gamma, w_back[:-1], out=b)
            np.add(acc, b, out=acc)
            np.multiply(delta, w_back[1:], out=b)
            np.add(acc, b, out=b)

            w_cur[0] = w_run = w_prev[-1]  # a copy only where row 0 wraps
            for part, forcing, up, down, lo, hi in spans:
                np.multiply(forcing, up, out=part)
                np.add.accumulate(part, out=part)
                np.add(w_run, part, out=part)
                np.multiply(part, down, out=w_cur[lo:hi])
                w_run = w_cur[hi - 1]

            if r == _RING - 1 or m == n_intervals - 1:
                # rows 0..r hold intervals m - r..m; node 0 of row 0 was kept
                # (or is w(0)) with the previous block
                nodes = ring[:(r + 1) * n_per + 1]
                # np.maximum, unlike max(), keeps a NaN peak, which fails the
                # guard.
                peak = np.maximum(peak, np.maximum.reduce(
                    np.abs(nodes, out=abs_ring[:nodes.size])))
                kept = nodes[-(m - r) * n_per % stride or stride::stride]
                kept = kept[:self.rows - done - fill]
                while kept.size:
                    take = min(kept.size, CHUNK_ROWS - fill)
                    w_out[fill:fill + take] = kept[:take]
                    kept, fill = kept[take:], fill + take
                    if fill == CHUNK_ROWS or done + fill == self.rows:
                        times[:fill] = self._times(done, done + fill)
                        yield times[:fill], w_out[:fill]
                        done, fill = done + fill, 0

        if not peak <= 1.0 + 1e-6:
            raise RuntimeError(
                f"|w| reached {peak}, above the single-excitation bound; "
                f"integration convention bug")
        self.peak_abs_w = float(peak)


def _pool(a: tuple, b: tuple) -> tuple:
    """Pool the line fits (n, mean s, mean ln|w|, centred sum of s^2, slope,
    residual sum of squares, sum of phase rates) of samples a before b.

    The centred sums merge as Chan, Golub and LeVeque's pairwise update
    (Am. Stat. 37 (1983) 242); the residual sum grows by the weighted
    spread of the slopes about the pooled one, which cannot cancel.
    """
    na, sa, ea, ca, ba, ra, pa = a
    nb, sb, eb, cb, bb, rb, pb = b
    n = na + nb
    h, ds, de = na * nb / n, sb - sa, eb - ea
    css = ca + cb + h * ds * ds
    slope = (ca * ba + cb * bb + h * ds * de) / css
    rss = (ra + rb + ca * (ba - slope) ** 2 + cb * (bb - slope) ** 2
           + h * (de - slope * ds) ** 2)
    return n, sa + ds * nb / n, ea + de * nb / n, css, slope, rss, pa + pb


class TailFit:
    """fit_decay's tail fit, fed chunk by chunk in time order.

    result() returns the FitResult of every sample fed, or raises the
    FitWindowError of the first refusal in fit_decay's order, an unusable
    window first: it is refused there, not on construction, so a run fed
    to a refused window still runs to its end. Each window slice gets its
    own centred line fit; the fits pool in pairs like a binary counter, so
    rounding grows with the log of the chunk count.
    """

    def __init__(self, window: tuple[float, float]) -> None:
        s0, s1 = float(window[0]), float(window[1])
        self._refused = (
            f"window start {s0} is inside the transient; need >= {FIT_START}"
            if s0 < FIT_START * (1 - 1e-12) else
            f"empty window [{s0}, {s1}]; end the window after its start"
            if not s0 < s1 else "")
        self.window, self.samples, self._last = (s0, s1), 0, -math.inf
        self._carry: tuple | None = None  # (phase, s) of the last sample fitted
        self._unsorted = self._non_finite = False
        self._underflow = ""  # where |w| first underflows, and the remedy
        self._fits: list[tuple[int, tuple]] = []  # (level, pooled fit)

    def feed(self, times: np.ndarray, w: np.ndarray) -> None:
        if self._refused or self._unsorted or not len(times):
            return
        if not times[0] > self._last or not (times[1:] > times[:-1]).all():
            self._unsorted = True
            return
        self._last = times[-1]
        lo, hi = times.searchsorted(self.window[0]), times.searchsorted(
            self.window[1], "right")
        if lo == hi:
            return
        s, w, n = times[lo:hi], w[lo:hi], int(hi - lo)
        if not self.samples:
            self._first = s[0]
        self.samples += n
        if self._non_finite or not np.isfinite(w).all():
            self._non_finite = True
            return
        log_amp = np.abs(w)
        if self._underflow or log_amp.min() < 1e-300:
            self._underflow = self._underflow or (
                f"already at the window's first sample, s = {s[0]}; try a "
                f"smaller --kappa" if self.samples == n and log_amp[0] < 1e-300
                else "inside the window; shorten --t-max or the window")
            return
        np.log(log_amp, out=log_amp)
        s_mean, e_mean = float(s.sum()) / n, float(log_amp.sum()) / n
        log_amp -= e_mean
        centred = s - s_mean
        css = float(np.dot(centred, centred))
        slope = float(np.dot(centred, log_amp)) / css if n > 1 else 0.0
        log_amp -= np.multiply(centred, slope, out=centred)
        rss = float(np.dot(log_amp, log_amp))
        # minus each step of arg w, less its nearest multiple of 2 pi, per
        # unit s; a later slice's first step starts from the last sample of
        # the slice before it
        phase = np.arctan2(w.imag, w.real)
        k = 0 if self._carry else 1
        prev_phase, prev_s = self._carry or (0.0, 0.0)
        self._carry = phase[-1], s[-1]
        step = -np.diff(phase, prepend=prev_phase)[k:]
        step -= np.rint(step / (2.0 * math.pi)) * (2.0 * math.pi)
        step /= np.diff(s, prepend=prev_s)[k:]
        fit = n, s_mean, e_mean, css, slope, rss, float(step.sum())
        level = 0
        while self._fits and self._fits[-1][0] == level:
            fit, level = _pool(self._fits.pop()[1], fit), level + 1
        self._fits.append((level, fit))

    def result(self) -> FitResult:
        (s0, s1), n = self.window, self.samples
        for refused, message in (
                (self._refused, self._refused),
                (self._unsorted, "times are not strictly increasing; sort them"),
                (n < 100, f"only {n} samples in [{s0}, {s1}]; need >= 100: "
                          f"widen the window or increase --t-max"),
                (self._non_finite, f"w is not finite inside [{s0}, {s1}]; "
                                   f"pass finite samples"),
                (self._underflow, f"|w| underflows {self._underflow}")):
            if refused:
                raise FitWindowError(message)
        fit = self._fits[-1][1]
        for _, earlier in reversed(self._fits[:-1]):
            fit = _pool(earlier, fit)
        gamma, rss, rates = -fit[4], fit[5], fit[6]
        if gamma <= -1e-10:
            raise FitWindowError(
                f"window shows amplitude growth (gamma = {gamma}); not a "
                f"decay tail: increase --t-max or pass a later "
                f"--fit-start/--fit-end")
        if gamma * (self._carry[1] - self._first) <= _FLAT_LOG_DRIFT:
            gamma = 0.0
        return FitResult(rates / (n - 1), gamma, math.sqrt(rss / n), n)


def fit_decay(times: np.ndarray, w: np.ndarray,
              window: tuple[float, float]) -> FitResult:
    """Fit ln|w| to a line and the phase slope over a window, in closed form.

    The window is the slice of times (strictly increasing) between two binary
    searches. gamma_fit is minus the least-squares slope of ln|w|, the sum of
    centred s times centred ln|w| over the sum of centred s squared (no
    LAPACK), 0 for rounding drift (a fall by at most _FLAT_LOG_DRIFT across
    the samples or a rise slower than 1e-10); fit_residual is the RMS
    deviation from that line; omega_fit is the mean of -d(arg w)/ds, each
    step of arg w less its nearest multiple of 2 pi (DdeStream keeps the
    steps below ~pi/2); samples counts the window. The window must start at
    or after FIT_START (skipping the direct-decay transient) and hold at
    least 100 finite samples with |w| >= 1e-300; each refusal names its
    remedy. The arrays are fed to a TailFit in CHUNK_ROWS-row slices.
    """
    fit = TailFit(window)
    for k in range(0, len(times), CHUNK_ROWS):
        fit.feed(times[k:k + CHUNK_ROWS], w[k:k + CHUNK_ROWS])
    return fit.result()


def fit_tail(cfg: DdeConfig, window: tuple[float, float] | None = None,
             consume=None) -> tuple[FitResult, dict]:
    """fit_decay of one DDE run, fed chunk by chunk, never holding the run.

    window defaults to [FIT_START, last sample time].
    consume(times, w), if given, gets each chunk after the fit has read it,
    as views of buffers the next chunk reuses. Returns the FitResult and
    the run's record, evolve's manifest `dde` block: n_per, n_intervals,
    stride, output_points, peak_abs_w and the wall seconds fit_s and
    integrate_s, plus, with consume, handoff_s, the seconds spent in it;
    integrate_s is the loop's time less fit_s and handoff_s. A refused fit
    raises its FitWindowError after the run, with the record in `record`.
    """
    stream = DdeStream(cfg)
    if window is None:
        window = (FIT_START, float(stream._times(stream.rows - 1,
                                                  stream.rows)[0]))
    fit, fit_s, handoff_s = TailFit(window), 0.0, 0.0
    start = time.perf_counter()
    for chunk in stream.chunks():
        mark = time.perf_counter()
        fit.feed(*chunk)
        fed = time.perf_counter()
        fit_s += fed - mark
        if consume is not None:
            consume(*chunk)
            handoff_s += time.perf_counter() - fed
    mark = time.perf_counter()
    record = {"n_per": stream.n_per, "n_intervals": stream.n_intervals,
              "stride": stream.stride, "output_points": stream.rows,
              "peak_abs_w": stream.peak_abs_w,
              "integrate_s": mark - start - fit_s - handoff_s, "fit_s": fit_s}
    if consume is not None:
        record["handoff_s"] = handoff_s
    try:
        return fit.result(), record
    except FitWindowError as exc:
        exc.record = record
        raise
    finally:
        # the returned or raised record is this dict, so it gets the result
        # step too
        record["fit_s"] += time.perf_counter() - mark


class Evolution(NamedTuple):
    """An evolve_atom run: w on the output grid, its fit and its record."""

    times: np.ndarray
    w: np.ndarray
    fit: FitResult
    record: dict


def evolve_atom(cfg: DdeConfig, fit_window: tuple[float, float] | None = None
                ) -> Evolution:
    """fit_tail of cfg, keeping each chunk in arrays of the run's rows.

    The record's handoff_s is the seconds spent copying the chunks. A
    refused fit raises fit_tail's FitWindowError, which carries the record.
    """
    rows = DdeStream(cfg).rows
    times, w, done = np.empty(rows), np.empty(rows, dtype=complex), 0

    def keep(t: np.ndarray, chunk: np.ndarray) -> None:
        nonlocal done
        times[done:done + len(t)], w[done:done + len(t)] = t, chunk
        done += len(t)

    return Evolution(times, w, *fit_tail(cfg, fit_window, keep))


def pole_check(d: DimensionlessParams, theta: complex) -> float:
    """Residual of the DDE pole condition at theta.

    The Laplace transform of the DDE has poles where
    i (W - theta) + (kappa/2)(1 - exp(2 i theta)) = 0, which is algebraically
    -i f(theta) for the characteristic function f, so this residual equals
    |f(theta)| identically; evaluating it through the DDE expression keeps
    the two routes independent.
    """
    return abs(1j * (d.W - theta)
               + 0.5 * d.kappa * (1.0 - cmath.exp(2j * theta)))
