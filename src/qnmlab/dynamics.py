"""Time-domain oracle: exact single-excitation dynamics of the atom amplitude.

Unfolding the mirror maps the half-line problem onto a chiral field, and the
atom amplitude w(s) (s in units of the round-trip-defining a/v_g) then obeys
the delay-differential equation

    dw/ds = -(i W + kappa/2) w(s) + (kappa/2) w(s - 2),    w(s - 2) = 0 for s < 2,

with the round trip to the mirror and back giving the delay 2. Expanding
its Laplace transform in powers of the delay factor exp(-2p) solves it
exactly from w(0) = 1:

    w(s) = sum_{n=0}^{floor(s/2)} P(n; kappa (s - 2n)/2) exp(-i W (s - 2n)),

where P(n; lam) = lam^n exp(-lam)/n! is a Poisson weight and term n is the
photon's n-th return from the mirror (P. W. Milonni and P. L. Knight, PRA
10 (1974) 1096; T. Tufarelli, F. Ciccarello and M. S. Kim, PRA 87 (2013)
013820). DdeStream sums the series on the output rows only, with no step
between them. The rows thin one grid that every run shares, DdeConfig's
2000 nodes of 1e-3 per delay interval, and each row needs just the band
of terms within e^-40 of its largest, about 20 of them on the README run
(more at weak coupling, fewer at strong, growing like the root of s).
No term exceeds 1 in modulus, so nothing overflows, and eps * sum|terms|
/ |w| bounds the rounding of every row. That bound grows like exp(gamma s)
once |w| decays.

The long-time tail of |w| decays at the slowest quasi-normal mode rate, which
is how the frequency-domain solver is cross-checked: fit_decay extracts
(omega_fit, gamma_fit) from a tail window and pole_check verifies that a
characteristic zero is a pole of the DDE's Laplace transform. DdeStream
sums the series chunk by chunk and TailFit fits chunk by chunk. fit_tail
runs the two as one loop, the one time-domain run: the CLI's evolve and
verify stream through it, and evolve_atom keeps its chunks as whole arrays.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from .model import DimensionlessParams

#: Round-trip delay in natural units (mirror at x=0, atom at x=1, v_g=1).
ROUND_TRIP = 2.0

#: Earliest tail-fit start: ten delay periods skip the direct-decay transient.
FIT_START = 10.0 * ROUND_TRIP

#: Fewest window samples a tail fit accepts.
MIN_FIT_SAMPLES = 100

#: Output rows of one run, roughly (DdeStream thins in whole grid nodes).
MAX_OUTPUT_POINTS = 400_000

#: Most output rows of a run, which only the stride's phase cap can reach.
MAX_ROWS = 1_000_000

#: Output rows per DdeStream chunk, and per slice fit_decay feeds TailFit.
CHUNK_ROWS = 8192

#: Largest rounding bound eps * sum|terms| / |w| a tail fit accepts: past
#: it w keeps its absolute accuracy but not the relative one ln|w| needs.
MAX_ROUNDING_BOUND = 1e-8

#: A row sums the terms within e^-_BAND_LOG of its largest.
_BAND_LOG = 40.0

#: Band terms summed per block of rows: a block is max(1, _BLOCK_TERMS //
#: size) rows of size terms, so its three scratch arrays and its mask hold
#: _BLOCK_TERMS values at most (or one row).
_BLOCK_TERMS = 12288

#: n ln n - n - ln n! for n < 16, where the Stirling series is not yet exact.
_LOW_LOG_SCALE = np.array([0.0] + [n * math.log(n) - n - math.lgamma(n + 1)
                                   for n in range(1, 16)])

#: Fall of the fitted ln|w| across a fit window read as rounding drift.
_FLAT_LOG_DRIFT = 1e-12

_EPS = float(np.finfo(float).eps)


class FitWindowError(ValueError):
    """Raised when a decay-fit window is unusable.

    When raised by fit_tail (and so by evolve_atom), `record` holds the
    run's record, so its counts and seconds are not lost.
    """

    record: dict | None = None


@dataclass(frozen=True)
class DdeConfig:
    """A run of the atomic-amplitude DDE from w(0) = 1, up to t_max.

    Every run shares one output grid: n_per nodes of spacing dt per delay
    interval, which tile the interval exactly (n_per * dt == ROUND_TRIP).
    """

    d: DimensionlessParams
    t_max: float
    dt: ClassVar[float] = 1e-3
    n_per: ClassVar[int] = 2000

    def __post_init__(self) -> None:
        if not math.isfinite(self.t_max) or self.t_max < FIT_START:
            raise ValueError(
                f"t_max must be >= {FIT_START} (ten delay periods), "
                f"got {self.t_max}")


class FitResult(NamedTuple):
    """Decay parameters extracted from a tail window of |w| and arg(w)."""

    omega_fit: float
    gamma_fit: float
    fit_residual: float
    samples: int


def _log_scale(lo: int, hi: int) -> np.ndarray:
    """c(n) = n ln n - n - ln n! for n = lo..hi - 1, with c(0) = 0.

    It is -ln(2 pi n)/2 less the Stirling error ln n! - (n + 1/2) ln n + n
    - ln(2 pi)/2, whose series 1/12n - 1/360n^3 + 1/1260n^5 - 1/1680n^7 +
    1/1188n^9 is exact to rounding from n = 16 on (C. Loader, "Fast and
    accurate computation of binomial probabilities", 2000).
    """
    n = np.arange(max(lo, 16), max(hi, 16), dtype=float)
    inv2 = 1.0 / (n * n)
    series = (1 / 12 - inv2 * (1 / 360 - inv2 * (1 / 1260 - inv2 * (
        1 / 1680 - inv2 / 1188)))) / n
    return np.concatenate((_LOW_LOG_SCALE[lo:hi],
                           -0.5 * np.log(2.0 * math.pi * n) - series))


class DdeStream:
    """The exact series of one DdeConfig, summed as a stream of output chunks.

    Fixed on construction: stride, the grid nodes between rows, at most
    max_stride and at most a phase advance of ~pi/2 (max_stride defaults
    to about n_intervals n_per / MAX_OUTPUT_POINTS, so that a run from 0
    has about MAX_OUTPUT_POINTS rows); the rows, every stride-th node of
    DdeConfig's grid over n_intervals delay intervals from the first at or
    after start (row index first) up to t_max, at most MAX_ROWS of them
    (else ValueError, as for no row at all); and end, the last row's time.
    Set once chunks() is exhausted: peak_abs_w, the largest |w| over the
    rows, and terms, the number of band terms summed.
    """

    def __init__(self, cfg: DdeConfig, start: float = 0.0,
                 max_stride: float | None = None) -> None:
        self.cfg, n_per, dt = cfg, cfg.n_per, cfg.dt
        self.n_intervals = int(math.ceil(cfg.t_max / ROUND_TRIP - 1e-12))
        total_steps = n_per * self.n_intervals
        if max_stride is None:
            max_stride = max(1, int(total_steps / MAX_OUTPUT_POINTS))
        phase_rate = cfg.d.W + math.pi  # generous bound on |Re theta| of the tail
        self.stride = max(1, int(min(max_stride, math.pi / 2.0
                                     / (phase_rate * dt))))
        # row r is at r stride dt to rounding: the first at or after start
        # is one of three
        guess = max(0, int(start / (self.stride * dt)) - 1)
        self.first = guess + int(self._times(guess, guess + 3).searchsorted(
            start))
        over = float(self._times(self.first + MAX_ROWS,
                                 self.first + MAX_ROWS + 1)[0])
        if over <= cfg.t_max + 0.5 * dt:  # row MAX_ROWS is kept: one too many
            raise ValueError(
                f"t_max = {cfg.t_max:g} needs over {MAX_ROWS} rows at W = "
                f"{cfg.d.W:g}; the largest --t-max that fits is "
                f"{math.ceil(over - 0.5 * dt) - 1}")
        # only the last interval can reach past t_max
        lo = max(self.first, (total_steps - n_per) // self.stride)
        tail = self._times(lo, total_steps // self.stride + 1)
        stop = lo + int(tail.searchsorted(cfg.t_max + 0.5 * dt, side="right"))
        self.rows = stop - self.first
        if self.rows < 1:
            raise ValueError(f"no output row in [{start:g}, {cfg.t_max:g}]")
        self.end = float(tail[stop - lo - 1])
        self.peak_abs_w, self.terms = math.nan, 0

    def _times(self, row: int, stop: int) -> np.ndarray:
        """Times of output rows row..stop - 1, kept at every stride-th node.

        Node g is node g % n_per of interval g // n_per, at time ROUND_TRIP
        (g // n_per) + dt (g % n_per), in which only the second product
        rounds. As n_per dt == ROUND_TRIP exactly, that is to the bit the
        time of node n_per of the interval before.
        """
        n_per = self.cfg.n_per
        g = np.arange(row * self.stride, stop * self.stride, self.stride)
        return ROUND_TRIP * (g // n_per) + self.cfg.dt * (g % n_per)

    def chunks(self):
        """Sum the series on the rows, yielding (times, w, abs_sum) of at
        most CHUNK_ROWS rows, abs_sum holding each row's sum|terms|.

        w and abs_sum are views of reused buffers. Raises RuntimeError
        after the last chunk if |w| exceeded 1 by more than 1e-6 on a row:
        the dynamics conserve the single-excitation norm. Only the rows are
        checked: a stream from a later start sums none before it.
        """
        w_out = np.empty(CHUNK_ROWS, dtype=complex)
        abs_sum = np.empty(CHUNK_ROWS)
        peak = 0.0
        self.terms = 0
        stop = self.first + self.rows
        for done in range(self.first, stop, CHUNK_ROWS):
            times = self._times(done, min(done + CHUNK_ROWS, stop))
            n = times.size
            self._sum(times, w_out[:n], abs_sum[:n])
            # np.maximum, unlike max(), keeps a NaN peak, which fails the
            # guard.
            peak = np.maximum(peak, np.maximum.reduce(np.abs(w_out[:n])))
            yield times, w_out[:n], abs_sum[:n]
        if not peak <= 1.0 + 1e-6:
            raise RuntimeError(
                f"|w| reached {peak}, above the single-excitation bound; "
                f"series convention bug")
        self.peak_abs_w = float(peak)

    def _sum(self, s: np.ndarray, w: np.ndarray, abs_sum: np.ndarray) -> None:
        """w and sum|terms| of the rows at times s.

        Each row sums the terms n = n0 + k, k < size, of a band about the
        largest term n* = kappa s / (2 (1 + kappa)). ln P falls like -(1 +
        kappa)^2 (n - n*)^2 / (2 n*) about it, so the band reaches
        sqrt(2 _BAND_LOG n*) / (1 + kappa) to either side, plus 2 for the
        skew at small n*, at the last row's n*. Term n has tau = s - 2n
        (exact in floats), lam = kappa tau / 2 and ln P(n; lam) = c(n) -
        bd0 with bd0 = n log1p(d / lam) - d and d = n - lam, Loader's
        saddle-point form, in which no large logarithms cancel. Its phase
        is exp(-i W tau0) exp(2 i W k) with tau0 = s - 2 n0, so one product
        of the moduli with [cos 2Wk, sin 2Wk, 1] sums the terms and their
        moduli. Every block is masked: term 0 is exp(-lam), and any other
        term with lam <= 0, lam = inf (at a huge kappa) or a d / lam that
        rounds to -1 (lam past about 2^52 n, where the weight underflows)
        is 0.
        """
        kappa, W = self.cfg.d.kappa, self.cfg.d.W
        half, centre = kappa / 2.0, kappa / (2.0 * (1.0 + kappa))
        reach = math.sqrt(2.0 * _BAND_LOG * centre * float(s[-1])) / (
            1.0 + kappa) + 2.0
        size = math.ceil(2.0 * reach) + 2
        k = np.arange(size, dtype=float)
        table = np.ones((size, 3))
        table[:, 0], table[:, 1] = np.cos(2.0 * W * k), np.sin(2.0 * W * k)
        two_k = 2.0 * k
        # row j of bands is c(first + j), ..., c(first + j + size - 1)
        first = max(0, math.floor(centre * float(s[0]) - reach))
        c = _log_scale(first, max(first, math.floor(
            centre * float(s[-1]) - reach)) + size)
        bands = np.lib.stride_tricks.as_strided(
            c, (c.size - size + 1, size), 2 * c.strides, writeable=False)
        per = max(1, _BLOCK_TERMS // size)
        # freed on return, so that the consumer's scratch and this never
        # add up
        scratch = np.empty(3 * per * size)
        dropped = np.empty(per * size, dtype=bool)
        sums, phase = np.empty((per, 3)), np.empty(per, dtype=complex)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for lo in range(0, s.size, per):
                rows = min(per, s.size - lo)
                lam, log_p, n = (
                    scratch[j * per * size:(j * per + rows) * size].reshape(
                        rows, size) for j in range(3))
                drop = dropped[:rows * size].reshape(rows, size)
                t = s[lo:lo + rows]
                n0 = np.floor(t * centre - reach)
                np.maximum(n0, 0.0, out=n0)
                tau0 = t - 2.0 * n0
                np.subtract(tau0[:, None], two_k, out=lam)
                lam *= half
                np.add(n0[:, None], k, out=n)
                np.subtract(n, lam, out=log_p)  # d
                np.divide(log_p, lam, out=lam)
                # lam < 0, lam = inf or lam > ~2^52 n
                np.logical_not(np.greater(lam, -1.0, out=drop), out=drop)
                np.log1p(lam, out=lam)
                lam *= n
                log_p -= lam
                # mode "clip" writes straight into n, where "raise" would
                # buffer
                np.take(bands, (n0 - first).astype(np.intp), axis=0, out=n,
                        mode="clip")
                log_p += n
                np.copyto(log_p, -math.inf, where=drop)
                zero = int(n0.searchsorted(0.0, side="right"))  # n0 rises
                log_p[:zero, 0] = n[:zero, 0] - half * t[:zero]
                np.exp(log_p, out=log_p)
                np.matmul(log_p, table, out=sums[:rows])
                part = w[lo:lo + rows]
                part.real, part.imag = sums[:rows, 0], sums[:rows, 1]
                np.multiply(tau0, -1j * W, out=phase[:rows])
                part *= np.exp(phase[:rows], out=phase[:rows])
                abs_sum[lo:lo + rows] = sums[:rows, 2]
        self.terms += s.size * size


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
    rounding grows with the log of the chunk count. Fed each row's
    sum|terms| as abs_sum, it keeps rounding_bound, the largest eps *
    abs_sum / |w| over the window rows it fits, and refuses a window where
    that passes MAX_ROUNDING_BOUND.
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
        self.rounding_bound = 0.0
        self._fits: list[tuple[int, tuple]] = []  # (level, pooled fit)

    def feed(self, times: np.ndarray, w: np.ndarray,
             abs_sum: np.ndarray | None = None) -> None:
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
        if abs_sum is not None:
            self.rounding_bound = max(self.rounding_bound, _EPS * float(
                np.maximum.reduce(abs_sum[lo:hi] / log_amp)))
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
                (n < MIN_FIT_SAMPLES,
                 f"only {n} samples in [{s0}, {s1}]; need >= "
                 f"{MIN_FIT_SAMPLES}: widen the window or increase --t-max"),
                (self._non_finite, f"w is not finite inside [{s0}, {s1}]; "
                                   f"pass finite samples"),
                (self._underflow, f"|w| underflows {self._underflow}"),
                (self.rounding_bound > MAX_ROUNDING_BOUND,
                 f"the series' rounding bound eps*sum|terms|/|w| reaches "
                 f"{self.rounding_bound:.3g} in [{s0}, {s1}], above "
                 f"{MAX_ROUNDING_BOUND:g}: |w| has decayed too far to keep "
                 f"the relative accuracy ln|w| needs; end the window "
                 f"earlier or shorten --t-max")):
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
    least MIN_FIT_SAMPLES finite samples with |w| >= 1e-300; each refusal
    names its remedy. The arrays feed a TailFit in CHUNK_ROWS-row slices.
    """
    fit = TailFit(window)
    for k in range(0, len(times), CHUNK_ROWS):
        fit.feed(times[k:k + CHUNK_ROWS], w[k:k + CHUNK_ROWS])
    return fit.result()


def fit_tail(stream: DdeStream, window: tuple[float, float] | None = None,
             consume=None) -> tuple[FitResult, dict]:
    """fit_decay of the stream's run, fed chunk by chunk, never holding it.

    window defaults to [FIT_START, stream.end]; an empty default, or one of
    fewer than MIN_FIT_SAMPLES samples, names only --t-max as its remedy:
    it grows with the run alone. The fit reads only the stream's rows, so
    on a stream from a later start the default fits [start, end]. It reads
    each chunk's times, w and sum|terms|; consume(times, w), if given, gets
    the chunk after it, as views of buffers the next chunk reuses. Returns
    the FitResult and the run's record, evolve's manifest `dde` block:
    n_per, n_intervals, stride, output_points (the rows summed), their
    peak_abs_w and terms, the fit's rounding_bound and the wall seconds
    fit_s and integrate_s, plus, with consume, handoff_s, the seconds spent
    in it; integrate_s is the loop's time less fit_s and handoff_s. A
    refused fit raises its FitWindowError after the run, with the record
    in `record`.
    """
    fit = TailFit((FIT_START, stream.end) if window is None else window)
    fit_s = handoff_s = 0.0
    start = time.perf_counter()
    for times, w, abs_sum in stream.chunks():
        mark = time.perf_counter()
        fit.feed(times, w, abs_sum)
        fed = time.perf_counter()
        fit_s += fed - mark
        if consume is not None:
            consume(times, w)
            handoff_s += time.perf_counter() - fed
    mark = time.perf_counter()
    record = {"n_per": stream.cfg.n_per, "n_intervals": stream.n_intervals,
              "stride": stream.stride, "output_points": stream.rows,
              "peak_abs_w": stream.peak_abs_w, "terms": stream.terms,
              "rounding_bound": fit.rounding_bound,
              "integrate_s": mark - start - fit_s - handoff_s, "fit_s": fit_s}
    if consume is not None:
        record["handoff_s"] = handoff_s
    try:
        if window is None and fit.samples < MIN_FIT_SAMPLES:
            why = (f"only {fit.samples} samples in [{FIT_START}, "
                   f"{stream.end}]; need >= {MIN_FIT_SAMPLES}"
                   if FIT_START < stream.end else
                   f"empty window [{FIT_START}, {stream.end}]: the run ends "
                   f"at the earliest fit start")
            raise FitWindowError(f"{why}; increase --t-max")
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
    stream = DdeStream(cfg)
    times, w = np.empty(stream.rows), np.empty(stream.rows, dtype=complex)
    done = 0

    def keep(t: np.ndarray, chunk: np.ndarray) -> None:
        nonlocal done
        times[done:done + len(t)], w[done:done + len(t)] = t, chunk
        done += len(t)

    return Evolution(times, w, *fit_tail(stream, fit_window, keep))


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
