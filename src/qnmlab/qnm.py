"""Quasi-normal mode solver for the atom-terminated half-waveguide.

A photon of dimensionless energy theta sees the atom as a semi-transparent
mirror at x = 1 and the hard mirror at x = 0; the emergent cavity between
them supports leaky modes at the complex zeros of the characteristic function

    f(theta) = kappa * sin(theta) * exp(i theta) - (W - theta),

which is entire, so standard Newton iteration and argument-principle counting
apply without branch-cut bookkeeping. (The transcendental form
tan(theta) = 1 / (kappa/(W - theta) + i) has the same zeros: multiplying it
through by (W - theta) * cos(theta) * exp(i theta) gives f up to a factor
that never vanishes; both forms are tested against each other.) The
derivative is closed-form:

    f'(theta) = kappa * exp(2 i theta) + 1.

For kappa > 1 an expansion of f around theta = j*pi gives the analytic seed

    theta_seed = j*pi + (W - j*pi)(kappa - 1)/kappa**2
                 - i (W - j*pi)**2 / kappa**2,

accurate to O(1/kappa**3), from which Newton converges in a handful of steps.

Sign convention: a mode energy is theta = omega - i*gamma, so a decaying
mode has Im(theta) < 0, gamma = -Im(theta) >= 0 is its decay rate and the
time dependence is exp(-i theta s) = exp(-i omega s) exp(-gamma s).
W = j*pi puts a zero exactly at theta = j*pi (the photon decouples and the
lifetime diverges).

Every root search (one mode, a spectrum, a sweep over W, the slowest mode,
the complex-W emission root) runs through one batched kernel, newton_roots,
and returns columns: a spectrum is one Modes, a sweep one Sweep. refine_root
and slowest_mode return a one-row Modes whose fields are Python scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import DEFAULT_TOL
from .model import DimensionlessParams

#: Modes with |Im theta| below this are reported as non-decaying (infinite
#: lifetime): the bound-state-in-continuum marker.
BOUND_STATE_IM_CUTOFF = 1e-14

#: Newton steps an element may take before it stops unconverged.
MAX_NEWTON_STEPS = 50

#: Largest level spacing W whose modes get an index: indices up to
#: round(W/pi) = 2**62 leave room for j + 1 in int64.
MAX_W = math.pi * 2.0 ** 62

LOW_ENERGY_NOTE = "low-energy regime (j <= 0), physical validity uncertain"


class ApproximationRangeError(ValueError):
    """Raised when inputs are outside the validity range of the seed formula."""


class ContourError(RuntimeError):
    """Raised when an argument-principle contour cannot be certified."""


@dataclass(frozen=True)
class ContourBox:
    """Axis-aligned rectangle in the complex theta plane."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self) -> None:
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError(f"degenerate contour box {self}")

    def inflated(self) -> "ContourBox":
        cre = 0.5 * (self.re_min + self.re_max)
        cim = 0.5 * (self.im_min + self.im_max)
        hre = 0.5 * (self.re_max - self.re_min) * 1.01
        him = 0.5 * (self.im_max - self.im_min) * 1.01
        return ContourBox(cre - hre, cre + hre, cim - him, cim + him)


class Modes(NamedTuple):
    """Refined roots as equal-length columns, one row per root.

    j           mode index, round(Re(theta)/pi)
    theta       complex mode energy
    residual    |f(theta)| at the returned point
    iterations  Newton iterations consumed
    converged   True when residual met the tolerance and radius is proved
    note        metadata flag, e.g. for the uncertain j <= 0 branch
    radius      of a disc about theta holding exactly one zero of f (see
                newton_roots); nan (the default) where none was proved
    """

    j: np.ndarray
    theta: np.ndarray
    residual: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    note: np.ndarray
    radius: np.ndarray = math.nan


class Sweep(NamedTuple):
    """A sweep over the level spacing W as columns; nan marks a gap."""

    w: np.ndarray
    im_theta_min: np.ndarray
    j_used: np.ndarray
    converged: np.ndarray
    note: np.ndarray


class CharacteristicParams(NamedTuple):
    """kappa and a level spacing W that is complex (W - i*gamma_ext, the
    emission route) or an array (one W per root, a sweep)."""

    kappa: float
    W: complex | np.ndarray


def characteristic(theta, d: DimensionlessParams | CharacteristicParams):
    """Evaluate f(theta) = kappa sin(theta) e^{i theta} - (W - theta).

    theta may be a scalar or an array; d.W may be complex, or an array
    broadcasting against theta.
    """
    return d.kappa * np.sin(theta) * np.exp(1j * theta) - (d.W - theta)


def characteristic_derivative(theta,
                              d: DimensionlessParams | CharacteristicParams):
    """Evaluate f'(theta) = kappa e^{2 i theta} + 1 (scalar or array theta)."""
    return d.kappa * np.exp(2j * theta) + 1.0


def seed_mode(j, d: DimensionlessParams | CharacteristicParams):
    """Analytic seed for the mode near theta = j*pi. Requires kappa > 1.

    j may be an integer array, and d.W complex or an array broadcasting
    against it.
    """
    if d.kappa <= 1.0:
        raise ApproximationRangeError(
            f"seed formula needs kappa > 1 (atom more reflective than "
            f"transparent), got kappa = {d.kappa}")
    kappa = d.kappa
    delta = d.W - j * math.pi
    # Real divisions only for real W: numpy's complex division rounds
    # differently from Python's, and a seed must not depend on whether it
    # was computed alone or in an array.
    return (j * math.pi + delta * (kappa - 1.0) / kappa**2
            - 1j * (delta * delta / kappa**2))


def _rounding_error(d: DimensionlessParams | CharacteristicParams, grow, z):
    """E = 16 eps of the terms of |f(z)|, |f'(z)| (grow = |kappa e^{2iz}|):
    complex sin and exp are off by 2 ulp a part, so f, f' by < 5 eps."""
    return 2.0 ** -48 * (grow + d.kappa + np.abs(d.W) + np.abs(z) + 1.0)


def newton_roots(seeds, d: DimensionlessParams | CharacteristicParams,
                 tol: float = DEFAULT_TOL) -> tuple[np.ndarray, ...]:
    """Newton iteration on f from every seed at once, and a proof per root.

    seeds is a scalar or a 1-D array; d.W may be complex, or an array with
    one level spacing per seed. Returns 1-D arrays (theta, |f(theta)|,
    iterations, converged, radius). Each element steps until |f| <= tol or
    until MAX_NEWTON_STEPS steps. A converged element is then polished with
    up to three further steps as long as each one strictly reduces |f|;
    this drives the residual to its floating-point floor instead of
    stopping at the first sub-tolerance value. An element whose next
    iterate is not finite (as when f' vanishes) stops unconverged at its
    last finite iterate.

    radius r = 2 (|f| + E)/|f'| proves each root (Rouche; Rump, Acta Numer.
    19 (2010) 287): with e = kappa e^{2 i theta}, f' = e + 1 and 2|e|e^{2r}
    bounds |f''| on |z - theta| <= r. If |e|e^{2r} r**2 + |f| + E (1 + r)
    < |f'| r, f is closer to its tangent line on that circle than the line
    to 0, so f has exactly one zero in the disc; else r is nan. converged
    means |f| <= tol and a proved disc.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    theta = np.array(seeds, dtype=complex, ndmin=1)
    w = np.broadcast_to(d.W, theta.shape)
    iterations = np.zeros(theta.shape, dtype=int)

    def step(idx: np.ndarray, keep) -> np.ndarray:
        # One Newton step at idx, taken where keep(new |f|, old |f|) holds.
        sub = CharacteristicParams(d.kappa, w[idx])
        cand = theta[idx] - f[idx] / characteristic_derivative(theta[idx], sub)
        f_cand = characteristic(cand, sub)
        r_cand = np.abs(f_cand)
        taken = keep(r_cand, resid[idx])
        idx = idx[taken]
        theta[idx], f[idx] = cand[taken], f_cand[taken]
        resid[idx] = r_cand[taken]
        iterations[idx] += 1
        return idx

    with np.errstate(all="ignore"):  # f overflows far below the real axis
        f = characteristic(theta, CharacteristicParams(d.kappa, w))
        resid = np.abs(f)
        live = np.flatnonzero(resid > tol)
        for _ in range(MAX_NEWTON_STEPS):
            if live.size == 0:
                break
            live = step(live, lambda new, old: np.isfinite(new))
            live = live[resid[live] > tol]
        polish = np.flatnonzero(resid <= tol)
        for _ in range(3):
            if polish.size == 0:
                break
            polish = step(polish, np.less)
        e = d.kappa * np.exp(2j * theta)
        grow, slope = np.abs(e), np.abs(e + 1.0)
        err = _rounding_error(d, grow, theta)
        r = 2.0 * (resid + err) / slope
        proved = (grow * np.exp(2.0 * r) * r * r + resid + err * (1.0 + r)
                  < slope * r)
    radius = np.where(proved, r, math.nan)
    return theta, resid, iterations, (resid <= tol) & proved, radius


def _require_usable_w(d: DimensionlessParams) -> None:
    """Refuse a W above MAX_W, where mode indices overflow int64."""
    if not d.W <= MAX_W:
        raise ApproximationRangeError(
            f"W must be at most {MAX_W:.17g}, the largest usable W (its "
            f"mode index round(W/pi) must fit int64), got {d.W:.17g}")


def _classify(roots: tuple, tol: float, seed_j=None
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mode index, converged flag and note of each newton_roots result (see
    refine_root); seed_j, if given, names the seed index of each root."""
    theta, resid, iterations, converged, _ = roots
    j = np.round(theta.real / math.pi).astype(int)
    growing = converged & (theta.imag > tol)
    notes = np.array(["", LOW_ENERGY_NOTE], dtype=object)[
        (j <= 0).astype(int)]
    flagged = np.flatnonzero(growing | ~converged)
    seeds = ([""] * flagged.size if seed_j is None else
             [f" from the j={k} seed" for k in seed_j[flagged].tolist()])
    for i, ok, r, n, seed in zip(flagged.tolist(),
                                 converged[flagged].tolist(),
                                 resid[flagged].tolist(),
                                 iterations[flagged].tolist(), seeds):
        where = f"|f| = {r:.3g} after {n} steps{seed}"
        why = ("converged to a growing mode" if ok else
               f"no root disc was proved at {where}" if r <= tol else
               f"Newton stopped at {where}")
        notes[i] = (notes[i] + "; " if notes[i] else "") + why
    return j, converged & ~growing, notes


def _modes(seeds, d: DimensionlessParams, tol: float, seed_j=None) -> Modes:
    """Refine every seed in one newton_roots call, one row per seed."""
    theta, resid, iterations, _, radius = roots = newton_roots(seeds, d, tol)
    bad = theta[~np.isfinite(theta)]
    if bad.size:
        raise ValueError(f"theta must be finite, got {bad.tolist()[0]!r}")
    j, converged, notes = _classify(roots, tol, seed_j)
    return Modes(j, theta, resid, iterations, converged, notes, radius)


def _row(modes: Modes, i: int) -> Modes:
    """Row i of the columns, as Python scalars."""
    return Modes(*(column.tolist()[i] for column in modes))


def refine_root(seed: complex, d: DimensionlessParams,
                tol: float = DEFAULT_TOL) -> Modes:
    """Refine a seed to a characteristic zero by Newton iteration.

    The mode index is assigned afterwards as j = round(Re(theta)/pi). A mode
    that converged onto the upper half plane (growing solution, impossible
    for this system) is returned unconverged and flagged. The result is one
    row: mode.theta is a complex, mode.converged a bool. Raises
    ApproximationRangeError for W above MAX_W.
    """
    _require_usable_w(d)
    return _row(_modes(seed, d, tol), 0)


def lifetime_from_theta(theta):
    """Decay lifetime 1/|Im theta| of a scalar or array theta; inf below
    the bound-state cutoff."""
    gamma = np.abs(np.imag(theta))
    with np.errstate(divide="ignore"):
        return np.where(gamma < BOUND_STATE_IM_CUTOFF, math.inf,
                        1.0 / gamma)[()]


def lifetime(mode: Modes) -> float:
    """Lifetime of a converged mode row (natural units of a/v_g)."""
    if not mode.converged:
        raise ValueError(f"mode j={mode.j} is not converged; its lifetime "
                         f"is not meaningful")
    return lifetime_from_theta(mode.theta)


def count_roots_in_box(d: DimensionlessParams, box: ContourBox) -> int:
    """Count characteristic zeros inside a rectangle by the argument principle.

    The count is f's winding number around the rectangle (f is entire), as
    proved by _winding_or_none. A zero on the contour inflates the box by 1%
    up to six times; ContourError: a zero on each, or f not finite on one.
    """
    current = box
    for _ in range(6):
        if (count := _winding_or_none(d, current)) is not None:
            return count
        current = current.inflated()
    raise ContourError(
        f"could not certify contour for {box}: |f| vanishes near every "
        f"inflated contour tried")


def _winding_or_none(d: DimensionlessParams, box: ContourBox) -> int | None:
    """Proved winding number of f around a box; None for a zero on it.

    On a segment [a, b] of length h, f stays within r = |f'(a)| h + g h**2
    of f(a) (Taylor; 2g = 2 kappa e^{-2 min Im} bounds |f''|). If r plus the
    rounding error (2 + h) E of f(a), f(b), f'(a) is below |f(a)|, a disc
    clear of 0 holds them, so arg f(b)/f(a) is the exact change of arg f;
    b is tried as centre too. Segments failing both are halved, from the 4
    corners on (Ying and Katz, Numer. Math. 53 (1988) 143). A zero on the
    contour is an |f| within 2E of 0 or a failing segment too short to halve.
    """
    x0, x1, y0, y1 = box.re_min, box.re_max, box.im_min, box.im_max
    z = np.array([x0, x1, x1, x0, x0]) + 1j * np.array([y0, y0, y1, y1, y0])
    with np.errstate(all="ignore"):  # f overflows far below the real axis
        f, df = characteristic(z, d), characteristic_derivative(z, d)
        while True:
            grow = d.kappa * np.exp(-2.0 * z.imag)
            err = _rounding_error(d, grow, z)
            absf, adf = np.abs(f), np.abs(df)
            if not np.isfinite(absf).all():
                raise ContourError(f"f is not finite on the contour of {box}")
            h = np.abs(z[1:] - z[:-1])  # 0 once a halving rounds onto an end
            if (absf <= 2.0 * err).any() or not h.all():
                return None
            slack = (np.maximum(grow[1:], grow[:-1]) * h * h
                     + (2.0 + h) * np.maximum(err[1:], err[:-1]))
            bad = np.flatnonzero((adf[:-1] * h + slack >= absf[:-1])
                                 & (adf[1:] * h + slack >= absf[1:]))
            if bad.size == 0:
                break
            mid = 0.5 * (z[bad] + z[bad + 1])
            z, f, df = (np.insert(v, bad + 1, new) for v, new in (
                (z, mid), (f, characteristic(mid, d)),
                (df, characteristic_derivative(mid, d))))
    n = round(float(np.sum(np.angle(f[1:] / f[:-1]))) / (2.0 * math.pi))
    if n < 0:
        raise ContourError(f"negative winding {n} for {box}: f is entire")
    return n


def find_modes(d: DimensionlessParams, j_min: int = 1, j_max: int = 6,
               tol: float = DEFAULT_TOL) -> Modes:
    """Seed, refine and deduplicate modes for j in [j_min, j_max].

    All seeds are refined in one newton_roots call, whose disc proves each
    row. Two rows are one root when their proved discs overlap; the
    converged row is kept, then the one of lower Re(theta).
    Returns one Modes, rows sorted by Re(theta). Raises
    ApproximationRangeError for W above MAX_W.
    """
    _require_usable_w(d)
    if j_max < j_min:
        raise ValueError(f"empty index range [{j_min}, {j_max}]")
    js = np.arange(j_min, j_max + 1)
    modes = _modes(seed_mode(js, d), d, tol, js)

    thetas, radii = modes.theta.tolist(), modes.radius.tolist()
    kept: list[int] = []
    for i in np.lexsort((modes.theta.real, ~modes.converged)).tolist():
        if not any(abs(thetas[i] - thetas[k]) <= radii[i] + radii[k]
                   for k in kept):
            kept.append(i)
    kept.sort(key=lambda i: (thetas[i].real, i))
    return Modes(*(column[kept] for column in modes))


def sweep_decay(d: DimensionlessParams, w_values,
                tol: float = DEFAULT_TOL) -> Sweep:
    """Decay rate of the slowest mode as W is swept at fixed kappa.

    For each W the mode with j = round(W/pi) is refined (that index minimises
    |W - j*pi|, hence the decay rate); the Sweep records |Im theta|. Below
    W = 2**23, where float64 resolves 1e-9, a W within 1e-9 of a positive
    multiple of pi is recorded as exactly 0 without solving: theta = j*pi is
    an exact zero there. Every other point, larger W included (j*pi can
    round onto it), is refined in one newton_roots call. Failed points come
    back as gaps, with a nan decay rate, instead of aborting the sweep, as
    do a negative or non-finite W and a W above MAX_W. Requires kappa > 1,
    as seed_mode.
    """
    w = np.fromiter(map(float, w_values), dtype=float)
    huge = w > MAX_W
    invalid = ~(np.isfinite(w) & (w >= 0)) | huge
    j = np.round(np.where(invalid, 0.0, w) / math.pi).astype(int)
    bound = (~invalid & (j >= 1) & (np.spacing(w) < 1e-9)
             & (np.abs(w - j * math.pi) < 1e-9))
    solve = np.flatnonzero(~invalid & ~bound)
    sub = CharacteristicParams(d.kappa, w[solve])
    roots = newton_roots(seed_mode(j[solve], sub), sub, tol)

    ok = bound.copy()
    kinds = np.array(["", "invalid W", f"invalid W: above the largest "
                      f"usable W = {MAX_W:.17g}",
                      "exact bound state in the continuum"], dtype=object)
    notes = kinds[1 * invalid + huge + 3 * bound]
    j[solve], ok[solve], notes[solve] = _classify(roots, tol, j[solve])
    im = np.zeros_like(w)
    im[solve] = np.abs(roots[0].imag)
    return Sweep(w, np.where(ok, im, math.nan), j, ok, notes)


def slowest_mode(d: DimensionlessParams) -> Modes:
    """The mode with the smallest decay rate: floor(W/pi) vs ceil(W/pi).

    The lifetime maximum sits at the j minimising |W - j*pi|, which is one of
    the two neighbours; both are refined in one newton_roots call and
    compared on |Im theta|. Indices below 1 are included but carry the
    low-energy validity note. Raises ApproximationRangeError for W above
    MAX_W.
    """
    _require_usable_w(d)
    j_lo = int(math.floor(d.W / math.pi))
    modes = _modes(seed_mode(np.array([j_lo, j_lo + 1]), d), d, DEFAULT_TOL)
    if not modes.converged.any():
        raise ApproximationRangeError(
            f"no converged mode near W = {d.W} for kappa = {d.kappa}")
    decay = np.where(modes.converged, np.abs(modes.theta.imag), math.inf)
    return _row(modes, int(np.argmin(decay)))
