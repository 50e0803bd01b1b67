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

Each mode is a branch of the Lambert W function (Corless et al., Adv.
Comput. Math. 5 (1996) 329; Asl and Ulsoy, J. Dyn. Syst. Meas. Control 125
(2003) 215): with w = kappa + 2i(W - theta), f = 0 is w e^w = kappa
e^{kappa + 2iW}, and mode j = round(Re(theta)/pi) solves the log form
w + Log w = L = ln(kappa) + kappa + 2i(W - j*pi). Every search seeds mode j
from its branch (branch_seed), so no two rows share a root, and runs, as
refine_root does, through one batched kernel, newton_roots. The slowest
mode is j = round(W/pi), the index sweep_decay and slowest_mode refine
alone. For kappa > 1 an expansion of f about j*pi gives seed_mode,
accurate to O(1/kappa**3) near j = round(W/pi).

Sign convention: a mode energy is theta = omega - i*gamma, so a decaying
mode has Im(theta) < 0, gamma = -Im(theta) >= 0 is its decay rate and the
time dependence is exp(-i theta s) = exp(-i omega s) exp(-gamma s).
W = j*pi puts a zero exactly at theta = j*pi (the photon decouples and the
lifetime diverges).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import DimensionlessParams

#: Newton tolerance on |f| of every root search, read at each call.
NEWTON_TOL = 1e-12

#: Modes with |Im theta| below this are reported as non-decaying (infinite
#: lifetime): the bound-state-in-continuum marker.
BOUND_STATE_IM_CUTOFF = 1e-14

#: Newton steps an element may take before it stops unconverged.
MAX_NEWTON_STEPS = 50

#: Largest mode index magnitude |j|: it leaves room for j + 1 in int64.
MAX_J = 2 ** 62

#: Most mode indices find_modes takes: its memory grows with them.
MAX_J_WIDTH = 10_000

#: Largest level spacing W whose modes get an index: round(W/pi) <= MAX_J.
MAX_W = math.pi * MAX_J

#: Largest kappa whose square, in the seed formula, is a finite float.
MAX_KAPPA = math.sqrt(sys.float_info.max)

#: Newton steps on the log form per branch seed; more save no later ones.
_BRANCH_STEPS = 2

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

    j           mode index: the root's branch, and round(Re(theta)/pi)
    theta       complex mode energy
    residual    |f(theta)| at the returned point
    iterations  Newton iterations consumed
    converged   True when residual met the tolerance and radius is proved
    note        why a row is unconverged (see _modes); the j <= 0 flag
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
    """A sweep over W as columns; a gap is a nan im_theta_min (see note)."""

    w: np.ndarray
    im_theta_min: np.ndarray
    j_used: np.ndarray
    note: np.ndarray

    #: The points that have a decay rate, np.isfinite(im_theta_min).
    converged = property(lambda self: np.isfinite(self.im_theta_min))


def real_grid(values) -> np.ndarray:
    """A list, tuple or 1-D real array as a new float64 array. TypeError for
    complex values, a None (a float dtype reads it as nan) or not 1-D."""
    if (grid := np.asarray(values)).ndim == 1 and grid.dtype.kind in "biuf":
        return grid.astype(float)
    raise TypeError(f"a grid must be 1-D and real, got {grid.dtype} values "
                    f"of shape {grid.shape}")


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
    """Closed-form seed for the mode near theta = j*pi (see the module notes).

    j may be an integer array, and d.W complex or an array broadcasting
    against it. Raises ApproximationRangeError unless 1 < kappa <= MAX_KAPPA
    and |j| <= MAX_J.
    """
    _require_seedable(j, d)
    kappa, delta = d.kappa, d.W - j * math.pi
    # Real divisions only for real W: numpy's complex division rounds unlike
    # Python's, and a seed alone must equal its batched copy.
    return (j * math.pi + delta * (kappa - 1.0) / kappa**2
            - 1j * (delta * delta / kappa**2))


def branch_seed(j, d: DimensionlessParams | CharacteristicParams):
    """Seed of mode j from its Lambert W branch (see the module notes): Newton
    on the log form from w = L - Log L; seed_mode's arguments and refusals."""
    _require_seedable(j, d)
    delta = np.subtract(d.W, np.multiply(j, math.pi))
    # an array even for one seed: numpy's scalar complex product rounds
    # unlike its array loop, and a seed alone must equal its batched copy
    target = math.log(d.kappa) + d.kappa + 2j * np.atleast_1d(delta)
    w = target - np.log(target)
    for _ in range(_BRANCH_STEPS):
        w -= w * (w + np.log(w) - target) / (w + 1.0)
    return (d.W + 0.5j * (w - d.kappa)).reshape(np.shape(delta))[()]


def _rounding_error(d: DimensionlessParams | CharacteristicParams, grow, z):
    """E = 16 eps of the terms of |f(z)|, |f'(z)| (grow = |kappa e^{2iz}|):
    complex sin and exp are off by 2 ulp a part, so f, f' by < 5 eps."""
    return 2.0 ** -48 * (grow + d.kappa + np.abs(d.W) + np.abs(z) + 1.0)


def newton_roots(seeds, d: DimensionlessParams | CharacteristicParams
                 ) -> tuple[np.ndarray, ...]:
    """Newton iteration on f from every seed at once, and a proof per root.

    seeds is a scalar or a 1-D array; d.W may be complex, or an array with
    one level spacing per seed. Returns 1-D arrays (theta, |f(theta)|,
    iterations, converged, radius). Each element steps until |f| <=
    NEWTON_TOL or until MAX_NEWTON_STEPS steps. A converged element is then
    polished with up to three further steps as long as each one strictly
    reduces |f|; this drives the residual to its floating-point floor
    instead of stopping at the first sub-tolerance value. An element whose
    next iterate is not finite (as when f' vanishes) stops unconverged at
    its last finite iterate.

    radius r = 2 (|f| + E)/|f'| proves each root (Rouche; Rump, Acta Numer.
    19 (2010) 287): with e = kappa e^{2 i theta}, f' = e + 1 and 2|e|e^{2r}
    bounds |f''| on |z - theta| <= r. If |e|e^{2r} r**2 + |f| + E (1 + r)
    < |f'| r, f is closer to its tangent line on that circle than the line
    to 0, so f has exactly one zero in the disc; else r is nan. converged
    means |f| <= NEWTON_TOL and a proved disc.
    """
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
        live = np.flatnonzero(resid > NEWTON_TOL)
        for _ in range(MAX_NEWTON_STEPS):
            if live.size == 0:
                break
            live = step(live, lambda new, old: np.isfinite(new))
            live = live[resid[live] > NEWTON_TOL]
        polish = np.flatnonzero(resid <= NEWTON_TOL)
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
    return theta, resid, iterations, (resid <= NEWTON_TOL) & proved, radius


def _require_usable_w(d: DimensionlessParams) -> None:
    """Refuse a W above MAX_W, where mode indices overflow int64."""
    if not d.W <= MAX_W:
        raise ApproximationRangeError(
            f"W must be at most {MAX_W:.17g}, the largest usable W (its "
            f"mode index round(W/pi) must fit int64), got {d.W:.17g}")


def _require_seedable(j, d) -> None:
    """Refuse kappa outside (1, MAX_KAPPA] or an index j beyond +/-MAX_J."""
    if d.kappa <= 1.0:
        raise ApproximationRangeError(
            f"seed formula needs kappa > 1 (atom more reflective than "
            f"transparent), got kappa = {d.kappa}")
    if not d.kappa <= MAX_KAPPA:
        raise ApproximationRangeError(
            f"kappa must be at most {MAX_KAPPA:.17g}, the largest usable "
            f"kappa (kappa**2 must be a finite float), got {d.kappa}")
    # compared, not abs(): abs of int64's minimum is itself
    if (outside := np.extract((j < -MAX_J) | (j > MAX_J), j)).size:
        raise ApproximationRangeError(
            f"mode indices must lie within +/-{MAX_J} (j + 1 must fit "
            f"int64), got j = {outside[0]}")


def _modes(seeds, d: DimensionlessParams | CharacteristicParams,
           seed_j=None) -> Modes:
    """Refine every seed in one newton_roots call, one row per seed (see
    refine_root); seed_j, if given, is each root's branch and index. An
    unconverged row's note is the one account of why it failed."""
    theta, resid, iterations, converged, radius = newton_roots(seeds, d)
    j = (np.round(theta.real / math.pi).astype(int) if seed_j is None
         else np.asarray(seed_j))
    growing = converged & (theta.imag > NEWTON_TOL)
    notes = np.array(["", LOW_ENERGY_NOTE], dtype=object)[
        (j <= 0).astype(int)]
    flagged = np.flatnonzero(growing | ~converged)
    for i, ok, r, n, rad in zip(flagged.tolist(), *(c[flagged].tolist() for c
                                in (converged, resid, iterations, radius))):
        seed = "" if seed_j is None else f" from the j={j[i]} seed"
        where = f"|f| = {r:.3g} after {n} steps{seed}"
        disc = (f"; a disc of radius {rad:.3g} holds one root"
                if math.isfinite(rad) else "")
        why = ("converged to a growing mode" if ok else
               f"no root disc was proved at {where}" if r <= NEWTON_TOL else
               f"Newton stopped at {where}{disc}")
        notes[i] = (notes[i] + "; " if notes[i] else "") + why
    return Modes(j, theta, resid, iterations, converged & ~growing, notes,
                 radius)


def _row(modes: Modes, i: int) -> Modes:
    """Row i of the columns, as Python scalars."""
    return Modes(*(column.tolist()[i] for column in modes))


def refine_root(seed: complex, d: DimensionlessParams) -> Modes:
    """Refine a seed to a characteristic zero by Newton iteration: one row,
    of Python scalars, with index j = round(Re(theta)/pi). A root in the
    upper half plane (a growing mode, impossible here) is flagged
    unconverged. Raises ApproximationRangeError for W above MAX_W and
    ValueError for a seed that is not finite."""
    _require_usable_w(d)
    if not np.isfinite(seed):
        raise ValueError(f"theta must be finite, got {complex(seed)!r}")
    return _row(_modes(seed, d), 0)


def lifetime_from_theta(theta):
    """Decay lifetime 1/|Im theta| of a scalar or array theta; inf below
    the bound-state cutoff."""
    gamma = np.abs(np.imag(theta))
    with np.errstate(divide="ignore"):
        return np.where(gamma < BOUND_STATE_IM_CUTOFF, math.inf,
                        1.0 / gamma)[()]


def lifetime(mode: Modes) -> float:
    """Lifetime of a converged mode row (natural units of a/v_g); an
    unconverged row raises ValueError quoting its note."""
    if not mode.converged:
        raise ValueError(f"mode j={mode.j} is not converged, so its lifetime "
                         f"is not meaningful: {mode.note}")
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


def find_modes(d: DimensionlessParams, j_min: int = 1, j_max: int = 6
               ) -> Modes:
    """Mode j of each j in [j_min, j_max] from its branch, in one newton_roots
    call whose disc proves each row: one row per index, sorted by Re(theta),
    and flagged if its disc overlaps a neighbour's. Raises
    ApproximationRangeError as branch_seed does or for W above MAX_W, and
    ValueError for an empty range or one of over MAX_J_WIDTH indices."""
    _require_usable_w(d)
    if j_max < j_min:
        raise ValueError(f"empty index range [{j_min}, {j_max}]")
    _require_seedable(np.array([j_min, j_max], dtype=object), d)
    if int(j_max) - int(j_min) >= MAX_J_WIDTH:
        raise ValueError(f"index range [{j_min}, {j_max}] holds more than "
                         f"{MAX_J_WIDTH} indices; split it")
    js = np.arange(j_min, j_max + 1)
    modes = _modes(branch_seed(js, d), d, js)
    order = np.argsort(modes.theta.real, kind="stable")
    _, theta, _, _, converged, note, radius = modes = Modes(
        *(column[order] for column in modes))
    touch = np.abs(np.diff(theta)) <= radius[1:] + radius[:-1]
    for i in np.flatnonzero(np.r_[touch, False] | np.r_[False, touch]):
        converged[i] = False
        note[i] = ((note[i] + "; " if note[i] else "")
                   + "its root disc overlaps a neighbour's")
    return modes


def sweep_decay(d: DimensionlessParams, w_values) -> Sweep:
    """Decay rate of the slowest mode as W is swept at fixed kappa.

    For each W slowest_mode's row, j = round(W/pi), is refined (it minimises
    |W - j*pi|, hence the decay rate); the Sweep records |Im theta|. Below
    W = 2**23, where float64 resolves 1e-9, a W within 1e-9 of a positive
    multiple of pi is recorded as exactly 0 without solving: theta = j*pi is
    an exact zero there. Every other point, larger W included (j*pi can
    round onto it), is refined in one newton_roots call. Failed points come
    back as gaps, with a nan decay rate, as do a negative or non-finite W
    and a W above MAX_W. Requires 1 < kappa <= MAX_KAPPA, as branch_seed.
    """
    w = real_grid(w_values)
    huge = w > MAX_W
    invalid = ~(np.isfinite(w) & (w >= 0)) | huge
    j = np.round(np.where(invalid, 0.0, w) / math.pi).astype(int)
    bound = (~invalid & (j >= 1) & (w < 2.0 ** 23)
             & (np.abs(w - j * math.pi) < 1e-9))
    solve = np.flatnonzero(~invalid & ~bound)
    sub = CharacteristicParams(d.kappa, w[solve])
    modes = _modes(branch_seed(j[solve], sub), sub, j[solve])

    kinds = np.array(["", "invalid W", f"invalid W: above the largest "
                      f"usable W = {MAX_W:.17g}",
                      "exact bound state in the continuum"], dtype=object)
    notes = kinds[1 * invalid + huge + 3 * bound]
    notes[solve] = modes.note
    im = np.where(bound, 0.0, math.nan)
    im[solve] = np.where(modes.converged, np.abs(modes.theta.imag), math.nan)
    return Sweep(w, im, j, notes)


def slowest_mode(d: DimensionlessParams) -> Modes:
    """The mode with the smallest decay rate: find_modes' row of
    j = round(W/pi), sweep_decay's index (it minimises |W - j*pi|, hence the
    decay rate). Raises ApproximationRangeError, quoting the row's note,
    unless that root converged, and as find_modes does."""
    j = round(d.W / math.pi)
    mode = _row(find_modes(d, j, j), 0)
    if not mode.converged:
        raise ApproximationRangeError(
            f"no converged mode near W = {d.W} for kappa = {d.kappa}: "
            f"{mode.note}")
    return mode
