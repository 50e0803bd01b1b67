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
A mode with Im(theta) < 0 decays; W = j*pi puts a zero exactly at theta = j*pi
(the photon decouples and the lifetime diverges).

Every root search (one mode, a spectrum, a sweep over W, the slowest mode,
the complex-W emission root) runs through one batched kernel, newton_roots;
a sweep returns one Sweep of columns, not one object per W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .model import ComplexFrequency, DimensionlessParams

#: Modes with |Im theta| below this are reported as non-decaying (infinite
#: lifetime): the bound-state-in-continuum marker.
BOUND_STATE_IM_CUTOFF = 1e-14

#: Two refined roots closer than this are duplicates of the same mode.
DEDUP_RADIUS = 1e-6

LOW_ENERGY_NOTE = "low-energy regime (j <= 0), physical validity uncertain"


class ApproximationRangeError(ValueError):
    """Raised when inputs are outside the validity range of the seed formula."""


class ContourError(RuntimeError):
    """Raised when an argument-principle contour cannot be certified."""


@dataclass(frozen=True)
class QnmMode:
    """One refined quasi-normal mode.

    j           mode index, round(Re(theta)/pi)
    theta       complex mode energy
    residual    |f(theta)| at the returned point
    iterations  Newton iterations consumed
    converged   True when residual met the requested tolerance
    lifetime    1/|Im theta|, or math.inf below the bound-state cutoff
    note        metadata flag, e.g. for the uncertain j <= 0 branch
    """

    j: int
    theta: ComplexFrequency
    residual: float
    iterations: int
    converged: bool
    lifetime: float
    note: str = ""

    def __post_init__(self) -> None:
        if self.residual < 0 or math.isnan(self.residual):
            raise ValueError(f"residual must be >= 0, got {self.residual}")
        if not (self.lifetime > 0):
            raise ValueError(f"lifetime must be positive, got {self.lifetime}")

    @property
    def omega_tilde(self) -> float:
        return self.theta.omega_tilde

    @property
    def gamma_tilde(self) -> float:
        return self.theta.gamma_tilde


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

    def inflated(self, factor: float) -> "ContourBox":
        cre = 0.5 * (self.re_min + self.re_max)
        cim = 0.5 * (self.im_min + self.im_max)
        hre = 0.5 * (self.re_max - self.re_min) * factor
        him = 0.5 * (self.im_max - self.im_min) * factor
        return ContourBox(cre - hre, cre + hre, cim - him, cim + him)


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


def newton_roots(seeds, d: DimensionlessParams | CharacteristicParams,
                 tol: float = 1e-12, max_iter: int = 50
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Newton iteration on f from every seed at once.

    seeds is a scalar or a 1-D array; d.W may be complex, or an array with
    one level spacing per seed. Returns 1-D arrays (theta, |f(theta)|,
    iterations, converged). Each element steps until |f| <= tol or until
    max_iter steps. A converged element is then polished with up to three
    further steps as long as each one strictly reduces |f|; this drives the
    residual to its floating-point floor instead of stopping at the first
    sub-tolerance value. An element whose next iterate is not finite (as
    when f' vanishes) stops unconverged at its last finite iterate.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    theta = np.array(seeds, dtype=complex, ndmin=1)
    w = np.broadcast_to(d.W, theta.shape)
    f = characteristic(theta, CharacteristicParams(d.kappa, w))
    resid = np.abs(f)
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

    live = np.flatnonzero(resid > tol)
    with np.errstate(all="ignore"):
        for _ in range(max_iter):
            if live.size == 0:
                break
            live = step(live, lambda new, old: np.isfinite(new))
            live = live[resid[live] > tol]
        polish = np.flatnonzero(resid <= tol)
        for _ in range(3):
            if polish.size == 0:
                break
            polish = step(polish, np.less)
    return theta, resid, iterations, resid <= tol


def _classify(theta: np.ndarray, converged: np.ndarray, tol: float
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mode index, converged flag and note of each root (see refine_root)."""
    j = np.round(theta.real / math.pi).astype(int)
    growing = converged & (theta.imag > tol)
    notes = np.where(j <= 0, LOW_ENERGY_NOTE, "").astype(object)
    notes[growing] = [(note + "; " if note else "") + "converged to a "
                      "growing mode" for note in notes[growing]]
    return j, converged & ~growing, notes


def _modes(seeds, d: DimensionlessParams, tol: float,
           max_iter: int = 50) -> list[QnmMode]:
    """Refine every seed in one newton_roots call, one QnmMode per seed."""
    theta, resid, iterations, converged = newton_roots(seeds, d, tol, max_iter)
    j, converged, notes = _classify(theta, converged, tol)
    return [QnmMode(j=jj, theta=ComplexFrequency(t), residual=r, iterations=n,
                    converged=ok, lifetime=lifetime_from_theta(t), note=note)
            for jj, t, r, n, ok, note in zip(
                j.tolist(), theta.tolist(), resid.tolist(),
                iterations.tolist(), converged.tolist(), notes)]


def refine_root(seed: complex, d: DimensionlessParams, tol: float = 1e-12,
                max_iter: int = 50) -> QnmMode:
    """Refine a seed to a characteristic zero by Newton iteration.

    The mode index is assigned afterwards as j = round(Re(theta)/pi). A mode
    that converged onto the upper half plane (growing solution, impossible
    for this system) is returned unconverged and flagged.
    """
    return _modes(seed, d, tol, max_iter)[0]


def lifetime_from_theta(theta: complex) -> float:
    """Decay lifetime 1/|Im theta|; math.inf below the bound-state cutoff."""
    if abs(theta.imag) < BOUND_STATE_IM_CUTOFF:
        return math.inf
    return 1.0 / abs(theta.imag)


def lifetime(mode: QnmMode) -> float:
    """Lifetime of a converged mode (natural units of a/v_g)."""
    if not mode.converged:
        raise ValueError(f"mode j={mode.j} is not converged; its lifetime "
                         f"is not meaningful")
    return mode.lifetime


def count_roots_in_box(d: DimensionlessParams, box: ContourBox,
                       samples_per_edge: int = 2000) -> int:
    """Count characteristic zeros inside a rectangle by the argument principle.

    The winding number of f around the rectangle equals the enclosed zero
    count (f is entire, so there are no poles). The accumulated argument uses
    principal-value increments between consecutive samples; if the total is
    not close to a multiple of 2*pi, or any single increment approaches pi
    (aliasing risk from a zero close to the contour), the sampling is doubled.
    If |f| nearly vanishes on the contour the box is inflated by 1% and
    retried a few times before giving up.
    """
    if samples_per_edge < 8:
        raise ValueError(f"samples_per_edge too small: {samples_per_edge}")
    current = box
    for _ in range(6):
        count = _winding_or_none(d, current, samples_per_edge)
        if count is not None:
            return count
        current = current.inflated(1.01)
    raise ContourError(
        f"could not certify contour for {box}: |f| vanishes near every "
        f"inflated contour tried")


def _winding_or_none(d: DimensionlessParams, box: ContourBox,
                     samples_per_edge: int) -> int | None:
    """Winding number for one box, or None if a root sits on the contour."""
    samples = samples_per_edge
    for _ in range(8):
        pts = _box_boundary(box, samples)
        vals = characteristic(pts, d)
        if np.min(np.abs(vals)) <= 1e-9:
            return None
        increments = np.angle(vals[1:] / vals[:-1])
        total = float(np.sum(increments))
        winding = total / (2.0 * math.pi)
        if abs(total - 2.0 * math.pi * round(winding)) <= 0.1 \
                and float(np.max(np.abs(increments))) < 2.8:
            rounded = int(round(winding))
            if rounded < 0:
                raise ContourError(
                    f"negative winding {rounded} for {box}: f is entire, "
                    f"this indicates undersampling")
            return rounded
        samples *= 2
    raise ContourError(
        f"winding did not settle on an integer for {box}; pass a larger "
        f"samples_per_edge")


def _box_boundary(box: ContourBox, samples_per_edge: int) -> np.ndarray:
    n = samples_per_edge
    bottom = np.linspace(box.re_min, box.re_max, n, endpoint=False) \
        + 1j * box.im_min
    right = box.re_max + 1j * np.linspace(box.im_min, box.im_max, n,
                                          endpoint=False)
    top = np.linspace(box.re_max, box.re_min, n, endpoint=False) \
        + 1j * box.im_max
    left = box.re_min + 1j * np.linspace(box.im_max, box.im_min, n,
                                         endpoint=False)
    loop = np.concatenate([bottom, right, top, left])
    return np.append(loop, loop[0])


def _certification_box(theta: complex) -> ContourBox:
    """A tight rectangle around one root, clear of its neighbours (~pi away)."""
    margin_im = max(0.05, 2.0 * abs(theta.imag))
    return ContourBox(
        re_min=theta.real - 0.05,
        re_max=theta.real + 0.05,
        im_min=theta.imag - margin_im,
        im_max=max(1e-3, theta.imag + margin_im),
    )


def find_modes(d: DimensionlessParams, j_min: int = 1, j_max: int = 6,
               tol: float = 1e-12) -> list[QnmMode]:
    """Seed, refine, deduplicate and certify modes for j in [j_min, j_max].

    All seeds are refined in one newton_roots call. Each converged root is
    certified by an argument-principle count of 1 in a tight box around it;
    a failed certification demotes the mode to unconverged rather than
    aborting the batch. Results are sorted by Re(theta).
    """
    if j_max < j_min:
        raise ValueError(f"empty index range [{j_min}, {j_max}]")
    modes = _modes(seed_mode(np.arange(j_min, j_max + 1), d), d, tol)

    deduped: list[QnmMode] = []
    for mode in sorted(modes, key=lambda m: m.theta.theta.real):
        if any(abs(mode.theta.theta - kept.theta.theta) < DEDUP_RADIUS
               for kept in deduped):
            continue
        deduped.append(mode)

    certified: list[QnmMode] = []
    for mode in deduped:
        if not mode.converged:
            certified.append(mode)
            continue
        try:
            count = count_roots_in_box(d, _certification_box(mode.theta.theta))
        except ContourError as exc:
            count = -1
            detail = f"certification failed: {exc}"
        if count == 1:
            certified.append(mode)
        else:
            if count >= 0:
                detail = f"certification counted {count} roots, expected 1"
            certified.append(replace(
                mode, converged=False,
                note=(mode.note + "; " if mode.note else "") + detail))
    return certified


def sweep_decay(d: DimensionlessParams, w_values,
                tol: float = 1e-12) -> Sweep:
    """Decay rate of the slowest mode as W is swept at fixed kappa.

    For each W the mode with j = round(W/pi) is refined (that index minimises
    |W - j*pi|, hence the decay rate); the Sweep records |Im theta|. W within
    1e-9 of a positive multiple of pi is recorded as exactly 0 without
    solving: theta = j*pi is an exact zero there. Every other point is
    refined in one newton_roots call. Failed points come back flagged as
    gaps instead of aborting the sweep. Requires kappa > 1, as seed_mode.
    """
    w = np.fromiter(map(float, w_values), dtype=float)
    invalid = ~(np.isfinite(w) & (w >= 0))
    j = np.round(np.where(invalid, 0.0, w) / math.pi).astype(int)
    bound = ~invalid & (j >= 1) & (np.abs(w - j * math.pi) < 1e-9)
    solve = np.flatnonzero(~invalid & ~bound)
    sub = CharacteristicParams(d.kappa, w[solve])
    theta, _, _, converged = newton_roots(seed_mode(j[solve], sub), sub, tol)

    im = np.where(bound, 0.0, math.nan)
    im[solve] = np.abs(theta.imag)
    ok = bound.copy()
    notes = np.where(invalid, "invalid W", np.where(
        bound, "exact bound state in the continuum", "")).astype(object)
    j[solve], ok[solve], notes[solve] = _classify(theta, converged, tol)
    return Sweep(w, im, j, ok, notes)


def slowest_mode(d: DimensionlessParams, tol: float = 1e-12) -> QnmMode:
    """The mode with the smallest decay rate: floor(W/pi) vs ceil(W/pi).

    The lifetime maximum sits at the j minimising |W - j*pi|, which is one of
    the two neighbours; both are refined in one newton_roots call and
    compared on |Im theta|. Indices below 1 are included but carry the
    low-energy validity note.
    """
    j_lo = int(math.floor(d.W / math.pi))
    candidates = [mode for mode in _modes(seed_mode(np.array([j_lo, j_lo + 1]),
                                                    d), d, tol)
                  if mode.converged]
    if not candidates:
        raise ApproximationRangeError(
            f"no converged mode near W = {d.W} for kappa = {d.kappa}")
    return min(candidates, key=lambda m: abs(m.theta.theta.imag))
