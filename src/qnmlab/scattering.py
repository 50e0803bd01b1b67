"""Single-photon scattering off the atom-terminated half-waveguide.

For a real photon energy theta the stationary wave is sin(theta x) between
the mirror and the atom and C sin(theta x + delta) outside; the atom acts as
a delta potential of weight g = kappa / (W - theta), giving the derivative
jump phi'(1+) - phi'(1-) = -theta g phi(1) and the closed-form phase shift

    cot(theta + delta) = cot(theta) - g
    <=>  tan(delta) = g sin^2(theta) / (1 - g sin(theta) cos(theta)),

evaluated as delta = atan2(g sin^2 theta, 1 - g sin theta cos theta) so that
delta -> 0 continuously as the coupling is switched off. The intensity
enhancement inside the emergent cavity is |A/C|^2 = sin^2(theta + delta) /
sin^2(theta) and peaks at the quasi-normal-mode positions; the Wigner delay
d(delta)/d(theta) peaks there too, with height 1/|Im theta*|.
enhancement_scan evaluates a theta grid in one array pass and returns a
ScatterScan of columns; phase_shift, its one-point case, costs about 0.15 ms.

qnm_wavefunction evaluates the leaky-mode profile itself at complex theta*:
sin(theta* x) inside, sin(theta*) exp(i theta* (x-1)) outside, which grows
exponentially with x as every quasi-normal mode does.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import DimensionlessParams
from .qnm import QnmMode

#: theta this close to a positive multiple of pi is treated as degenerate
#: (the enhancement becomes 0/0) and evaluated by a small offset instead.
DEGENERATE_TOL = 1e-12

#: Offset used to evaluate degenerate points by their limit.
DEGENERATE_OFFSET = 1e-9

#: Step for the central-difference Wigner delay.
DELAY_STEP = 1e-6

NODE_DEGENERACY_NOTE = "degenerate theta = j*pi, evaluated by +/-1e-9 offset"
MIRROR_LIMIT_NOTE = "theta = W: perfect-mirror limit"


@dataclass(frozen=True)
class PotentialDescriptor:
    """Effective delta-mirror at the atom: position, weight and divergence.

    position is the atom's location (1 in natural units). At probe energy
    theta = W the weight diverges and the singular flag is set.
    """

    position: float
    strength: float
    singular: bool

    def __post_init__(self) -> None:
        if self.singular != math.isinf(self.strength):
            raise ValueError("singular flag must match an infinite strength")


@dataclass(frozen=True)
class ScatterPoint:
    """Phase shift, Wigner delay and cavity enhancement at one energy."""

    theta: float
    delta: float
    delay: float
    enhancement: float
    note: str = ""

    def __post_init__(self) -> None:
        if self.enhancement < 0:
            raise ValueError(
                f"enhancement must be >= 0, got {self.enhancement}")


class ScatterScan(NamedTuple):
    """ScatterPoint's fields as equal-length columns over a theta grid."""

    theta: np.ndarray
    delta: np.ndarray
    delay: np.ndarray
    enhancement: np.ndarray
    note: np.ndarray


@dataclass(frozen=True)
class WaveSample:
    """Mode wavefunction sample: phi(x) and |phi(x)|."""

    x: float
    value: complex
    magnitude: float


def potential_weight(theta: float, d: DimensionlessParams) -> PotentialDescriptor:
    """Weight g = kappa / (W - theta) of the atom's effective delta mirror.

    A decoupled atom (kappa = 0) has zero weight at every energy, including
    theta = W where the coupled weight would diverge.
    """
    if not theta > 0:
        raise ValueError(f"theta must be positive, got {theta}")
    if d.kappa == 0.0:
        return PotentialDescriptor(position=1.0, strength=0.0, singular=False)
    if abs(d.W - theta) < DEGENERATE_TOL:
        return PotentialDescriptor(position=1.0, strength=math.inf,
                                   singular=True)
    return PotentialDescriptor(position=1.0,
                               strength=d.kappa / (d.W - theta),
                               singular=False)


def _pointwise(theta: np.ndarray, d: DimensionlessParams
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(delta, delay, enhancement, mirror-limit mask) off the j*pi nodes.

    At theta = W, where g diverges, the g -> +/-inf limit of the atan2 is
    taken explicitly. The delay is a central difference reduced mod pi: the
    branch can jump by pi across theta = W, while the true change over 2e-6
    stays far below pi/2 even on resonance.
    """
    lo = np.maximum(theta - DELAY_STEP, DEGENERATE_TOL)
    hi = theta + DELAY_STEP
    at = np.concatenate([theta, lo, hi])
    sin_t, cos_t = np.sin(at), np.cos(at)
    on_level = np.abs(d.W - at) < DEGENERATE_TOL
    g = d.kappa / np.where(on_level, 1.0, d.W - at)
    y = np.where(on_level, sin_t * sin_t, g * sin_t * sin_t)
    x = np.where(on_level, -sin_t * cos_t, 1.0 - g * sin_t * cos_t)
    # math.atan2, not np.arctan2: the two differ in the last digit. With
    # kappa = 0 the weight is identically zero and so is the phase.
    phase = (np.fromiter(map(math.atan2, y, x), dtype=float, count=at.size)
             if d.kappa > 0.0 else np.zeros(at.size))
    delta, at_lo, at_hi = np.split(phase, 3)
    diff = at_hi - at_lo
    # + 0.0 as Python's integer round has no -0.0: diff = -0.0 stays -0.0
    diff -= math.pi * (np.round(diff / math.pi) + 0.0)
    # sin(theta + delta) -> 0 exactly in this limit: field node at the atom
    mirror = (d.kappa > 0.0) & on_level[:theta.size]
    ratio = np.sin(theta + delta) / sin_t[:theta.size]
    return (delta, diff / (hi - lo), np.where(mirror, 0.0, ratio * ratio),
            mirror)


def enhancement_scan(d: DimensionlessParams, thetas) -> ScatterScan:
    """Phase shift, Wigner delay and enhancement over a grid, in one pass.

    theta within 1e-12 of a positive multiple of pi makes the enhancement
    0/0; such points are evaluated as the average of the two +/-1e-9 offset
    points and flagged. theta = W is the perfect-mirror limit: the outside
    wave has a node at the atom and the enhancement vanishes.

    The pointwise branch is continuous except for pi jumps where the atan2
    output wraps (and across theta = W); unwrapping with period pi restores
    one smooth branch. Enhancement and delay are invariant under shifts of
    delta by multiples of pi, so only delta is rewritten.
    """
    theta = np.fromiter(map(float, thetas), dtype=float)
    bad = theta[~((theta > 0) & np.isfinite(theta))]
    if bad.size:
        raise ValueError(f"theta must be positive and finite, got {bad[0]}")
    j = np.round(theta / math.pi)
    node = (j >= 1) & (np.abs(theta - j * math.pi) < DEGENERATE_TOL)
    delta, delay, enhancement, mirror = _pointwise(theta, d)
    if node.any():
        lo = _pointwise(theta[node] - DEGENERATE_OFFSET, d)
        hi = _pointwise(theta[node] + DEGENERATE_OFFSET, d)
        for column, at_lo, at_hi in zip((delta, delay, enhancement), lo, hi):
            column[node] = 0.5 * (at_lo + at_hi)
    note = np.full(theta.shape, "", dtype=object)
    note[mirror] = MIRROR_LIMIT_NOTE
    note[node] = NODE_DEGENERACY_NOTE
    return ScatterScan(theta, np.unwrap(delta, period=math.pi), delay,
                       enhancement, note)


def phase_shift(theta: float, d: DimensionlessParams) -> ScatterPoint:
    """Scattering point at real energy theta: enhancement_scan's one-point
    case. A loop over energies should pass them to that as one array."""
    # ScatterScan's columns are ScatterPoint's fields, in the same order.
    return ScatterPoint(*(column.tolist()[0]
                          for column in enhancement_scan(d, [theta])))


def qnm_wavefunction(mode: QnmMode, xs) -> list[WaveSample]:
    """Quasi-normal-mode profile phi(x) for a refined mode, A = 1 inside.

    phi(x) = sin(theta x) on 0 <= x <= 1 and sin(theta) exp(i theta (x - 1))
    beyond the atom; with Im(theta) < 0 the outgoing tail grows like
    exp(|Im theta| (x - 1)), the expected quasi-normal-mode divergence.
    """
    if not mode.converged:
        raise ValueError(f"mode j={mode.j} is not converged; refusing to "
                         f"evaluate its wavefunction")
    theta = mode.theta.theta
    samples = []
    for x in xs:
        x = float(x)
        if not 0.0 <= x < math.inf:
            raise ValueError(f"x must be finite and >= 0, got {x}")
        if x <= 1.0:
            value = cmath.sin(theta * x)
        else:
            value = cmath.sin(theta) * cmath.exp(1j * theta * (x - 1.0))
        samples.append(WaveSample(x=x, value=value, magnitude=abs(value)))
    return samples
