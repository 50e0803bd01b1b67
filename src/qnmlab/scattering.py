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
ScatterScan of columns; phase_shift, its one-point case, returns one row of
Python scalars and costs about 0.15 ms.

qnm_wavefunction evaluates the leaky-mode profile itself at complex theta*:
sin(theta* x) inside, sin(theta*) exp(i theta* (x-1)) outside, which grows
exponentially with x as every quasi-normal mode does. It returns one complex
array over the x grid.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import NamedTuple

import numpy as np

from .model import DimensionlessParams
from .qnm import Modes

#: theta this close to a positive multiple of pi is treated as degenerate
#: (the enhancement becomes 0/0) and evaluated by a small offset instead.
DEGENERATE_TOL = 1e-12

#: Offset used to evaluate degenerate points by their limit.
DEGENERATE_OFFSET = 1e-9

#: Step for the central-difference Wigner delay.
DELAY_STEP = 1e-6

NODE_DEGENERACY_NOTE = "degenerate theta = j*pi, evaluated by +/-1e-9 offset"
MIRROR_LIMIT_NOTE = "theta = W: perfect-mirror limit"

#: cmath.exp(z) takes e^Re(z) as e^(Re(z) - 1) * e above this, log(float
#: max / 4), so that results just below overflow stay finite.
_LOG_LARGE = math.log(sys.float_info.max / 4.0)

#: Largest x with exp(x) finite in float64.
_LOG_MAX = math.log(sys.float_info.max)


def _libm(func, *arrays: np.ndarray) -> np.ndarray:
    """A math function mapped over arrays: numpy's atan2, exp, sinh and cosh
    differ in the last digit from the libm that math and cmath call."""
    return np.fromiter(map(func, *(a.tolist() for a in arrays)), dtype=float,
                       count=arrays[0].size)


class ScatterScan(NamedTuple):
    """Phase shift, Wigner delay, enhancement and note as columns."""

    theta: np.ndarray
    delta: np.ndarray
    delay: np.ndarray
    enhancement: np.ndarray
    note: np.ndarray


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
    # With kappa = 0 the weight is identically zero and so is the phase.
    phase = _libm(math.atan2, y, x) if d.kappa > 0.0 else np.zeros(at.size)
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


def phase_shift(theta: float, d: DimensionlessParams) -> ScatterScan:
    """Scattering at real energy theta: enhancement_scan's one-point case,
    as one row of Python scalars. A loop over energies should pass them to
    that as one array."""
    return ScatterScan(*(column.tolist()[0]
                         for column in enhancement_scan(d, [theta])))


def qnm_wavefunction(mode: Modes, xs) -> np.ndarray:
    """Quasi-normal-mode profile phi(x) of a refined mode row, A = 1 inside.

    phi(x) = sin(theta x) on 0 <= x <= 1 and sin(theta) exp(i theta (x - 1))
    beyond the atom; with Im(theta) < 0 the outgoing tail grows like
    exp(|Im theta| (x - 1)), the expected quasi-normal-mode divergence.
    Returns one complex array, equal bit for bit to evaluating each x with
    Python's complex arithmetic and cmath. Raises ValueError, naming the
    largest usable x, if a sample would not be finite.
    """
    if not mode.converged:
        raise ValueError(f"mode j={mode.j} is not converged; refusing to "
                         f"evaluate its wavefunction")
    x = np.fromiter(map(float, xs), dtype=float)
    bad = x[~((x >= 0.0) & (x < math.inf))]
    if bad.size:
        raise ValueError(f"x must be finite and >= 0, got {bad[0]}")
    theta = complex(mode.theta)
    inside = x <= 1.0
    phi = np.empty(x.shape, dtype=complex)
    # theta * x as Python forms complex * float, (a*x - b*0.0) + (a*0.0 +
    # b*x)i: the zero terms set the signs of zeros. cmath.sin(a + bi) is
    # sin(a)cosh(b) + i cos(a)sinh(b), cmath.exp(a + bi) e^a(cos b + i sin b).
    a, b = theta.real, theta.imag
    xi = x[inside]
    re, im = a * xi - b * 0.0, a * 0.0 + b * xi
    phi.real[inside] = np.sin(re) * _libm(math.cosh, im)
    phi.imag[inside] = np.cos(re) * _libm(math.sinh, im)
    z = 1j * theta
    xo = x[~inside] - 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        re, im = z.real * xo - z.imag * 0.0, z.real * 0.0 + z.imag * xo
        big = re > _LOG_LARGE
        scale = _libm(math.exp, np.minimum(re - big, _LOG_MAX))
        e = np.where(big, math.e, 1.0)
        e_re, e_im = scale * np.cos(im) * e, scale * np.sin(im) * e
        s = cmath.sin(theta)
        phi.real[~inside] = s.real * e_re - s.imag * e_im
        phi.imag[~inside] = s.real * e_im + s.imag * e_re
    if np.any(re > _LOG_MAX) or not np.isfinite(phi).all():
        raise ValueError(
            f"phi(x) of mode j={mode.j} overflows float64 past x = "
            f"{1.0 + _LOG_MAX / -b:.6g}, as its tail grows like "
            f"exp({-b:.6g} (x - 1)); got x = {x.max():.6g}")
    return phi
