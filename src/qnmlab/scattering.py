"""Single-photon scattering off the atom-terminated half-waveguide.

For a real photon energy theta the stationary wave is sin(theta x) between
the mirror and the atom and C sin(theta x + delta) outside; the atom acts as
a delta potential of weight g = kappa / (W - theta), giving the derivative
jump phi'(1+) - phi'(1-) = -theta g phi(1) and the closed-form phase shift

    cot(theta + delta) = cot(theta) - g.

Multiplied through by W - theta, this makes delta the argument of

    F(theta) = s [(W - theta - kappa sin(theta) cos(theta))
                  + i kappa sin^2(theta)],

with s = -1 for theta > W and +1 otherwise, so that delta -> 0 as the
coupling is switched off. F is finite everywhere, and so are the
observables it gives: the Wigner delay d(delta)/d(theta) = Im(F'/F), with
F' = -s (1 + kappa e^(-2 i theta)), which peaks at the quasi-normal-mode
positions with height 1/|Im theta*|; and the intensity enhancement inside
the emergent cavity, |A/C|^2 = sin^2(theta + delta) / sin^2(theta) =
(W - theta)^2 / |F|^2, which peaks there too. For real theta F is
-s conj(f(theta)) with f the characteristic function of qnmlab.qnm, so the
resonances sit where |f| is smallest; F is computed here from sin and cos,
keeping this route independent of the root solver.
enhancement_scan evaluates a theta grid in one array pass and returns a
ScatterScan of columns; phase_shift, its one-point case, returns one row of
Python scalars and costs about 0.06 ms.

qnm_wavefunction evaluates the leaky-mode profile itself at complex theta*:
sin(theta* x) inside, sin(theta*) exp(i theta* (x-1)) outside, which grows
exponentially with x as every quasi-normal mode does. It returns one complex
array over the x grid.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .model import LOG_FLOAT_MAX, DimensionlessParams
from .qnm import Modes, real_grid

#: |W - theta| within this relative to W is the perfect-mirror limit,
#: flagged in the note.
DEGENERATE_TOL = 1e-12

MIRROR_LIMIT_NOTE = "theta = W: perfect-mirror limit"


class ScatterScan(NamedTuple):
    """Phase shift, Wigner delay, enhancement and note as columns."""

    theta: np.ndarray
    delta: np.ndarray
    delay: np.ndarray
    enhancement: np.ndarray
    note: np.ndarray


def enhancement_scan(d: DimensionlessParams, thetas) -> ScatterScan:
    """Phase shift, Wigner delay and enhancement over a grid, in one pass.

    Every column comes from F(theta) and its size |F|, scaled so that no
    intermediate overflows for any finite kappa and W: the delay Im(F'/F) is
    kappa sin(theta) [(1 - kappa) sin(theta) + 2 (W - theta) cos(theta)]
    / |F|^2 and the enhancement ((W - theta) / |F|)^2. F vanishes only for
    kappa = 0 at theta = W, where the photon does not couple: delay 0 and
    enhancement 1, as everywhere else at kappa = 0. theta = W is the
    perfect-mirror limit for kappa > 0: the outside wave has a node at the
    atom, the enhancement vanishes, and the note says so.

    arg F jumps by pi across theta = W and where the atan2 output wraps;
    unwrapping with period pi restores one smooth branch. Enhancement and
    delay are invariant under shifts of delta by multiples of pi, so only
    delta is rewritten.
    """
    theta = real_grid(thetas)
    bad = theta[~((theta > 0) & np.isfinite(theta))]
    if bad.size:
        raise ValueError(f"theta must be positive and finite, got {bad[0]}")
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    # F, |F| and the delay's bracket are taken on exact halves, so neither
    # W - theta - kappa sin cos nor 2 (W - theta) cos(theta) can overflow
    # for W and kappa near float max; each ratio below is unchanged.
    level = d.W - theta
    half_level, half_kappa = 0.5 * level, 0.5 * d.kappa
    side = np.where(theta > d.W, -1.0, 1.0)
    # + 0.0, here and in the delay, turns the -0.0s of kappa = 0 into 0.0
    re = side * (half_level - half_kappa * sin_t * cos_t)
    im = side * (half_kappa * sin_t * sin_t) + 0.0
    size = np.hypot(re, im)
    free = size == 0.0
    size[free] = 1.0
    ratio = half_level / size
    ratio[free] = 1.0
    # The delay overflows only where it passes float max itself:
    # (1 - kappa) / kappa at theta = W for kappa below 1 / max.
    with np.errstate(over="ignore"):
        delay = (half_kappa * sin_t / size
                 * ((0.25 - 0.5 * half_kappa) * sin_t
                    + half_level * cos_t) / size * 2.0 + 0.0)
    note = np.full(theta.shape, "", dtype=object)
    note[(d.kappa > 0.0) & (np.abs(level) <= DEGENERATE_TOL * d.W)] = \
        MIRROR_LIMIT_NOTE
    return ScatterScan(theta, np.unwrap(np.arctan2(im, re), period=math.pi),
                       delay, ratio * ratio, note)


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
    Returns one complex array, each sample independent of the grid and
    within 4 eps (1 + |theta| x) of the exact profile, relative to
    cosh(Im(theta) x) inside and |phi(x)| outside. Raises ValueError,
    quoting the note of an unconverged row, or naming the largest usable x
    if a sample would not be finite.
    """
    if not mode.converged:
        raise ValueError(f"mode j={mode.j} is not converged, so its "
                         f"wavefunction is not evaluated: {mode.note}")
    x = real_grid(xs)
    bad = x[~((x >= 0.0) & (x < math.inf))]
    if bad.size:
        raise ValueError(f"x must be finite and >= 0, got {bad[0]}")
    theta = complex(mode.theta)
    inside = x <= 1.0
    tail = x[~inside] - 1.0
    phi = np.empty(x.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        phi[inside] = np.sin(theta * x[inside])
        phi[~inside] = np.sin(theta) * np.exp(1j * theta * tail)
    # Tested on the exponent, so the limit depends on x alone: just past it
    # numpy's exp can still give finite parts, which a small |sin(theta)|
    # scales back into range.
    growth = -theta.imag
    if np.any(growth * tail > LOG_FLOAT_MAX) or not np.isfinite(phi).all():
        raise ValueError(
            f"phi(x) of mode j={mode.j} overflows float64 past x = "
            f"{1.0 + LOG_FLOAT_MAX / growth:.6g}, as its tail grows like "
            f"exp({growth:.6g} (x - 1)); got x = {x.max():.6g}")
    return phi
