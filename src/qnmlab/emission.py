"""Spontaneous emission of the atom inside the emergent leaky cavity.

An atom that also decays into channels other than the waveguide (rate
gamma_ext) is handled by continuing the level spacing to W_c = W -
i*gamma_ext in the characteristic equation and re-solving for the mode.
The total decay rate of the dressed atom is gamma_t = |Im theta| of that
root. For kappa >> 1 the closed form

    gamma_t ~= ((W - j*pi) / kappa)^2 + gamma_ext/kappa - gamma_ext/kappa^2

is the imaginary part of the analytic seed evaluated at W_c, dropping the
O(gamma_ext^2/kappa^2) term; both routes are reported side by side, with
the numeric root treated as ground truth. Near W = j*pi and for large
kappa, gamma_t is far below the bare gamma_ext: the half-cavity suppresses
the atom's decay.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .model import DimensionlessParams
from .qnm import CharacteristicParams, _modes, _row, branch_seed, seed_mode


class EmissionReport(NamedTuple):
    """Closed-form and numeric total decay rates, with suppression ratio.

    suppression_ratio = gamma_t_numeric / gamma_ext; it is +inf when
    gamma_ext = 0 (nothing to suppress).
    """

    j: int
    gamma_t_formula: float
    gamma_t_numeric: float
    suppression_ratio: float


def modified_emission_formula(d: DimensionlessParams, j: int) -> float:
    """Closed-form total decay rate near the j-th mode. Requires kappa > 1.

    Returns (W - j*pi)^2/kappa^2 + gamma_ext/kappa - gamma_ext/kappa^2,
    the first term being the bare seed linewidth -Im seed_mode(j, d), so
    the gamma_ext = 0 reduction to it is exact, not merely close.
    """
    if j < 1:
        raise ValueError(f"mode index must be >= 1, got {j}")
    return (-seed_mode(j, d).imag + d.gamma_ext / d.kappa
            - d.gamma_ext / d.kappa**2)


def modified_emission_numeric(d: DimensionlessParams, j: int
                              ) -> EmissionReport:
    """Total decay rate from the root of f with W continued to W - i*gamma_ext.

    The seed is branch j's (see qnm.branch_seed) at the complex level
    spacing, refined by the same Newton iteration used for ordinary modes;
    the numeric rate is |Im theta| of the converged root. A root that does
    not converge raises RuntimeError, quoting the row's note.
    """
    formula = modified_emission_formula(d, j)  # also validates j, kappa
    continued = CharacteristicParams(d.kappa, complex(d.W, -d.gamma_ext))
    mode = _row(_modes(branch_seed(j, continued), continued, [j]), 0)
    if not mode.converged:
        raise RuntimeError(
            f"complex-W root search did not converge for j={j}, kappa="
            f"{d.kappa}, W={d.W}, gamma_ext={d.gamma_ext}: {mode.note}")
    gamma_numeric = abs(mode.theta.imag)
    ratio = math.inf if d.gamma_ext == 0.0 else gamma_numeric / d.gamma_ext
    return EmissionReport(j, formula, gamma_numeric, ratio)
