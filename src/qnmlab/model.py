"""Parameter containers and unit conversions for the atom-terminated waveguide.

The physical system is a semi-infinite 1D waveguide with a perfect mirror at
x = 0 and a two-level atom side-coupled at x = a. Everything downstream works
in natural units v_g = a = 1 (and hbar = 1), where a photon of energy E is
described by the dimensionless number theta = E a / v_g and the system is
fully characterised by

    kappa = 2 J**2 a / v_g**2      (dimensionless coupling weight)
    W     = Omega a / v_g          (dimensionless atomic level spacing)

plus, optionally, gamma_ext = Gamma_ext a / v_g for emission into channels
other than the waveguide. Physical units enter and leave through the two
conversion functions in this module only.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

#: Largest exponent whose exp is finite in float64.
LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _require_finite(**fields: float) -> None:
    for name, value in fields.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _require_positive(**fields: float) -> None:
    for name, value in fields.items():
        if not value > 0:
            raise ValueError(f"{name} must be positive, got {value}")


def _require_non_negative(**fields: float) -> None:
    for name, value in fields.items():
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")


@dataclass(frozen=True)
class PhysicalParams:
    """Lab-frame parameters.

    v_g        photon group velocity (length/time), > 0
    a          mirror-atom distance (length), > 0
    J          atom-field coupling amplitude; only J**2 enters observables,
               so a negative J is normalised to |J| at construction
    Omega      atomic level spacing (angular frequency), >= 0
    Gamma_ext  decay rate into non-waveguide channels, >= 0
    """

    v_g: float
    a: float
    J: float
    Omega: float
    Gamma_ext: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(v_g=self.v_g, a=self.a, J=self.J, Omega=self.Omega,
                        Gamma_ext=self.Gamma_ext)
        _require_positive(v_g=self.v_g, a=self.a)
        _require_non_negative(Omega=self.Omega, Gamma_ext=self.Gamma_ext)
        if self.J < 0:
            object.__setattr__(self, "J", -self.J)


@dataclass(frozen=True)
class DimensionlessParams:
    """Natural-unit parameters (v_g = a = 1): kappa, W and gamma_ext."""

    kappa: float
    W: float
    gamma_ext: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(kappa=self.kappa, W=self.W, gamma_ext=self.gamma_ext)
        _require_non_negative(kappa=self.kappa, W=self.W,
                              gamma_ext=self.gamma_ext)


def to_dimensionless(p: PhysicalParams) -> DimensionlessParams:
    """Map lab-frame parameters onto (kappa, W, gamma_ext).

    kappa = 2 J**2 a / v_g**2, W = Omega a / v_g, gamma_ext = Gamma_ext a / v_g.
    """
    return DimensionlessParams(
        kappa=2.0 * p.J * p.J * p.a / (p.v_g * p.v_g),
        W=p.Omega * p.a / p.v_g,
        gamma_ext=p.Gamma_ext * p.a / p.v_g,
    )


def to_physical(d: DimensionlessParams, v_g: float, a: float) -> PhysicalParams:
    """Invert :func:`to_dimensionless` for a chosen velocity and distance."""
    _require_finite(v_g=v_g, a=a)
    if v_g <= 0 or a <= 0:
        raise ValueError(f"v_g and a must be positive, got {v_g}, {a}")
    return PhysicalParams(
        v_g=v_g,
        a=a,
        J=v_g * math.sqrt(d.kappa / (2.0 * a)),
        Omega=d.W * v_g / a,
        Gamma_ext=d.gamma_ext * v_g / a,
    )
