"""Laboratory-parameter maps for two candidate implementations.

Two hardware routes produce the same model: a dc-SQUID charge qubit
capacitively coupled to a superconducting transmission line, and a
three-level atom in a photonic-crystal waveguide driven into an effective
two-level system by a Raman pair. These helpers turn circuit/optics inputs
into the model's level spacing and coupling, and attach sanity flags for
the parameter windows quoted for current hardware (level spacing 5-15 GHz,
coupling 5-200 MHz).

Conventions: every frequency-like quantity in this module (E_J, omega_mode,
B_z, B_x, Omega, V, g, G, Delta, J_eff) is an ANGULAR frequency in rad/s;
range flags report ordinary frequency value/(2*pi) in Hz, since the quoted
hardware windows are ordinary frequencies. The mixing angle is an explicit
input: for the charge qubit the natural reading is sin(mixing) = B_x/Omega,
but it is not hard-coded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .model import _require_finite, _require_positive

#: Exact SI-2019 elementary charge (C) and Planck constant (J s), the
#: reduced Planck constant h/(2 pi) and the flux quantum h/(2e) (Wb).
E_CHARGE = 1.602176634e-19
PLANCK = 6.62607015e-34
HBAR = PLANCK / (2.0 * math.pi)
FLUX_QUANTUM = PLANCK / (2.0 * E_CHARGE)

#: Hardware windows (ordinary frequency, Hz).
LEVEL_SPACING_RANGE_HZ = (5e9, 15e9)
COUPLING_RANGE_HZ = (5e6, 200e6)

#: Long-lived quasi-bound modes need the dimensionless coupling scale,
#: i.e. V, to reach the GHz regime; below this we attach an advisory.
COUPLING_ADVISORY_HZ = 1e9

COUPLING_ADVISORY_NOTE = (
    "coupling is below the ~GHz scale needed for long-lived quasi-bound "
    "modes; expect short storage times")


@dataclass(frozen=True)
class RangeFlag:
    """A value checked against a closed interval (ordinary frequency, Hz)."""

    name: str
    value: float
    range: tuple[float, float]
    within_paper_range: bool = field(init=False)  # computed, never given

    def __post_init__(self) -> None:
        low, high = self.range
        object.__setattr__(self, "within_paper_range",
                           low <= self.value <= high)


def _cos_pi_ratio(ratio: float) -> float:
    """cos(pi * ratio) with exact argument reduction.

    fmod and the [0, 1] fold are exact in floating point, so the result is
    exactly even and 2-periodic in ratio, and exactly 0 at half-integers --
    the flux sweet spots of the SQUID would otherwise miss zero by
    2 E_J * cos(fl(pi/2)) ~ 1e-6 rad/s.
    """
    r = abs(math.fmod(ratio, 2.0))
    if r > 1.0:
        r = 2.0 - r
    if r == 0.5:
        return 0.0
    return math.cos(math.pi * r)


@dataclass(frozen=True)
class SquidSpec:
    """dc-SQUID charge qubit + transmission line parameters (SI units).

    E_J and omega_mode are angular frequencies (rad/s); capacitances in F,
    lengths in m, c_line in F/m, fluxes in Wb, V_g in V. Give the gate
    either as a voltage V_g or directly as the reduced gate charge n_g,
    but not both.
    """

    E_J: float
    C_g: float
    C_J: float
    C_Sigma: float
    Phi_x: float
    L: float
    c_line: float
    omega_mode: float
    mixing_angle: float
    V_g: float | None = None
    n_g: float | None = None
    Phi_0: float = FLUX_QUANTUM

    def __post_init__(self) -> None:
        _require_positive(C_g=self.C_g, C_J=self.C_J, C_Sigma=self.C_Sigma,
                          L=self.L, c_line=self.c_line,
                          omega_mode=self.omega_mode, Phi_0=self.Phi_0)
        if (self.V_g is None) == (self.n_g is None):
            raise ValueError("give exactly one of V_g or n_g")
        _require_finite(**{name: value for name, value in vars(self).items()
                           if value is not None})


@dataclass(frozen=True)
class SquidLevels:
    """Charge-qubit effective fields and level spacing (angular, rad/s)."""

    omega: float
    b_z: float
    b_x: float
    e_c: float
    n_g: float
    flag: RangeFlag


@dataclass(frozen=True)
class CouplingReport:
    """Qubit-line coupling V (angular, rad/s) with range flag and advisory."""

    v: float
    flag: RangeFlag
    note: str = ""


@dataclass(frozen=True)
class RamanSpec:
    """Raman pair on a three-level atom: cavity leg g, drive G, detuning Delta.

    All angular frequencies in rad/s; Delta must be nonzero for the
    far-detuned elimination that produces the effective coupling.
    """

    g: float
    G: float
    Delta: float

    def __post_init__(self) -> None:
        _require_finite(g=self.g, G=self.G, Delta=self.Delta)
        if self.Delta == 0:
            raise ValueError("Delta must be nonzero: the effective coupling "
                             "comes from adiabatic elimination at large "
                             "detuning")


def squid_level_spacing(s: SquidSpec) -> SquidLevels:
    """Effective fields B_z, B_x and level spacing Omega of the charge qubit.

    E_c = e^2 / (2 (C_g + 2 C_J) hbar), n_g = C_g V_g / (2 e) unless given
    directly, B_z = 4 E_c (2 n_g - 1), B_x = 2 E_J cos(pi Phi_x / Phi_0),
    Omega = sqrt(B_z^2 + B_x^2). The attached flag checks Omega/(2 pi)
    against the 5-15 GHz hardware window.
    """
    e_c = E_CHARGE**2 / (2.0 * (s.C_g + 2.0 * s.C_J) * HBAR)
    n_g = s.n_g if s.n_g is not None else s.C_g * s.V_g / (2.0 * E_CHARGE)
    b_z = 4.0 * e_c * (2.0 * n_g - 1.0)
    b_x = 2.0 * s.E_J * _cos_pi_ratio(s.Phi_x / s.Phi_0)
    omega = math.hypot(b_z, b_x)
    flag = RangeFlag("level_spacing", omega / (2.0 * math.pi),
                     LEVEL_SPACING_RANGE_HZ)
    return SquidLevels(omega=omega, b_z=b_z, b_x=b_x, e_c=e_c, n_g=n_g,
                       flag=flag)


def squid_coupling(s: SquidSpec) -> CouplingReport:
    """Qubit-line coupling V = e sin(mixing) (C_g/C_Sigma) sqrt(omega/(L c hbar)).

    The flag checks |V|/(2 pi) against the 5-200 MHz window of current
    hardware; couplings below ~1 GHz additionally carry an advisory note,
    because long-lived quasi-bound modes need a GHz-scale coupling. Raises
    ValueError when L c_line hbar underflows to 0.
    """
    line = s.L * s.c_line * HBAR
    if not line:
        raise ValueError(f"L * c_line * hbar underflows to 0 at L = {s.L:g}, "
                         f"c_line = {s.c_line:g}: the coupling is not finite")
    v = (E_CHARGE * math.sin(s.mixing_angle) * (s.C_g / s.C_Sigma)
         * math.sqrt(s.omega_mode / line))
    value_hz = abs(v) / (2.0 * math.pi)
    flag = RangeFlag("coupling", value_hz, COUPLING_RANGE_HZ)
    note = COUPLING_ADVISORY_NOTE if value_hz < COUPLING_ADVISORY_HZ else ""
    return CouplingReport(v=v, flag=flag, note=note)


def raman_coupling(r: RamanSpec) -> float:
    """Effective photon hopping J_eff = -g G / (2 Delta) of the Raman scheme.

    The sign is conventional; the model uses |J| (see model.PhysicalParams).
    """
    return -r.g * r.G / (2.0 * r.Delta)

