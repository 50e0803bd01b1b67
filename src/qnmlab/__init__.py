"""Quasi-normal modes of the emergent cavity in an atom-terminated waveguide."""

from .dynamics import (DdeConfig, DdeTrajectory, FitResult, FitWindowError,
                       evolve_atom, fit_decay, integrate_dde, pole_check)
from .emission import (EmissionReport, modified_emission_formula,
                       modified_emission_numeric)
from .model import (DimensionlessParams, PhysicalParams, to_dimensionless,
                    to_physical)
from .platforms import (CouplingReport, RamanSpec, RangeFlag, SquidLevels,
                        SquidSpec, raman_coupling, squid_coupling,
                        squid_level_spacing, to_model)
from .qnm import (ApproximationRangeError, CharacteristicParams, ContourBox,
                  ContourError, Modes, Sweep, characteristic,
                  characteristic_derivative, count_roots_in_box, find_modes,
                  lifetime, newton_roots, refine_root, seed_mode,
                  slowest_mode, sweep_decay)
from .scattering import (ScatterScan, enhancement_scan, phase_shift,
                         qnm_wavefunction)

__version__ = "0.1.0"

__all__ = [
    "ApproximationRangeError",
    "CharacteristicParams",
    "ContourBox",
    "ContourError",
    "CouplingReport",
    "DdeConfig",
    "DdeTrajectory",
    "DimensionlessParams",
    "EmissionReport",
    "FitResult",
    "FitWindowError",
    "PhysicalParams",
    "Modes",
    "RamanSpec",
    "RangeFlag",
    "ScatterScan",
    "SquidLevels",
    "SquidSpec",
    "Sweep",
    "characteristic",
    "characteristic_derivative",
    "count_roots_in_box",
    "enhancement_scan",
    "evolve_atom",
    "find_modes",
    "fit_decay",
    "integrate_dde",
    "lifetime",
    "modified_emission_formula",
    "modified_emission_numeric",
    "newton_roots",
    "phase_shift",
    "pole_check",
    "qnm_wavefunction",
    "raman_coupling",
    "refine_root",
    "seed_mode",
    "slowest_mode",
    "squid_coupling",
    "squid_level_spacing",
    "sweep_decay",
    "to_dimensionless",
    "to_model",
    "to_physical",
    "__version__",
]
