"""Hardware maps: charge-qubit effective fields, line coupling, Raman
hopping, and the bridge into dimensionless model parameters."""

import math
from dataclasses import asdict

import pytest
from scipy.constants import e as ECHARGE
from scipy.constants import hbar as HBAR
from scipy.constants import physical_constants

from qnmlab import platforms
from qnmlab.model import PhysicalParams, to_dimensionless
from qnmlab.platforms import (COUPLING_ADVISORY_NOTE, FLUX_QUANTUM,
                              CouplingReport, RamanSpec, RangeFlag, SquidSpec,
                              raman_coupling, squid_coupling,
                              squid_level_spacing)
from refs import SQUID_SCENARIO


def _spec(**overrides):
    sc = SQUID_SCENARIO
    base = dict(E_J=sc["E_J"], C_g=sc["C_g"], C_J=sc["C_J"],
                C_Sigma=sc["C_Sigma"],
                Phi_x=sc["Phi_x_over_Phi_0"] * FLUX_QUANTUM,
                L=sc["L"], c_line=sc["c_line"], omega_mode=sc["omega_mode"],
                mixing_angle=sc["mixing_angle"], n_g=sc["n_g"])
    base.update(overrides)
    return SquidSpec(**base)


# --- constants ---------------------------------------------------------

def test_si_constants_equal_scipy_bit_for_bit():
    assert platforms.E_CHARGE == ECHARGE
    assert platforms.HBAR == HBAR
    assert FLUX_QUANTUM == physical_constants["mag. flux quantum"][0]


# --- charge qubit -------------------------------------------------------

def test_charge_sweet_spot_kills_longitudinal_field():
    levels = squid_level_spacing(_spec(n_g=0.5))
    assert levels.b_z == 0.0
    assert levels.omega == abs(levels.b_x)


def test_flux_sweet_spot_kills_transverse_field():
    levels = squid_level_spacing(_spec(Phi_x=0.5 * FLUX_QUANTUM))
    assert levels.b_x == 0.0
    assert levels.omega == abs(levels.b_z)
    # Phi_x/Phi_0 in (1, 2) folds onto 2 - Phi_x/Phi_0 exactly
    assert squid_level_spacing(_spec(Phi_x=1.5, Phi_0=1.0)).b_x == 0.0


def test_flux_response_is_even_and_periodic():
    plus = squid_level_spacing(_spec(Phi_x=0.3, Phi_0=1.0))
    minus = squid_level_spacing(_spec(Phi_x=-0.3, Phi_0=1.0))
    assert plus.b_x == minus.b_x
    quarter = squid_level_spacing(_spec(Phi_x=0.25, Phi_0=1.0))
    wrapped = squid_level_spacing(_spec(Phi_x=2.25, Phi_0=1.0))
    assert quarter.b_x == wrapped.b_x
    folded = squid_level_spacing(_spec(Phi_x=1.75, Phi_0=1.0))
    assert quarter.b_x == folded.b_x


def test_gate_voltage_sets_reduced_charge():
    direct = squid_level_spacing(_spec(n_g=0.45))
    assert direct.n_g == 0.45
    v_g = 2.0 * ECHARGE * 0.45 / SQUID_SCENARIO["C_g"]
    from_voltage = squid_level_spacing(_spec(n_g=None, V_g=v_g))
    assert from_voltage.n_g == pytest.approx(0.45, rel=1e-12)
    assert from_voltage.omega == pytest.approx(direct.omega, rel=1e-12)


def test_scenario_levels():
    # frozen outputs of the reference scenario, cross-checked against the
    # formulas re-evaluated here from the raw constants
    levels = squid_level_spacing(_spec())
    sc = SQUID_SCENARIO
    e_c = ECHARGE**2 / (2.0 * (sc["C_g"] + 2.0 * sc["C_J"]) * HBAR)
    b_z = 4.0 * e_c * (2.0 * sc["n_g"] - 1.0)
    b_x = 2.0 * sc["E_J"] * math.cos(math.pi * sc["Phi_x_over_Phi_0"])
    assert levels.e_c == pytest.approx(e_c, rel=1e-12)
    assert levels.b_z == pytest.approx(b_z, rel=1e-12)
    assert levels.b_x == pytest.approx(b_x, rel=1e-12)
    assert levels.omega == pytest.approx(math.hypot(b_z, b_x), rel=1e-12)
    assert levels.e_c == pytest.approx(93620569453.38257, rel=1e-12)
    assert levels.b_z == pytest.approx(-37448227781.35302, rel=1e-12)
    assert levels.b_x == pytest.approx(36931636609.809135, rel=1e-12)
    assert levels.omega == pytest.approx(52595774988.52065, rel=1e-12)
    # 8.37 GHz: inside the 5-15 GHz hardware window
    assert levels.flag.value == pytest.approx(levels.omega / (2 * math.pi),
                                              rel=1e-12)
    assert levels.flag.within_paper_range


def test_scenario_coupling():
    report = squid_coupling(_spec())
    sc = SQUID_SCENARIO
    v = (ECHARGE * math.sin(sc["mixing_angle"]) * (sc["C_g"] / sc["C_Sigma"])
         * math.sqrt(sc["omega_mode"] / (sc["L"] * sc["c_line"] * HBAR)))
    assert report.v == pytest.approx(v, rel=1e-12)
    assert report.v == pytest.approx(1145309978.5080037, rel=1e-12)
    # 182 MHz: inside the 5-200 MHz window, but below the ~GHz scale
    # needed for long-lived quasi-bound modes
    assert report.flag.within_paper_range
    assert report.note == COUPLING_ADVISORY_NOTE


def test_coupling_scales_with_line_inductance():
    base = squid_coupling(_spec())
    quadrupled = squid_coupling(_spec(L=4.0 * SQUID_SCENARIO["L"]))
    assert quadrupled.v == 0.5 * base.v


def test_coupling_off_at_zero_mixing():
    report = squid_coupling(_spec(mixing_angle=0.0))
    assert report.v == 0.0
    assert not report.flag.within_paper_range
    assert report.note == COUPLING_ADVISORY_NOTE


# --- Raman pair ---------------------------------------------------------

def test_raman_reference_value():
    r = RamanSpec(g=2e8 * math.pi, G=2e8 * math.pi, Delta=2e10 * math.pi)
    val = raman_coupling(r)
    assert val == -r.g * r.G / (2.0 * r.Delta)
    assert val == -3141592.653589793  # -pi * 1e6 exactly


def test_raman_symmetry_and_scaling():
    a, b, delta = 3.7e8, 1.9e8, 2.4e10
    assert (raman_coupling(RamanSpec(g=a, G=b, Delta=delta))
            == raman_coupling(RamanSpec(g=b, G=a, Delta=delta)))
    assert (raman_coupling(RamanSpec(g=a, G=b, Delta=delta / 2.0))
            == 2.0 * raman_coupling(RamanSpec(g=a, G=b, Delta=delta)))


def test_raman_rejects_zero_detuning():
    with pytest.raises(ValueError):
        RamanSpec(g=1e8, G=1e8, Delta=0.0)


# --- validation ---------------------------------------------------------

def test_spec_gate_must_be_given_once():
    with pytest.raises(ValueError):
        _spec(V_g=1e-3)  # n_g already set
    with pytest.raises(ValueError):
        _spec(n_g=None)


_SIGNED = [(field, value) for field in ("E_J", "Phi_x", "mixing_angle",
                                        "n_g", "V_g")
           for value in (math.nan, math.inf, -math.inf)]
# the positive fields' own check refuses nan and -inf already
_POSITIVE = [(field, math.inf) for field in ("C_g", "C_J", "C_Sigma", "L",
                                             "c_line", "omega_mode", "Phi_0")]


@pytest.mark.parametrize("field, value", _SIGNED + _POSITIVE)
def test_spec_rejects_non_finite_inputs(field, value):
    gate = {"n_g": None} if field == "V_g" else {}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        _spec(**gate, **{field: value})


@pytest.mark.parametrize("field", ["g", "G", "Delta"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_raman_rejects_non_finite_inputs(field, value):
    spec = {"g": 1e8, "G": 1e8, "Delta": 1e10, field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        RamanSpec(**spec)


def test_spec_rejects_nonpositive_inputs():
    with pytest.raises(ValueError):
        _spec(C_g=0.0)
    with pytest.raises(ValueError):
        _spec(L=-0.01)
    with pytest.raises(ValueError):
        _spec(omega_mode=0.0)
    with pytest.raises(ValueError):
        _spec(Phi_0=0.0)


@pytest.mark.parametrize("fields, message", [
    ({"C_g": 0.0}, "C_g must be positive, got 0.0"),
    ({"C_Sigma": math.nan}, "C_Sigma must be positive, got nan"),
    ({"L": -0.01, "C_J": 0.0}, "C_J must be positive, got 0.0"),
    ({"omega_mode": 0.0, "c_line": -1.0}, "c_line must be positive, got -1.0"),
    ({"Phi_0": 0.0, "omega_mode": -1.0},
     "omega_mode must be positive, got -1.0"),
    ({"Phi_0": -0.0}, "Phi_0 must be positive, got -0.0"),
], ids=["c-g", "c-sigma-nan", "c-j-before-l", "c-line-before-omega",
        "omega-before-phi-0", "phi-0"])
def test_spec_validation_messages(fields, message):
    # the first failing field in declaration order is named
    with pytest.raises(ValueError) as info:
        _spec(**fields)
    assert str(info.value) == message


def test_range_flag_is_computed_from_value_and_range():
    # closed at both ends, open just outside them
    for value, inside in ((5e8, True), (5e9, True),
                          (math.nextafter(5e8, 0.0), False),
                          (math.nextafter(5e9, math.inf), False)):
        flag = RangeFlag(name="x", value=value, range=(5e8, 5e9))
        assert flag.within_paper_range is inside
        assert asdict(flag)["within_paper_range"] is inside
    with pytest.raises(TypeError):
        RangeFlag(name="x", value=1e9, range=(5e8, 5e9),
                  within_paper_range=False)


# --- bridge to the model ------------------------------------------------

def test_platform_outputs_map_to_model_parameters():
    d = to_dimensionless(PhysicalParams(v_g=1e8, a=0.01, J=1e10, Omega=5e10))
    assert d.kappa == 200.0
    assert d.W == 5.0
    assert d.gamma_ext == 0.0


def test_platform_map_takes_signed_coupling_and_loss():
    d = to_dimensionless(PhysicalParams(v_g=1e8, a=0.01, J=-1e10,
                                        Omega=5e10, Gamma_ext=2e10))
    assert d.kappa == 200.0
    assert d.gamma_ext == 2.0
