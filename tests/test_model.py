"""Parameter containers and unit conversions."""

import math

import pytest

from qnmlab.model import (DimensionlessParams, PhysicalParams,
                          to_dimensionless, to_physical)


def test_physical_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(v_g=0.0, a=1.0, J=1.0, Omega=1.0)
    with pytest.raises(ValueError):
        PhysicalParams(v_g=1.0, a=-2.0, J=1.0, Omega=1.0)
    with pytest.raises(ValueError):
        PhysicalParams(v_g=1.0, a=1.0, J=1.0, Omega=-0.5)
    with pytest.raises(ValueError):
        PhysicalParams(v_g=1.0, a=1.0, J=1.0, Omega=1.0, Gamma_ext=-1e-3)
    with pytest.raises(ValueError):
        PhysicalParams(v_g=math.inf, a=1.0, J=1.0, Omega=1.0)


@pytest.mark.parametrize("make, message", [
    (lambda: PhysicalParams(v_g=0.0, a=-1.0, J=1.0, Omega=-1.0),
     "v_g must be positive, got 0.0"),
    (lambda: PhysicalParams(v_g=1.0, a=-2.0, J=-1.0, Omega=-1.0),
     "a must be positive, got -2.0"),
    (lambda: PhysicalParams(v_g=1.0, a=1.0, J=-1.0, Omega=-0.5,
                            Gamma_ext=-1.0),
     "Omega must be non-negative, got -0.5"),
    (lambda: PhysicalParams(v_g=1.0, a=1.0, J=1.0, Omega=1.0,
                            Gamma_ext=-1e-3),
     "Gamma_ext must be non-negative, got -0.001"),
    (lambda: DimensionlessParams(kappa=-1.0, W=-5.0),
     "kappa must be non-negative, got -1.0"),
    (lambda: DimensionlessParams(kappa=1.0, W=-5.0, gamma_ext=-0.1),
     "W must be non-negative, got -5.0"),
    (lambda: DimensionlessParams(kappa=1.0, W=5.0, gamma_ext=-0.1),
     "gamma_ext must be non-negative, got -0.1"),
], ids=["v_g", "a", "Omega", "Gamma_ext", "kappa", "W", "gamma_ext"])
def test_validation_messages_name_the_first_bad_field(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize("v_g, a", [(0.0, 1.0), (1.0, -0.5)])
def test_to_physical_rejects_nonpositive_scales(v_g, a):
    d = DimensionlessParams(kappa=200.0, W=5.0)
    with pytest.raises(ValueError, match="^v_g and a must be positive, got "):
        to_physical(d, v_g=v_g, a=a)


def test_negative_coupling_is_normalised():
    # only J**2 is observable, so the container stores |J|
    p = PhysicalParams(v_g=1.0, a=1.0, J=-10.0, Omega=5.0)
    assert p.J == 10.0


def test_dimensionless_params_validation():
    with pytest.raises(ValueError):
        DimensionlessParams(kappa=-1.0, W=5.0)
    with pytest.raises(ValueError):
        DimensionlessParams(kappa=1.0, W=-5.0)
    with pytest.raises(ValueError):
        DimensionlessParams(kappa=1.0, W=5.0, gamma_ext=-0.1)
    with pytest.raises(ValueError):
        DimensionlessParams(kappa=math.nan, W=5.0)


def test_conversion_examples():
    # kappa = 2 J^2 a / v_g^2, W = Omega a / v_g
    d = to_dimensionless(PhysicalParams(v_g=1.0, a=1.0, J=10.0, Omega=5.0))
    assert d.kappa == pytest.approx(200.0, rel=1e-15)
    assert d.W == pytest.approx(5.0, rel=1e-15)

    d2 = to_dimensionless(PhysicalParams(v_g=2.0, a=1.0, J=10.0, Omega=5.0))
    assert d2.kappa == pytest.approx(50.0, rel=1e-15)
    assert d2.W == pytest.approx(2.5, rel=1e-15)


def test_zero_coupling_maps_to_zero_kappa():
    d = to_dimensionless(PhysicalParams(v_g=1.0, a=1.0, J=0.0, Omega=3.0))
    assert d.kappa == 0.0


def test_external_rate_mapping():
    p = PhysicalParams(v_g=4.0, a=2.0, J=1.0, Omega=1.0, Gamma_ext=0.3)
    d = to_dimensionless(p)
    assert d.gamma_ext == pytest.approx(0.15, rel=1e-15)


def test_round_trip_physical_to_dimensionless():
    p = PhysicalParams(v_g=3.0, a=0.5, J=7.0, Omega=11.0, Gamma_ext=0.2)
    d = to_dimensionless(p)
    back = to_physical(d, v_g=3.0, a=0.5)
    assert back.J == pytest.approx(p.J, rel=1e-12)
    assert back.Omega == pytest.approx(p.Omega, rel=1e-12)
    assert back.Gamma_ext == pytest.approx(p.Gamma_ext, rel=1e-12)


def test_round_trip_dimensionless_to_physical():
    d = DimensionlessParams(kappa=200.0, W=5.0, gamma_ext=0.01)
    p = to_physical(d, v_g=2.0, a=0.25)
    again = to_dimensionless(p)
    assert again.kappa == pytest.approx(d.kappa, rel=1e-12)
    assert again.W == pytest.approx(d.W, rel=1e-12)
    assert again.gamma_ext == pytest.approx(d.gamma_ext, rel=1e-12)


def test_rescaling_leaves_dimensionless_form_fixed():
    # stretching the geometry (a -> lam*a) while sending J -> J/sqrt(lam)
    # and Omega -> Omega/lam keeps both kappa and W fixed
    base = PhysicalParams(v_g=1.5, a=0.8, J=6.0, Omega=9.0)
    d0 = to_dimensionless(base)
    for lam in (2.0, 5.0, 0.125):
        scaled = PhysicalParams(v_g=base.v_g, a=lam * base.a,
                                J=base.J / math.sqrt(lam),
                                Omega=base.Omega / lam)
        d = to_dimensionless(scaled)
        assert d.kappa == pytest.approx(d0.kappa, rel=1e-12)
        assert d.W == pytest.approx(d0.W, rel=1e-12)

