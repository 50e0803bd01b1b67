"""Acceptance gate: one test per shipped guarantee, each printed as a
PASS/FAIL line in the terminal summary (see conftest.py).

Everything here is exercised through the public API exactly as a user
would drive it; tolerances are the shipped ones, not developer slack.
"""

import math
import time

import mpmath
import numpy as np
import pytest

from oracle_helpers import lorentzian_ode_phase, wrap_half_pi
from qnmlab.dynamics import DdeConfig, evolve_atom, pole_check
from qnmlab.emission import modified_emission_numeric
from qnmlab.model import DimensionlessParams
from qnmlab.platforms import (FLUX_QUANTUM, RamanSpec, SquidSpec,
                              raman_coupling, squid_coupling,
                              squid_level_spacing)
from qnmlab.qnm import (ContourBox, characteristic, count_roots_in_box,
                        find_modes, lifetime, refine_root, seed_mode,
                        slowest_mode, sweep_decay)
from qnmlab.scattering import enhancement_scan, phase_shift
from refs import SQUID_SCENARIO

D200 = DimensionlessParams(kappa=200.0, W=5.0)

#: 50-point oracle scan for the closed-form phase shift: repulsive-side
#: energies below the level plus the j = 1 resonance shoulder, where the
#: finite-width Lorentzian oracle itself is accurate to ~5e-4 rad.
ORACLE_SCAN = np.concatenate([np.linspace(0.4, 3.14, 30),
                              np.linspace(3.3, 4.2, 20)])


def test_01_reference_root_fast_and_accurate():
    mode = refine_root(seed_mode(1, D200), D200)
    assert mode.converged
    assert mode.theta.real == pytest.approx(3.15084, abs=1e-4)
    assert 8.0e-5 <= abs(mode.theta.imag) <= 9.2e-5
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        refine_root(seed_mode(1, D200), D200)
        best = min(best, time.perf_counter() - start)
    assert best < 1e-3


def test_02_seed_formula_tracks_refined_roots():
    for kappa in (50.0, 100.0, 200.0, 400.0):
        for w in (2.0, 4.0, 5.0, 7.0, 10.0):
            d = DimensionlessParams(kappa=kappa, W=w)
            j = round(w / math.pi)
            seed = seed_mode(j, d)
            mode = refine_root(seed, d)
            assert mode.converged
            bound = 10.0 / kappa**2 + 5.0 / kappa**3
            assert abs(mode.theta - seed) <= bound


def test_03_bound_states_at_exact_multiples():
    mpmath.mp.dps = 40
    for j in (1, 2, 3):
        for kappa in (10.0, 200.0):
            d = DimensionlessParams(kappa=kappa, W=j * math.pi)
            mode = refine_root(seed_mode(j, d), d)
            assert mode.converged
            assert mode.theta == complex(j * math.pi, 0.0)
            assert abs(mode.theta.imag) <= 1e-12
            theta = j * mpmath.pi
            residual = abs(kappa * mpmath.sin(theta)
                           * mpmath.exp(1j * theta) - (d.W - theta))
            assert residual <= 1e-14


def test_04_sweep_minima_at_pi_multiples():
    d = DimensionlessParams(kappa=200.0, W=1.0)
    ws = np.linspace(0.5, 12.0, 600)
    step = ws[1] - ws[0]
    points = sweep_decay(d, ws)
    vals = np.where(points.converged, points.im_theta_min, math.inf)
    for n in (1, 2, 3):
        center = n * math.pi
        window = np.where(np.abs(ws - center) <= 0.5)[0]
        best = window[np.argmin(vals[window])]
        assert abs(ws[best] - center) <= step
        for sign in (-1.0, 1.0):
            probe = int(np.argmin(np.abs(ws - (center + sign * 0.3))))
            assert vals[probe] >= 100.0 * vals[best]


def test_05_pole_identity_equivalence():
    rng = np.random.default_rng(1302)
    thetas = (rng.uniform(-5.0, 20.0, 1000)
              + 1j * rng.uniform(-1.0, 0.5, 1000))
    for theta in thetas:
        theta = complex(theta)
        f_abs = abs(characteristic(theta, D200))
        assert abs(pole_check(D200, theta) - f_abs) <= 1e-12 * (1.0 + f_abs)
    modes = find_modes(D200)
    for theta in modes.theta[modes.converged].tolist():
        assert pole_check(D200, theta) <= 1e-10


def test_06_time_frequency_agreement():
    for kappa, w in ((50.0, 2.0), (200.0, 5.0), (200.0, 7.5)):
        d = DimensionlessParams(kappa=kappa, W=w)
        star = slowest_mode(d).theta
        gamma = abs(star.imag)
        t_max = max(40.0, 2.0 * math.ceil(3.2 / gamma / 2.0))
        assert t_max * gamma >= 3.0
        start = time.perf_counter()
        result = evolve_atom(DdeConfig(d=d, t_max=t_max),
                             fit_window=(t_max / 2.0, t_max))
        elapsed = time.perf_counter() - start
        assert abs(result.fit.omega_fit - star.real) <= 0.01 * abs(star.real)
        assert abs(result.fit.gamma_fit - gamma) <= 0.01 * gamma
        pre = [(s, amp) for s, amp in zip(result.times, np.abs(result.w))
               if s < 2.0]
        assert pre
        for s, amp in pre:
            expected = math.exp(-0.5 * kappa * s)
            assert abs(amp - expected) <= 1e-8 * expected
        if (kappa, w) == (200.0, 5.0):
            assert elapsed < 30.0


def test_07_lifetime_quartic_in_coupling():
    tau = {}
    for kappa in (100.0, 200.0):
        d = DimensionlessParams(kappa=kappa, W=5.0)
        tau[kappa] = lifetime(refine_root(seed_mode(1, d), d))
    ratio = tau[200.0] / tau[100.0]
    assert ratio == pytest.approx(4.0, rel=0.02)


def test_08_scattering_cross_checks():
    star = refine_root(seed_mode(1, D200), D200).theta
    width = abs(star.imag)
    grid = np.linspace(3.13, 3.17, 4001)
    points = enhancement_scan(D200, grid)
    enh = points.enhancement
    delays = points.delay
    assert abs(grid[int(np.argmax(enh))] - star.real) <= 1e-3
    assert np.max(delays) == pytest.approx(1.0 / width, rel=0.05)
    for theta in ORACLE_SCAN:
        closed = phase_shift(float(theta), D200).delta
        numeric = lorentzian_ode_phase(float(theta), D200.kappa, D200.W)
        assert abs(wrap_half_pi(closed - numeric)) <= 1e-3


def test_09_emission_suppression():
    bare = abs(refine_root(seed_mode(1, D200), D200).theta.imag)
    rates = []
    for g_ext in (1e-2, 1e-3, 1e-4):
        d = DimensionlessParams(kappa=200.0, W=5.0, gamma_ext=g_ext)
        report = modified_emission_numeric(d, 1)
        assert report.gamma_t_numeric < g_ext
        frac = report.gamma_t_formula / report.gamma_t_numeric
        assert 0.5 <= frac <= 2.0
        rates.append(report.gamma_t_numeric)
    assert rates[0] > rates[1] > rates[2] > bare
    assert rates[2] == pytest.approx(bare, rel=0.01)


def test_10_root_count_certified():
    box = ContourBox(re_min=0.5, re_max=4.5 * math.pi,
                     im_min=-0.05, im_max=0.001)
    counted = count_roots_in_box(D200, box)
    modes = find_modes(D200)
    re, im = modes.theta.real, modes.theta.imag
    refined = set(modes.j[
        modes.converged
        & (box.re_min <= re) & (re <= box.re_max)
        & (box.im_min <= im) & (im <= box.im_max)
    ].tolist())
    assert counted == len(refined) == 4


def test_11_platform_maps():
    sc = SQUID_SCENARIO

    def spec(**overrides):
        base = dict(E_J=sc["E_J"], C_g=sc["C_g"], C_J=sc["C_J"],
                    C_Sigma=sc["C_Sigma"],
                    Phi_x=sc["Phi_x_over_Phi_0"] * FLUX_QUANTUM,
                    L=sc["L"], c_line=sc["c_line"],
                    omega_mode=sc["omega_mode"],
                    mixing_angle=sc["mixing_angle"], n_g=sc["n_g"])
        base.update(overrides)
        return SquidSpec(**base)

    # flux symmetry, exactly
    assert (squid_level_spacing(spec(Phi_x=0.3, Phi_0=1.0)).b_x
            == squid_level_spacing(spec(Phi_x=-0.3, Phi_0=1.0)).b_x)
    # degeneracy points, exactly
    assert squid_level_spacing(spec(n_g=0.5)).b_z == 0.0
    assert squid_level_spacing(spec(Phi_x=0.5 * FLUX_QUANTUM)).b_x == 0.0
    # Raman exchange and detuning halving, exactly
    assert (raman_coupling(RamanSpec(g=3.7e8, G=1.9e8, Delta=2.4e10))
            == raman_coupling(RamanSpec(g=1.9e8, G=3.7e8, Delta=2.4e10)))
    assert (raman_coupling(RamanSpec(g=3.7e8, G=1.9e8, Delta=1.2e10))
            == 2.0 * raman_coupling(RamanSpec(g=3.7e8, G=1.9e8,
                                              Delta=2.4e10)))
    # worked scenario lands inside both hardware windows; a detuned
    # variant is flagged outside
    levels = squid_level_spacing(spec())
    coupling = squid_coupling(spec())
    assert levels.flag.within_paper_range
    assert 5e9 <= levels.flag.value <= 15e9
    assert coupling.flag.within_paper_range
    assert 5e6 <= coupling.flag.value <= 200e6
    weak = squid_coupling(spec(mixing_angle=1e-4))
    assert not weak.flag.within_paper_range
