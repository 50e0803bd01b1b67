"""Independent numerical oracles used by the test suite.

These deliberately avoid the package's closed forms: the phase shift is
re-derived by integrating the wave equation with the atom's delta potential
regularized as a narrow Lorentzian, the resonance width by a Breit-Wigner
least-squares fit of the inverse enhancement, and the time-domain amplitude
by the exact piecewise-analytic solution of the delay equation, by its
exact series at 40 digits (mp_delay_series) and by one method-of-steps
integrator, interval_recurrence_dde, which also computes its own output
grid. Tests compare package outputs against these, never the other way
round. scalar_newton is not independent on purpose: it is the
one-seed-at-a-time Newton iteration in complex scalars, the reference for
the batched root kernel. mp_scattering evaluates the scattering closed form
at 40 digits, the reference that bounds the rounding error of the array
scattering kernel. polyfit_decay is the earlier tail fit by np.polyfit and
np.unwrap, the reference that bounds the rounding of the closed-form fit.
drained_dde is no oracle: it keeps the package's own streamed run as whole
arrays, for the tests that compare that run with one. Nor is
pi_shift_offset: it measures, exactly, how far a float shift by m pi lands
off, which bounds the tests of the pi-periodicity in W.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy.integrate import solve_ivp

from qnmlab.dynamics import DdeStream

#: Half width of the Lorentzian that stands in for the delta potential.
LORENTZIAN_HWHM = 1e-4

#: The kernel's support: |x - 1| <= this, renormalized to unit weight.
#: Without the cut the 1/u^2 far tails bias the phase by O(g * width),
#: ~1e-2 rad at the couplings probed here, which the delta limit lacks.
#: The residual bias is ~ |g| * theta^2 * (2 * width * support / pi), so
#: the support is kept small enough that this stays below ~5e-4 for every
#: probe point (|g| <= ~120, theta <= ~9.3).
KERNEL_SUPPORT = 1.5e-3

#: Matching radius where the outgoing sin(theta x + delta) form is read off.
MATCH_RADIUS = 11.0


def lorentzian_ode_phase(theta: float, kappa: float, w_level: float) -> float:
    """Scattering phase at energy theta from a regularized potential.

    Integrates phi'' = -theta^2 phi - theta * g * L(x-1) * phi from the
    mirror (phi(0) = 0, phi'(0) = theta, i.e. sin(theta x)) out to
    MATCH_RADIUS, where the solution is C sin(theta x + delta); L is a
    normalized Lorentzian of half width LORENTZIAN_HWHM, truncated to
    KERNEL_SUPPORT and renormalized, and g = kappa / (w_level - theta).
    Returns delta modulo pi. The integration is split at the support edges
    so each segment has a smooth right-hand side.
    """
    g = kappa / (w_level - theta)
    hw = LORENTZIAN_HWHM
    mass = (2.0 / math.pi) * math.atan(KERNEL_SUPPORT / hw)

    def rhs(x, y):
        phi, dphi = y
        u = x - 1.0
        if abs(u) > KERNEL_SUPPORT:
            bump = 0.0
        else:
            bump = (hw / math.pi) / (u * u + hw * hw) / mass
        return [dphi, -(theta * theta) * phi - theta * g * bump * phi]

    y = [0.0, theta]
    x0 = 0.0
    segments = ((1.0 - KERNEL_SUPPORT, np.inf),
                (1.0 + KERNEL_SUPPORT, hw / 5.0),
                (MATCH_RADIUS, np.inf))
    for x1, max_step in segments:
        sol = solve_ivp(rhs, (x0, x1), y, method="DOP853",
                        rtol=1e-11, atol=1e-13, max_step=max_step)
        if not sol.success:
            raise RuntimeError(f"oracle integration failed at theta={theta}: "
                               f"{sol.message}")
        y = [sol.y[0][-1], sol.y[1][-1]]
        x0 = x1
    phi, dphi = y
    return math.atan2(theta * phi, dphi) - theta * MATCH_RADIUS


#: pi to 40 digits, written out: m PI_40 is off m pi by under m 1e-40.
PI_40 = Fraction("3.141592653589793238462643383279502884197")


def pi_shift_offset(shifted: float, x: float, m: int) -> float:
    """shifted - (x + m pi), exact in fractions of the two floats and
    rounded once: how far a float shift of x by m pi lands off."""
    return float(Fraction(shifted) - Fraction(x) - m * PI_40)


def wrap_half_pi(x: float) -> float:
    """Map x into (-pi/2, pi/2] by removing multiples of pi."""
    return x - math.pi * round(x / math.pi)


def breit_wigner_fwhm(thetas: np.ndarray, enhancement: np.ndarray,
                      center: float) -> tuple[float, float]:
    """(peak position, FWHM) from a quadratic fit of 1/enhancement.

    Near an isolated resonance the enhancement is Lorentzian, so its inverse
    is a parabola a + b*(theta-center) + c*(theta-center)^2 with vertex at
    the resonance and FWHM = 2*sqrt(a/c - vertex^2) of the Lorentzian.
    """
    x = thetas - center
    design = np.vander(x, 3, increasing=True)
    a, b, c = np.linalg.lstsq(design, 1.0 / enhancement, rcond=None)[0]
    vertex = -b / (2.0 * c)
    half_width_sq = a / c - vertex * vertex
    if half_width_sq <= 0:
        raise RuntimeError("inverse-enhancement fit is not a well in this "
                           "window; widen or recentre the scan")
    return center + vertex, 2.0 * math.sqrt(half_width_sq)


def piecewise_delay_solution(kappa: float, w_level: float,
                             s_values: np.ndarray) -> np.ndarray:
    """Exact amplitude of dw/ds = -(iW + k/2) w(s) + (k/2) w(s-2), w0 = 1.

    On each delay interval [2m, 2m+2] the solution is exp(-lam*u) * P_m(u)
    with u the offset into the interval and P_m a polynomial obtained by
    integrating the previous one; this is the method of steps carried out
    in closed form. Only useful for small kappa * t (the polynomial
    coefficients grow like (kappa/2)^m / m!).
    """
    lam = 1j * w_level + kappa / 2.0
    s_values = np.asarray(s_values, dtype=float)
    n_intervals = int(math.floor(float(np.max(s_values)) / 2.0)) + 1
    polys: list[list[complex]] = [[1.0 + 0.0j]]
    for _ in range(n_intervals - 1):
        prev = polys[-1]
        integ = [0.0 + 0.0j] + [cj / (k + 1) for k, cj in enumerate(prev)]
        end_val = _polyval(prev, 2.0) * np.exp(-2.0 * lam)
        integ = [0.5 * kappa * cj for cj in integ]
        integ[0] = end_val
        polys.append(integ)

    out = np.empty(s_values.shape, dtype=complex)
    for i, s in enumerate(s_values):
        m = min(int(math.floor(s / 2.0)), n_intervals - 1)
        u = s - 2.0 * m
        out[i] = np.exp(-lam * u) * _polyval(polys[m], u)
    return out


def _polyval(coeffs: list[complex], u: float) -> complex:
    acc = 0.0 + 0.0j
    for c in reversed(coeffs):
        acc = acc * u + c
    return acc


def drained_dde(cfg):
    """(stream, times, w): DdeStream(cfg).chunks() copied into whole arrays.

    The stream, drained, holds the run's counts and peak |w|.
    """
    stream = DdeStream(cfg)
    times, w = np.empty(stream.rows), np.empty(stream.rows, dtype=complex)
    done = 0
    for t, chunk, _ in stream.chunks():
        times[done:done + len(t)], w[done:done + len(t)] = t, chunk
        done += len(t)
    return stream, times, w


# --- the method-of-steps integrator --------------------------------------

#: Largest |Re(lambda)*s| span handled in one vectorised block before the
#: running rescale kicks in (exp(400) is still comfortably inside float64).
_BLOCK_EXPONENT_CAP = 400.0

#: Output rows the grid thins to, as the package's does.
_OUTPUT_POINTS = 400_000


def _exp_integrals(z: complex) -> list[complex]:
    """I_p(z) = integral_0^1 exp(-z (1 - u)) u^p du for p = 0..3.

    Small |z| uses the series I_p = sum_n (-z)^n p! / (p + n + 1)! (the direct
    recurrence cancels catastrophically there); larger |z| uses the stable
    upward recurrence I_p = (1 - p I_{p-1}) / z.
    """
    if abs(z) < 1.0:
        out = []
        for p in range(4):
            term = 1.0 / (p + 1)
            total = term
            n = 0
            while abs(term) > 1e-20 and n < 60:
                n += 1
                term *= -z / (p + n + 1)
                total += term
            out.append(total)
        return out
    i0 = (1.0 - cmath.exp(-z)) / z
    i1 = (1.0 - i0) / z
    i2 = (1.0 - 2.0 * i1) / z
    i3 = (1.0 - 3.0 * i2) / z
    return [i0, i1, i2, i3]


def _hermite_forcing_weights(z: complex, dt: float) -> tuple[complex, complex,
                                                             complex, complex]:
    """Exact step integrals of the four cubic-Hermite basis functions.

    For a step [0, dt] with the delayed history represented as the Hermite
    cubic through (w_a, d_a) and (w_b, d_b), the forcing integral
    integral_0^dt exp(-z (dt - v)/dt * ... ) H(v) dv equals
    c_wa*w_a + c_da*d_a + c_wb*w_b + c_db*d_b with the weights below.
    """
    i0, i1, i2, i3 = _exp_integrals(z)
    c_wa = dt * (2.0 * i3 - 3.0 * i2 + i0)
    c_da = dt * dt * (i3 - 2.0 * i2 + i1)
    c_wb = dt * (-2.0 * i3 + 3.0 * i2)
    c_db = dt * dt * (i3 - i2)
    return c_wa, c_da, c_wb, c_db


def interval_recurrence_dde(cfg) -> tuple[np.ndarray, np.ndarray, float]:
    """(times, w, peak |w|) of the DDE by the method of steps.

    Within one delay interval the equation is linear with a known forcing
    (the previous interval's solution), so each step of dt multiplies by
    the exact exponential of the local part and adds the exact integral of
    the forcing represented by a cubic Hermite interpolant of the history,
    its derivatives read off the DDE. The forcing on interval m is then
    alpha u_k + beta u_{k+1} + gamma v_k + delta v_{k+1} over the nodes u
    of interval m - 1 and v of interval m - 2 (zero for m = 1), and the
    step recurrence is solved as a cumsum, each block of it multiplied by
    exp(-lam dt k) and kept below exp(400). Exact before the first return
    (s <= 2) and 4th order after, with an error that grows like (kappa
    dt)^4.

    The output grid is computed here, not read from the package: every
    stride-th node up to t_max, the stride thinning to about
    _OUTPUT_POINTS rows and a phase advance of at most ~pi/2. The peak is
    taken over every node. Raises RuntimeError above the
    single-excitation bound, as the package does.
    """
    d = cfg.d
    kappa, w_level = d.kappa, d.W
    n_per = int(round(2.0 / cfg.dt))
    dt = 2.0 / n_per
    lam = 1j * w_level + kappa / 2.0
    half_kappa = kappa / 2.0
    n_intervals = int(math.ceil(cfg.t_max / 2.0 - 1e-12))
    total_steps = n_per * n_intervals
    stride = max(1, int(total_steps / _OUTPUT_POINTS))
    phase_rate = w_level + math.pi
    if phase_rate > 0:
        stride = min(stride, max(1, int((math.pi / 2.0) / (phase_rate * dt))))
    c_wa, c_da, c_wb, c_db = _hermite_forcing_weights(lam * dt, dt)
    alpha = half_kappa * (c_wa - lam * c_da)
    beta = half_kappa * (c_wb - lam * c_db)
    gamma = half_kappa * half_kappa * c_da
    delta = half_kappa * half_kappa * c_db

    def advance(w_start, b):
        n = b.size
        out = np.empty(n + 1, dtype=complex)
        out[0] = w_start
        re_z = lam.real * dt
        block = n if re_z * n <= _BLOCK_EXPONENT_CAP else max(
            1, int(_BLOCK_EXPONENT_CAP / re_z))
        k0 = 0
        w_run = w_start
        while k0 < n:
            m = min(block, n - k0)
            grow = np.exp(lam * dt * np.arange(1, m + 1))
            decay = np.exp(-lam * dt * np.arange(1, m + 1))
            partial = np.cumsum(b[k0:k0 + m] * grow)
            out[k0 + 1:k0 + m + 1] = (w_run + partial) * decay
            w_run = out[k0 + m]
            k0 += m
        return out

    def kept(interval):
        start = (-interval * n_per) % stride
        return np.arange(start or stride, n_per + 1, stride)

    node_times = dt * np.arange(n_per + 1)
    w_prev = np.exp(-lam * node_times)
    w_back = np.zeros(n_per + 1, dtype=complex)
    out_times = [np.array([0.0]), node_times[kept(0)]]
    out_w = [np.array([1.0], dtype=complex), w_prev[kept(0)]]
    max_abs = float(np.max(np.abs(w_prev)))
    for m in range(1, n_intervals):
        b = (alpha * w_prev[:-1] + beta * w_prev[1:] + gamma * w_back[:-1]
             + delta * w_back[1:])
        w_cur = advance(w_prev[-1], b)
        keep = kept(m)
        out_times.append(2.0 * m + node_times[keep])
        out_w.append(w_cur[keep])
        max_abs = max(max_abs, float(np.max(np.abs(w_cur))))
        w_prev, w_back = w_cur, w_prev
    if max_abs > 1.0 + 1e-6:
        raise RuntimeError(f"|w| reached {max_abs}")
    times = np.concatenate(out_times)
    w = np.concatenate(out_w)
    inside = times <= cfg.t_max + 0.5 * dt
    return times[inside], w[inside], max_abs


def mp_delay_series(kappa: float, w_level: float, s_values,
                    dps: int = 40) -> np.ndarray:
    """w(s) of the DDE by its exact series at dps digits, from the exact floats.

    w(s) = sum_n P(n; kappa tau / 2) exp(-i W tau), tau = s - 2n, over the
    terms n >= 0 with tau >= 0 within 12 sqrt(n* + 1)/(1 + kappa) + 10 of
    n* = kappa s / (2 (1 + kappa)): the rest are below e^-70 of the
    largest, where qnmlab.dynamics stops at e^-40. Each term is exp(n ln
    lam - lam - ln n!) from mpmath's loggamma, with no Stirling series.
    """
    out = np.empty(len(s_values), dtype=complex)
    with mpmath.workdps(dps):
        k, wl = mpmath.mpf(kappa), mpmath.mpf(w_level)
        for i, s in enumerate(map(float, s_values)):
            centre = kappa * s / (2.0 * (1.0 + kappa))
            reach = 12.0 * math.sqrt(centre + 1.0) / (1.0 + kappa) + 10.0
            total = mpmath.mpc(0)
            for n in range(max(0, math.floor(centre - reach)),
                           min(int(s // 2), math.ceil(centre + reach)) + 1):
                tau = mpmath.mpf(s) - 2 * n
                lam = k * tau / 2
                if n == 0:
                    size = mpmath.exp(-lam)
                elif lam > 0:
                    size = mpmath.exp(n * mpmath.log(lam) - lam
                                      - mpmath.loggamma(n + 1))
                else:
                    continue
                total += size * mpmath.expj(-wl * tau)
            out[i] = complex(total)
    return out


def polyfit_decay(times: np.ndarray, w: np.ndarray,
                  window: tuple[float, float]) -> tuple[float, float, float]:
    """(omega_fit, gamma_fit, fit_residual) by the earlier tail fit.

    The reference for qnmlab.dynamics.fit_decay, kept as it was: a boolean
    mask selects the window, np.polyfit (a LAPACK least squares on the
    Vandermonde matrix) fits ln|w| to a line and np.unwrap unwraps the
    phase. gamma_fit is minus the slope, 0 for rounding drift; the window
    checks raise ValueError.
    """
    from qnmlab.dynamics import _FLAT_LOG_DRIFT, FIT_START

    s0, s1 = float(window[0]), float(window[1])
    if s0 < FIT_START * (1 - 1e-12):
        raise ValueError(
            f"window start {s0} is inside the transient; need >= {FIT_START}")
    if not s0 < s1:
        raise ValueError(f"empty window [{s0}, {s1}]")
    mask = (times >= s0) & (times <= s1)
    n = int(np.count_nonzero(mask))
    if n < 100:
        raise ValueError(f"only {n} samples in [{s0}, {s1}]; need >= 100")
    s, w = times[mask], w[mask]
    if not np.isfinite(w).all():
        raise ValueError(f"w is not finite inside [{s0}, {s1}]")
    amp = np.abs(w)
    if np.min(amp) < 1e-300:
        raise ValueError(
            "|w| underflows inside the window; shorten t_max or the window")
    log_amp = np.log(amp)
    slope, intercept = np.polyfit(s, log_amp, 1)
    gamma = -float(slope)
    if gamma <= -1e-10:
        raise ValueError(
            f"window shows amplitude growth (gamma = {gamma}); "
            f"not a decay tail")
    if gamma * (s[-1] - s[0]) <= _FLAT_LOG_DRIFT:
        gamma = 0.0
    residual = float(np.sqrt(np.mean((log_amp - (slope * s + intercept))**2)))
    phase = np.unwrap(np.angle(w))
    omega = -float(np.mean(np.diff(phase) / np.diff(s)))
    return omega, gamma, residual


def _char(theta: complex, kappa: float, w: complex) -> complex:
    return kappa * cmath.sin(theta) * cmath.exp(1j * theta) - (w - theta)


def scalar_newton(seed: complex, kappa: float, w: complex, tol: float,
                  max_iter: int) -> tuple[complex, float, int, bool]:
    """Newton iteration on f with analytic derivative.

    Returns (theta, |f(theta)|, iterations, converged). Once |f| <= tol the
    iterate is polished with up to three further steps as long as each one
    strictly reduces |f|; this drives the residual to its floating-point
    floor instead of stopping at the first sub-tolerance value.
    """
    theta = seed
    resid = abs(_char(theta, kappa, w))
    iterations = 0
    perturbations = 0
    while resid > tol and iterations < max_iter:
        deriv = kappa * cmath.exp(2j * theta) + 1.0
        if abs(deriv) < 1e-300:
            if perturbations >= 3:
                return theta, resid, iterations, False
            theta += 1e-6 * (1.0 + 1.0j)
            perturbations += 1
            resid = abs(_char(theta, kappa, w))
            continue
        theta = theta - _char(theta, kappa, w) / deriv
        resid = abs(_char(theta, kappa, w))
        iterations += 1
    if resid > tol:
        return theta, resid, iterations, False
    for _ in range(3):
        deriv = kappa * cmath.exp(2j * theta) + 1.0
        if abs(deriv) < 1e-300:
            break
        candidate = theta - _char(theta, kappa, w) / deriv
        cand_resid = abs(_char(candidate, kappa, w))
        if cand_resid < resid:
            theta, resid = candidate, cand_resid
            iterations += 1
        else:
            break
    return theta, resid, iterations, True


def mp_scattering(theta: float, kappa: float, w: float) -> tuple:
    """(delta, delay, enhancement, |F|) at 40 digits, from the exact floats.

    F = s [(W - theta - kappa sin cos) + i kappa sin^2] with s = -1 for
    theta > W, else +1; delta = arg F, delay = Im(F'/F) with F' = -s (1 +
    kappa e^(-2 i theta)), and enhancement (W - theta)^2 / |F|^2. F = 0
    (kappa = 0 at theta = W) is the decoupled atom: (0, 0, 1, 0).
    test_closed_forms_match_definitions checks these expressions against
    atan2(g sin^2, 1 - g sin cos), its derivative and sin^2(theta + delta)
    / sin^2(theta).
    """
    with mpmath.workdps(40):
        t, k, wl = mpmath.mpf(theta), mpmath.mpf(kappa), mpmath.mpf(w)
        side = -1 if t > wl else 1
        cos_t, sin_t = mpmath.cos_sin(t)
        re, im = wl - t - k * sin_t * cos_t, k * sin_t * sin_t
        size2 = re * re + im * im
        if size2 == 0:
            return 0.0, 0.0, 1.0, 0.0
        # F' / s = -(1 + kappa cos 2 theta) + i kappa sin 2 theta
        d_re = -(1 + k * (cos_t * cos_t - sin_t * sin_t))
        d_im = 2 * k * sin_t * cos_t
        return (float(mpmath.atan2(side * im, side * re)),
                float((d_im * re - d_re * im) / size2),
                float((wl - t) ** 2 / size2), float(mpmath.sqrt(size2)))
