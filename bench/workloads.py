"""Seeded command lists for the three benchmark workloads.

Each workload is a fixed list of `qnmlab` subcommands drawn from the seed;
one pass runs the list once, in order. The why of each workload is in
README.md next to this file.

Known defects are drawn on purpose, with strata placed so that every seed
meets the same number of them (a steady error_rate): with the default
absolute tol=1e-12 the Newton residual floor, which grows like
kappa * eps * |theta|, rises above tol near kappa = 1130 for W <= 12, so
sweeps drawn from [1250, 2000] always leave gaps and sweeps drawn below
1000 never do; a j = 1..20 spectrum at kappa in [1000, 2000] always flags
unconverged modes; and the README evolve example fits over its default
window and misses the slowest mode by 9%.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import checks

#: Level-spacing range of every sweep (the README's sweep example).
SWEEP_W = (0.5, 12.0)

#: kappa strata of the bulk sweeps: three below the residual-floor
#: crossover near kappa = 1130, and a pair above it. The pair takes one draw
#: u, at u in its first stratum and at 1 - u in its second: above the
#: crossover a sweep's Newton work grows with kappa, so a fixed kappa sum
#: keeps the work of a pass the same on every seed.
BULK_SWEEP_LOW_STRATA = ((20.0, 340.0), (340.0, 670.0), (670.0, 1000.0))
BULK_SWEEP_HIGH_PAIR = ((1250.0, 1625.0), (1625.0, 2000.0))

#: kappa strata of the bulk j = 1..20 spectra: every mode converges in the
#: first four, and some never do in the last.
BULK_SPECTRUM_STRATA = ((50.0, 100.0), (100.0, 150.0), (150.0, 200.0),
                        (200.0, 250.0), (1000.0, 2000.0))

#: Fit window rule of `verify` and the acceptance test: decay by 3.2 e-folds
#: and fit [t_max/2, t_max].
EFOLDS = 3.2

#: Largest |W - j*pi| drawn for evolve; below pi/2, so mode j is the
#: slowest one without ambiguity.
MAX_DETUNING = 1.4

#: t_max the seeded evolve commands aim at (the detuning is solved for it),
#: so that a pass costs the same on every seed. The last one lets kappa
#: reach 150 within MAX_DETUNING.
EVOLVE_T_TARGETS = (6000.0, 12000.0, 37000.0)

#: Smallest t_max target, for reduced sizes: keeps MAX_DETUNING reachable
#: at kappa = 40.
MIN_T_TARGET = 3000.0

#: The README's evolve example, run with its default fit window.
README_EVOLVE = {"kappa": 50.0, "w": 2.0, "t_max": 6522.0}


@dataclass(frozen=True)
class Command:
    """One `qnmlab` subcommand; flags maps option names, with `_` for
    `-` and no leading dashes, to values (True for a bare switch)."""

    sub: str
    flags: dict

    def argv(self, out_dir: str) -> list[str]:
        out = [self.sub]
        for name, value in self.flags.items():
            flag = "--" + name.replace("_", "-")
            if value is True:
                out.append(flag)
            else:
                out += [flag, value if isinstance(value, str) else repr(value)]
        return out + ["--out-dir", out_dir]


def _stratum(rng: random.Random, lo: float, hi: float, k: int,
             n: int) -> float:
    """A uniform draw from the k-th of n equal slices of [lo, hi)."""
    width = (hi - lo) / n
    return rng.uniform(lo + k * width, lo + (k + 1) * width)


def _sized(full: int, scale: float, least: int) -> int:
    return max(least, round(full * scale))


def bulk_spectral(rng: random.Random, scale: float) -> list[Command]:
    """Few long frequency-domain commands: sweeps, scans, wide spectra.

    Per pass, from cheapest to dearest: 5 spectra, 2 scatters, 3 sweeps
    below the crossover and 2 above it. Over the 3 passes of a run (36
    latencies) the median is the middle of the 6 scatter samples and the
    tail (p72.2, 10 samples above it) the middle of the 9 low-kappa sweep
    samples. Each sits inside a cluster of like commands rather than at the
    edge between two, so a sample that host noise pushes into a
    neighbouring cluster moves it by one rank within its own.
    """
    points = _sized(40_000, scale, 50)
    kappas = [rng.uniform(lo, hi) for lo, hi in BULK_SWEEP_LOW_STRATA]
    u = rng.random()
    kappas += [lo + share * (hi - lo)
               for (lo, hi), share in zip(BULK_SWEEP_HIGH_PAIR, (u, 1.0 - u))]
    cmds = [Command("sweep", {"kappa": kappa, "w_min": SWEEP_W[0],
                              "w_max": SWEEP_W[1], "steps": points})
            for kappa in kappas]
    for lo, hi in ((20.0, 1000.0), (1000.0, 2000.0)):
        theta_min = rng.uniform(0.5, 3.0)
        cmds.append(Command("scatter", {
            "kappa": rng.uniform(lo, hi), "w": rng.uniform(*SWEEP_W),
            "theta_min": theta_min,
            "theta_max": theta_min + rng.uniform(6.0, 9.0),
            "samples": points}))
    for lo, hi in BULK_SPECTRUM_STRATA:
        cmds.append(Command("spectrum", {
            "kappa": rng.uniform(lo, hi), "w": rng.uniform(*SWEEP_W),
            "j_min": 1, "j_max": 20}))
    return cmds


def interactive(rng: random.Random, scale: float) -> list[Command]:
    """About 32 short commands, each dominated by start-up and import."""
    rounds = _sized(7, scale, 2)
    high = max(1, round(rounds / 4))   # sweeps drawn above the crossover
    cmds = []
    for r in range(rounds):
        kappa = _stratum(rng, 30.0, 600.0, r, rounds)
        w = rng.uniform(*SWEEP_W)
        theta_min = rng.uniform(0.5, 9.0)
        if r < rounds - high:
            kappa_sweep = _stratum(rng, 20.0, 1000.0, r, rounds - high)
        else:
            kappa_sweep = _stratum(rng, 1250.0, 2000.0, r - rounds + high,
                                   high)
        cmds += [
            Command("spectrum", {"kappa": kappa, "w": w}),
            Command("wavefunction", {"kappa": kappa, "w": w,
                                     "j": max(1, round(w / math.pi)),
                                     "x_max": rng.uniform(2.0, 10.0)}),
            Command("sweep", {"kappa": kappa_sweep, "w_min": SWEEP_W[0],
                              "w_max": SWEEP_W[1], "steps": 600}),
            Command("scatter", {"kappa": kappa, "w": w,
                                "theta_min": theta_min,
                                "theta_max": (theta_min
                                              + rng.uniform(0.5, 3.0))}),
        ]
    cmds.append(Command("map", {
        "platform": "squid", "frequency_unit": "ordinary",
        "e_j": rng.uniform(4e9, 6e9), "c_g": 0.7e-15, "c_j": 0.3e-15,
        "c_sigma": 1.3e-15, "phi_x": rng.uniform(5e-16, 7e-16), "l": 0.01,
        "c_line": 1.67e-10, "omega_mode": 10e9,
        "mixing_angle": rng.uniform(0.5, 1.0),
        "n_g": rng.uniform(0.4, 0.5)}))
    cmds.append(Command("map", {
        "platform": "raman", "g": rng.uniform(1e9, 5e9),
        "big_g": rng.uniform(1e9, 5e9), "delta": rng.uniform(2e10, 1e11)}))
    cmds += [Command("verify", {"quick": True}) for _ in range(2)]
    return cmds


def time_domain(rng: random.Random, scale: float) -> list[Command]:
    """Seeded evolve commands near a bound state, plus the README example."""
    targets = EVOLVE_T_TARGETS[:_sized(len(EVOLVE_T_TARGETS), scale, 1)]
    cmds = []
    for full_target in targets:
        target = max(MIN_T_TARGET, full_target * scale)
        kappa_max = min(150.0, MAX_DETUNING * math.sqrt(target / EFOLDS))
        kappa = rng.uniform(40.0, max(40.0, kappa_max))
        # |Im theta*| ~ (W - j pi)^2 / kappa^2 puts t_max near the target.
        detuning = min(MAX_DETUNING, kappa * math.sqrt(EFOLDS / target))
        w = rng.choice((1, 2)) * math.pi + rng.choice((-1, 1)) * detuning
        gamma = abs(checks.slowest_root(kappa, w).imag)
        t_max = max(40.0, 2.0 * math.ceil(EFOLDS / gamma / 2.0))
        cmds.append(Command("evolve", {"kappa": kappa, "w": w,
                                       "t_max": t_max,
                                       "fit_start": t_max / 2.0,
                                       "fit_end": t_max}))
    cmds.append(Command("evolve", dict(README_EVOLVE)))
    return cmds


#: Wall time of one pass on the shared 2-core Xeon host that defined the
#: benchmark, in its usual state. It turns --seconds into a pass count that
#: is the same on every run, so the sample count and the percentile the
#: tail reads stay fixed even when the host is busy.
NOMINAL_PASS_S = {"bulk-spectral": 13.5, "interactive": 20.0,
                  "time-domain": 24.0}

WORKLOADS = {
    "bulk-spectral": bulk_spectral,
    "interactive": interactive,
    "time-domain": time_domain,
}
