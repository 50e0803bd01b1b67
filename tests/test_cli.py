"""Command-line front end: CSV/JSON outputs, manifest contract, exit
codes and rerun determinism (all driven in-process through main())."""

import json
import math
import os
import subprocess
import sys
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

from qnmlab import __version__
from qnmlab.cli import _build_parser, main
from qnmlab.dynamics import (DdeConfig, evolve_atom, fit_decay,
                             integrate_dde)
from qnmlab.model import DimensionlessParams
from qnmlab.qnm import (ContourError, find_modes, lifetime_from_theta,
                        refine_root, seed_mode, sweep_decay)
from qnmlab.scattering import enhancement_scan, qnm_wavefunction
from refs import ROOTS

SRC = Path(__file__).resolve().parents[1] / "src"

MANIFEST_KEYS = {"command", "parameters", "tool_version", "timestamp",
                 "outputs", "warnings"}


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def _manifest(tmp_path):
    data = json.loads((tmp_path / "manifest.json").read_text())
    assert MANIFEST_KEYS <= set(data)
    datetime.fromisoformat(data["timestamp"])  # must parse
    assert data["tool_version"] == __version__
    return data


# --- spectrum -----------------------------------------------------------

def test_spectrum_writes_mode_table(tmp_path):
    code = main(["spectrum", "--kappa", "200", "--w", "5",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    header, rows = _read_csv(tmp_path / "modes.csv")
    assert header == ["j", "re_theta", "im_theta", "residual", "lifetime",
                      "converged"]
    assert len(rows) == 6
    j1 = rows[0]
    assert int(j1[0]) == 1
    root = ROOTS[(200.0, 5.0, 1)]
    assert float(j1[1]) == pytest.approx(root.real, rel=1e-9)
    assert float(j1[2]) == pytest.approx(root.imag, rel=1e-6)
    assert float(j1[4]) == pytest.approx(1.0 / abs(root.imag), rel=1e-6)
    assert j1[5] == "true"
    manifest = _manifest(tmp_path)
    assert manifest["command"] == "spectrum"
    assert manifest["warnings"] == []
    assert manifest["parameters"]["kappa"] == 200.0
    # Newton diagnostics, one entry per modes.csv row
    assert [m["j"] for m in manifest["modes"]] == [1, 2, 3, 4, 5, 6]
    assert all(1 <= m["iterations"] <= 25 and m["note"] == ""
               for m in manifest["modes"])


def test_spectrum_bound_state_row(tmp_path):
    code = main(["spectrum", "--kappa", "200", "--w", repr(math.pi),
                 "--out-dir", str(tmp_path)])
    assert code == 0
    _, rows = _read_csv(tmp_path / "modes.csv")
    assert abs(float(rows[0][2])) <= 1e-12
    assert math.isinf(float(rows[0][4]))


def test_spectrum_weak_coupling_is_usage_error(tmp_path, capsys):
    code = main(["spectrum", "--kappa", "0.5", "--w", "5",
                 "--out-dir", str(tmp_path)])
    assert code == 1
    assert "kappa" in capsys.readouterr().err


def test_spectrum_unreachable_tolerance_is_partial(tmp_path):
    # tol below double precision: Newton cannot certify any root, the rows
    # are still written but flagged, and the run reports partial results
    code = main(["spectrum", "--kappa", "200", "--w", "5", "--tol", "1e-30",
                 "--out-dir", str(tmp_path)])
    assert code == 2
    _, rows = _read_csv(tmp_path / "modes.csv")
    assert all(row[5] == "false" for row in rows)
    manifest = _manifest(tmp_path)
    assert len(manifest["warnings"]) == len(rows)


def test_rerun_is_byte_identical(tmp_path):
    assert main(["spectrum", "--kappa", "200", "--w", "5",
                 "--out-dir", str(tmp_path)]) == 0
    first_csv = (tmp_path / "modes.csv").read_bytes()
    first_manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert main(["spectrum", "--kappa", "200", "--w", "5",
                 "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "modes.csv").read_bytes() == first_csv
    second_manifest = json.loads((tmp_path / "manifest.json").read_text())
    for manifest in (first_manifest, second_manifest):
        manifest.pop("timestamp")
        # wall seconds differ between runs, as the timestamp does
        assert manifest["csv"]["modes.csv"].pop("write_s") >= 0.0
    assert first_manifest == second_manifest


def test_worker_count_does_not_change_output(tmp_path, monkeypatch):
    assert main(["spectrum", "--kappa", "200", "--w", "5",
                 "--out-dir", str(tmp_path / "serial")]) == 0
    monkeypatch.setenv("QNMLAB_THREADS", "3")
    assert main(["spectrum", "--kappa", "200", "--w", "5",
                 "--out-dir", str(tmp_path / "threaded")]) == 0
    assert ((tmp_path / "serial" / "modes.csv").read_bytes()
            == (tmp_path / "threaded" / "modes.csv").read_bytes())


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("argv, name", [
    (["spectrum", "--kappa", "1.2", "--w", "0.3", "--j-max", "3"],
     "modes.csv"),
    (["sweep", "--kappa", "200", "--w-min", "0.5", "--w-max", "12",
      "--steps", "20"], "sweep.csv"),
], ids=["spectrum", "sweep"])
def test_bad_tolerance_is_usage_error(tmp_path, capsys, argv, name, tol):
    code = main(argv + ["--tol", tol, "--out-dir", str(tmp_path)])
    assert code == 1
    assert "tol" in capsys.readouterr().err
    assert not (tmp_path / name).exists()


def test_spectrum_with_overflowing_seeds_is_silent(tmp_path, capsys):
    # at kappa = 1.2 the seeds of j >= 4 lie far below the real axis, where
    # f overflows; they stop unconverged without a numpy warning
    code = main(["spectrum", "--kappa", "1.2", "--w", "5", "--j-min", "1",
                 "--j-max", "12", "--out-dir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == ""


def test_unconverged_mode_warnings_are_distinct(tmp_path):
    code = main(["spectrum", "--kappa", "1.2", "--w", "5", "--j-min", "1",
                 "--j-max", "12", "--out-dir", str(tmp_path)])
    assert code == 2
    warnings = _manifest(tmp_path)["warnings"]
    assert len(warnings) == 9
    assert len(set(warnings)) == len(warnings)
    assert not any("no note" in w for w in warnings)


DUPLICATE_ARGV = ["spectrum", "--kappa", "1.8618254128079412",
                  "--w", "7.041582857257689"]


def test_spectrum_keeps_the_converged_copy_of_a_root(tmp_path):
    # the j = 5 seed stops at |f| = 1.4e-11 on the j = 2 root, which the
    # j = 2 seed reaches at the rounding floor: one row, converged; only
    # the j = 6 seed's row is flagged
    assert main(DUPLICATE_ARGV + ["--out-dir", str(tmp_path)]) == 2
    _, rows = _read_csv(tmp_path / "modes.csv")
    assert [(row[0], row[5]) for row in rows] == [
        ("1", "true"), ("2", "true"), ("3", "true"), ("4", "true"),
        ("5", "false")]
    warnings = _manifest(tmp_path)["warnings"]
    assert len(warnings) == 1 and warnings[0].startswith("mode j=5 ")


def test_spectrum_manifest_records_each_disc(tmp_path):
    # radius is null where no disc was proved: NaN is not JSON
    assert main(DUPLICATE_ARGV + ["--out-dir", str(tmp_path)]) == 2
    text = (tmp_path / "manifest.json").read_text()
    records = json.loads(text, parse_constant=pytest.fail)["modes"]
    assert all(set(m) == {"j", "iterations", "note", "radius"}
               for m in records)
    radii = [m["radius"] for m in records]
    assert radii[-1] is None
    assert all(0 < r < 1e-13 for r in radii[:-1])


def test_spectrum_without_a_proved_disc_is_partial(tmp_path, monkeypatch):
    # fault injection: no disc is proved, so no row converges however small
    # its |f|
    monkeypatch.setattr("qnmlab.qnm._rounding_error",
                        lambda d, grow, z: grow * math.inf)
    assert main(["spectrum", "--kappa", "200", "--w", "5",
                 "--out-dir", str(tmp_path)]) == 2
    _, rows = _read_csv(tmp_path / "modes.csv")
    assert all(float(row[3]) <= 1e-12 and row[5] == "false" for row in rows)
    warnings = _manifest(tmp_path)["warnings"]
    assert len(warnings) == 6
    assert all("no root disc was proved" in w for w in warnings)


# --- sweep --------------------------------------------------------------

def test_sweep_bound_state_row(tmp_path):
    code = main(["sweep", "--kappa", "200", "--w-min", repr(math.pi),
                 "--w-max", repr(math.pi), "--steps", "1",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    header, rows = _read_csv(tmp_path / "sweep.csv")
    assert header == ["w", "im_theta_min", "j_used"]
    assert float(rows[0][1]) == 0.0
    assert int(rows[0][2]) == 1


def test_sweep_above_the_largest_usable_w_writes_gaps(tmp_path, capsys):
    code = main(["sweep", "--kappa", "200", "--w-min", "1", "--w-max",
                 "1e200", "--steps", "3", "--out-dir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == ""
    _, rows = _read_csv(tmp_path / "sweep.csv")
    assert [row[1:] for row in rows[1:]] == [["nan", "0"], ["nan", "0"]]
    warnings = _manifest(tmp_path)["warnings"]
    assert len(warnings) == 2
    assert all("largest usable W = 1.4488038916154245e+19" in w
               for w in warnings)


def test_sweep_near_the_largest_usable_w_reads_no_bound_state(tmp_path):
    # j*pi rounds onto these W; they are solved and do not converge
    code = main(["sweep", "--kappa", "200", "--w-min", "1.4e19", "--w-max",
                 "1.4488038916154245e+19", "--steps", "3",
                 "--out-dir", str(tmp_path)])
    assert code == 2
    warnings = _manifest(tmp_path)["warnings"]
    assert len(warnings) == 3
    assert not [w for w in warnings if "exact bound state" in w]


def test_sweep_gap_rows_write_nan(tmp_path):
    # an unconverged row carries no decay rate, only its manifest warning
    code = main(["sweep", "--kappa", "200", "--w-min", "1.4e19", "--w-max",
                 "1.4488038916154245e+19", "--steps", "3",
                 "--out-dir", str(tmp_path)])
    assert code == 2
    _, rows = _read_csv(tmp_path / "sweep.csv")
    assert [row[1] for row in rows] == ["nan", "nan", "nan"]
    assert len(_manifest(tmp_path)["warnings"]) == 3


@pytest.mark.parametrize("argv", [
    ["spectrum", "--kappa", "200", "--w", "1e200"],
    ["wavefunction", "--kappa", "200", "--w", "1e200", "--j", "1",
     "--x-max", "2"],
    ["evolve", "--kappa", "200", "--w", "1e200", "--t-max", "40"],
], ids=["spectrum", "wavefunction", "evolve"])
def test_w_above_the_largest_usable_w_is_usage_error(tmp_path, capsys,
                                                       argv):
    code = main(argv + ["--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert list(tmp_path.iterdir()) == []
    # one line naming the largest usable W, nothing printed from numpy
    assert err.count("\n") == 1
    assert err.startswith(f"qnmlab {argv[0]}: W must be at most "
                          f"1.4488038916154245e+19, the largest usable W")


# --- wavefunction -------------------------------------------------------

def test_wavefunction_starts_at_mirror_node(tmp_path):
    code = main(["wavefunction", "--kappa", "200", "--w", "5", "--j", "1",
                 "--x-max", "3", "--samples", "31",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    header, rows = _read_csv(tmp_path / "wavefunction.csv")
    assert header == ["x", "re_phi", "im_phi", "abs_phi"]
    assert len(rows) == 31
    assert [float(c) for c in rows[0]] == [0.0, 0.0, 0.0, 0.0]
    manifest = _manifest(tmp_path)
    root = ROOTS[(200.0, 5.0, 1)]
    assert manifest["mode"]["re_theta"] == pytest.approx(root.real, rel=1e-9)


@pytest.mark.parametrize("growth", [
    8500.0,     # x_max near 1e8: exp of the tail exponent overflows
    710.3,      # exp(growth) overflows, exp(growth - 1) * e does not
])
def test_wavefunction_past_the_tail_overflow_is_usage_error(
        tmp_path, capsys, growth):
    d = DimensionlessParams(kappa=200.0, W=5.0)
    gamma = abs(refine_root(seed_mode(1, d), d).theta.imag)
    code = main(_WAVEFUNCTION + ["--x-max", repr(1.0 + growth / gamma),
                                 "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert list(tmp_path.iterdir()) == []
    # one line naming the largest usable x, nothing printed from numpy
    limit = 1.0 + math.log(sys.float_info.max) / gamma
    assert err.count("\n") == 1 and f"{limit:.6g}" in err


# --- scatter ------------------------------------------------------------

def test_scatter_decoupled_atom(tmp_path):
    code = main(["scatter", "--kappa", "0", "--w", "5", "--theta-min", "0.5",
                 "--theta-max", "6", "--samples", "12",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    header, rows = _read_csv(tmp_path / "scatter.csv")
    assert header == ["theta", "delta", "delay", "enhancement"]
    assert all(float(r[1]) == 0.0 and float(r[3]) == 1.0 for r in rows)


def test_scatter_huge_coupling_is_finite_and_quiet(tmp_path):
    # kappa = 1e308 through theta = W: no overflow warning on stderr
    done = subprocess.run(
        [sys.executable, "-m", "qnmlab.cli", "scatter", "--kappa", "1e308",
         "--w", "5", "--theta-min", "4", "--theta-max", "6", "--samples",
         "9", "--out-dir", str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
        text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    _, rows = _read_csv(tmp_path / "scatter.csv")
    assert len(rows) == 9
    assert all(math.isfinite(float(cell)) for row in rows for cell in row)


def test_scatter_rejects_bad_window(tmp_path, capsys):
    code = main(["scatter", "--kappa", "200", "--w", "5",
                 "--theta-min", "3", "--theta-max", "1",
                 "--out-dir", str(tmp_path)])
    assert code == 1
    assert "theta" in capsys.readouterr().err


_WAVEFUNCTION = ["wavefunction", "--kappa", "200", "--w", "5", "--j", "1"]
_SWEEP = ["sweep", "--kappa", "200", "--steps", "5"]
_SCATTER = ["scatter", "--kappa", "200", "--w", "5"]


@pytest.mark.parametrize("argv, flag", [
    (_WAVEFUNCTION + ["--x-max", "nan"], "--x-max"),
    (_WAVEFUNCTION + ["--x-max", "inf"], "--x-max"),
    (_SWEEP + ["--w-min", "nan", "--w-max", "5"], "--w-min"),
    (_SWEEP + ["--w-min=-inf", "--w-max", "5"], "--w-min"),
    (_SWEEP + ["--w-min", "1", "--w-max", "inf"], "--w-max"),
    (_SCATTER + ["--theta-min", "nan", "--theta-max", "2"], "--theta-min"),
    (_SCATTER + ["--theta-min", "1", "--theta-max", "inf"], "--theta-max"),
], ids=["x-max-nan", "x-max-inf", "w-min-nan", "w-min-neg-inf", "w-max-inf",
        "theta-min-nan", "theta-max-inf"])
def test_non_finite_range_flag_is_usage_error(tmp_path, capsys, argv, flag):
    code = main(argv + ["--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert list(tmp_path.iterdir()) == []
    # one line naming the flag, nothing printed from numpy
    assert err.count("\n") == 1 and flag in err and "finite" in err


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--kappa", "200", "--w-min", "1", "--w-max", "2", "--steps",
      "0"], "qnmlab sweep: --steps must be >= 1\n"),
    (_SCATTER + ["--theta-min", "3", "--theta-max", "1"],
     "qnmlab scatter: need 0 < --theta-min < --theta-max\n"),
    (_WAVEFUNCTION + ["--x-max", "40", "--samples", "1"],
     "qnmlab wavefunction: --samples must be >= 2\n"),
    (_WAVEFUNCTION + ["--x-max", "0"],
     "qnmlab wavefunction: --x-max must be positive\n"),
    (_SCATTER + ["--theta-min", "1", "--theta-max", "3", "--samples", "1"],
     "qnmlab scatter: --samples must be >= 2\n"),
    (["evolve", "--kappa", "50", "--w", "2", "--t-max", "40", "--fit-start",
      "20"], "qnmlab evolve: give both --fit-start and --fit-end or neither\n"),
], ids=["sweep-steps", "scatter-window", "wavefunction-samples",
        "wavefunction-x-max", "scatter-samples", "evolve-fit-start-alone"])
def test_command_usage_errors_name_the_command(tmp_path, capsys, argv,
                                               message):
    assert main(argv + ["--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == message


def test_wavefunction_unconverged_mode_writes_no_samples(tmp_path):
    code = main(_WAVEFUNCTION + ["--x-max", "40", "--tol", "1e-30",
                                 "--out-dir", str(tmp_path)])
    assert code == 2
    warnings = _manifest(tmp_path)["warnings"]
    assert len(warnings) == 1
    assert warnings[0].startswith("mode j=1 did not converge")
    assert not (tmp_path / "wavefunction.csv").exists()


# --- evolve -------------------------------------------------------------

def test_evolve_decoupled_atom_keeps_norm(tmp_path):
    code = main(["evolve", "--kappa", "0", "--w", "5", "--t-max", "40",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    _, rows = _read_csv(tmp_path / "evolve.csv")
    assert all(abs(float(r[3]) - 1.0) <= 1e-12 for r in rows)
    manifest = _manifest(tmp_path)
    assert manifest["fit"]["gamma_fit"] == 0.0
    dde = manifest["dde"]
    assert (dde["n_per"], dde["n_intervals"], dde["stride"]) == (2000, 20, 1)
    assert dde["output_points"] == len(rows) == 40001
    assert abs(dde["peak_abs_w"] - 1.0) <= 1e-12
    assert all(dde[k] >= 0.0 for k in ("integrate_s", "fit_s"))
    assert manifest["csv"]["evolve.csv"]["write_s"] >= 0.0


@pytest.mark.parametrize("window", [["nan", "40"], ["20", "inf"]],
                         ids=["fit-start-nan", "fit-end-inf"])
def test_evolve_non_finite_fit_window_is_usage_error(tmp_path, capsys,
                                                     window):
    code = main(["evolve", "--kappa", "50", "--w", "2", "--t-max", "200",
                 "--fit-start", window[0], "--fit-end", window[1],
                 "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert list(tmp_path.iterdir()) == []
    assert err.count("\n") == 1 and "--fit-" in err and "finite" in err


def test_evolve_too_coarse_step_is_usage_error(tmp_path, capsys):
    # kappa * dt / 2 = 5000: one step's growth factor overflows float64
    code = main(["evolve", "--kappa", "1e6", "--w", "2", "--t-max", "20",
                 "--dt", "0.01", "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert list(tmp_path.iterdir()) == []
    # one line naming dt, nothing printed from numpy
    assert err.count("\n") == 1 and "dt = 0.01" in err


def test_evolve_short_run_warns_and_fails_usefully(tmp_path, capsys):
    # t_max * gamma ~ 4e-3 << 3: the run cannot see the slowest decay;
    # the beating tail is not a clean exponential and the fit refuses
    code = main(["evolve", "--kappa", "200", "--w", "5", "--t-max", "100",
                 "--out-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "barely decays" in err
    assert "--t-max" in err
    # one line, with the command prefix of every other stderr line
    assert err.count("\n") == 1
    assert err.startswith("qnmlab evolve: decay fit failed: ")


@pytest.mark.parametrize("argv, remedy, wrong", [
    # |w| underflows before the earliest window: neither a longer nor a
    # shorter run can help
    (["--kappa", "1419500", "--w", "2", "--t-max", "40"],
     "try a smaller --kappa", "increase --t-max"),
    # the beating tail of a short run: a longer run or a later window can
    (["--kappa", "200", "--w", "5", "--t-max", "100"],
     "increase --t-max or pass a later --fit-start/--fit-end", "shorten"),
], ids=["stiff", "short"])
def test_failed_fit_names_its_own_remedy_once(tmp_path, capsys, argv,
                                              remedy, wrong):
    code = main(["evolve", *argv, "--out-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("qnmlab evolve: decay fit failed: ")
    assert err.count(remedy) == 1 and wrong not in err


def test_evolve_runs_on_without_the_expected_rate(tmp_path, monkeypatch):
    # the coverage warning's reference root does not converge: the warning
    # says so and the run is integrated, fitted and written as usual
    monkeypatch.setattr("qnmlab.qnm.MAX_NEWTON_STEPS", 0)
    code = main(["evolve", "--kappa", "10", "--w", "2", "--t-max", "40",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    manifest = _manifest(tmp_path)
    assert manifest["warnings"] == [
        "expected decay rate unavailable: no converged mode near W = 2.0 "
        "for kappa = 10.0"]
    assert {"dde", "fit"} <= set(manifest)
    assert (tmp_path / "evolve.csv").exists()


def test_failed_evolve_keeps_trajectory_and_manifest(tmp_path):
    # the fit fails (exit 1), but the integrated run is written out
    code = main(["evolve", "--kappa", "200", "--w", "5", "--t-max", "100",
                 "--out-dir", str(tmp_path)])
    assert code == 1
    cfg = DdeConfig(d=DimensionlessParams(kappa=200.0, W=5.0), t_max=100.0)
    traj = integrate_dde(cfg)
    _, rows = _read_csv(tmp_path / "evolve.csv")
    assert len(rows) == traj.times.size
    assert [float(c) for c in rows[-1][:3]] == [
        traj.times[-1], traj.w[-1].real, traj.w[-1].imag]
    manifest = _manifest(tmp_path)
    assert "fit" not in manifest
    dde = manifest["dde"]
    assert dde["output_points"] == len(rows)
    assert (dde["n_per"], dde["n_intervals"]) == (traj.n_per, traj.n_intervals)
    assert all(dde[k] >= 0.0 for k in ("integrate_s", "fit_s"))
    assert manifest["csv"]["evolve.csv"]["write_s"] >= 0.0
    assert any(w.startswith("decay fit failed") for w in manifest["warnings"])


_DDE_KEYS = {"n_per", "n_intervals", "stride", "output_points", "peak_abs_w",
             "integrate_s", "fit_s"}


@pytest.mark.parametrize("kappa, t_max, code", [
    (0.0, 40.0, 0),
    (200.0, 100.0, 1),          # the tail fit fails: no fit block
], ids=["fitted", "fit-failed"])
def test_evolve_manifest_blocks(tmp_path, kappa, t_max, code):
    assert main(["evolve", "--kappa", repr(kappa), "--w", "5", "--t-max",
                 repr(t_max), "--out-dir", str(tmp_path)]) == code
    manifest = _manifest(tmp_path)
    assert set(manifest["dde"]) == _DDE_KEYS
    if code:
        assert "fit" not in manifest
        return
    traj = integrate_dde(DdeConfig(d=DimensionlessParams(kappa=kappa, W=5.0),
                                   t_max=t_max))
    fit = fit_decay(traj.times, traj.w, (20.0, float(traj.times[-1])))
    assert manifest["fit"] == {"omega_fit": fit.omega_fit,
                               "gamma_fit": fit.gamma_fit,
                               "fit_residual": fit.fit_residual,
                               "samples": fit.samples,
                               "dt_used": traj.dt_used}
    assert fit.samples == 20001     # s = 20, 20.001, ..., 40


# --- CSV writer -----------------------------------------------------------

def _reference_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return f"{float(value):.17g}"


def _spectrum_rows():
    d = DimensionlessParams(kappa=200.0, W=math.pi)
    modes = find_modes(d)
    return [(j, theta.real, theta.imag, residual, lifetime_from_theta(theta),
             converged) for j, theta, residual, converged in zip(
                 modes.j.tolist(), modes.theta.tolist(),
                 modes.residual.tolist(), modes.converged.tolist())]


def _sweep_rows():
    d = DimensionlessParams(kappa=200.0, W=1.0)
    s = sweep_decay(d, np.linspace(-1.0, math.pi, 5))
    return zip(s.w.tolist(), s.im_theta_min.tolist(), s.j_used.tolist())


def _scatter_rows():
    d = DimensionlessParams(kappa=200.0, W=5.0)
    s = enhancement_scan(d, np.linspace(3.13, 3.17, 101))
    return zip(s.theta.tolist(), s.delta.tolist(), s.delay.tolist(),
               s.enhancement.tolist())


def _wavefunction_rows():
    d = DimensionlessParams(kappa=200.0, W=5.0)
    mode = refine_root(seed_mode(1, d), d)
    xs = np.linspace(0.0, 3.0, 31)
    return [(x, phi.real, phi.imag, abs(phi)) for x, phi in zip(
        xs.tolist(), qnm_wavefunction(mode, xs).tolist())]


def _evolve_rows():
    cfg = DdeConfig(d=DimensionlessParams(kappa=10.0, W=2.0), t_max=334.0,
                    dt=0.01)
    res = evolve_atom(cfg, fit_window=(167.0, 334.0))
    return [(s, wv.real, wv.imag, abs(wv))
            for s, wv in zip(res.times.tolist(), res.w.tolist())]


@pytest.mark.parametrize("argv, name, header, reference, markers", [
    # W = pi: the j=1 row is an exact bound state with infinite lifetime
    (["spectrum", "--kappa", "200", "--w", repr(math.pi)], "modes.csv",
     "j,re_theta,im_theta,residual,lifetime,converged", _spectrum_rows,
     [",inf,true\n"]),
    # W = -1 is a gap row (nan, exit 2); the last row is the W = pi bound state
    (["sweep", "--kappa", "200", "--w-min", "-1", "--w-max", repr(math.pi),
      "--steps", "5"], "sweep.csv", "w,im_theta_min,j_used", _sweep_rows,
     ["\n-1,nan,0\n", "\n3.1415926535897931,0,1\n"]),
    (["scatter", "--kappa", "200", "--w", "5", "--theta-min", "3.13",
      "--theta-max", "3.17", "--samples", "101"], "scatter.csv",
     "theta,delta,delay,enhancement", _scatter_rows, []),
    (["wavefunction", "--kappa", "200", "--w", "5", "--j", "1", "--x-max",
      "3", "--samples", "31"], "wavefunction.csv", "x,re_phi,im_phi,abs_phi",
     _wavefunction_rows, []),
    # |w| as Python's complex abs: np.abs differs in the last digit on about
    # a third of these rows
    (["evolve", "--kappa", "10", "--w", "2", "--t-max", "334", "--dt",
      "0.01", "--fit-start", "167", "--fit-end", "334"], "evolve.csv",
     "s,re_w,im_w,abs_w", _evolve_rows, []),
], ids=["spectrum", "sweep", "scatter", "wavefunction", "evolve"])
def test_csv_bytes_match_per_cell_reference(tmp_path, argv, name, header,
                                            reference, markers):
    assert main(argv + ["--out-dir", str(tmp_path)]) in (0, 2)
    expected = header + "\n" + "".join(
        ",".join(map(_reference_cell, row)) + "\n" for row in reference())
    text = (tmp_path / name).read_bytes().decode()
    assert text == expected
    assert all(marker in text for marker in markers)


@pytest.mark.parametrize("argv, name, specials", [
    # the gap row's nan and the bound state's exact 0 go through Python
    (["sweep", "--kappa", "200", "--w-min", "-1", "--w-max", repr(math.pi),
      "--steps", "5"], "sweep.csv", 2),
    # the bound state's infinite lifetime
    (["spectrum", "--kappa", "200", "--w", repr(math.pi)], "modes.csv", 1),
    (["scatter", "--kappa", "200", "--w", "5", "--theta-min", "3.13",
      "--theta-max", "3.17", "--samples", "101"], "scatter.csv", 0),
    # x = 0 and the mirror node phi(0) = 0
    (["wavefunction", "--kappa", "200", "--w", "5", "--j", "1", "--x-max",
      "3", "--samples", "31"], "wavefunction.csv", 4),
    (["evolve", "--kappa", "0", "--w", "5", "--t-max", "40"], "evolve.csv",
     1),
], ids=["sweep", "spectrum", "scatter", "wavefunction", "evolve"])
def test_manifest_records_each_csv(tmp_path, argv, name, specials):
    assert main(argv + ["--out-dir", str(tmp_path)]) in (0, 2)
    record = _manifest(tmp_path)["csv"]
    assert list(record) == [name]
    path = tmp_path / name
    lines = path.read_bytes().splitlines()
    assert record[name]["rows"] == len(lines) - 1
    assert record[name]["bytes"] == path.stat().st_size
    assert record[name]["write_s"] >= 0.0
    cells = record[name]["rows"] * len(lines[0].split(b","))
    assert specials <= record[name]["fallback_cells"] <= cells


# --- map ----------------------------------------------------------------

def test_map_squid_report(tmp_path):
    code = main(["map", "--platform", "squid", "--frequency-unit", "ordinary",
                 "--e-j", "5e9", "--c-g", "0.7e-15", "--c-j", "0.3e-15",
                 "--c-sigma", "1.3e-15", "--phi-x", "6.2e-16",
                 "--l", "0.01", "--c-line", "1.67e-10",
                 "--omega-mode", "10e9", "--mixing-angle", "0.7794",
                 "--n-g", "0.45", "--out-dir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "map_report.json").read_text())
    assert report["platform"] == "squid"
    # E_J given as an ordinary frequency: 2*pi*5e9 rad/s after scaling
    levels = report["level_spacing"]
    assert levels["b_x_rad_per_s"] == pytest.approx(
        2.0 * 2.0 * math.pi * 5e9 * math.cos(math.pi * 6.2e-16
                                             / 2.067833848e-15), rel=1e-6)
    assert levels["flag"]["within_paper_range"]
    coupling = report["coupling"]
    assert coupling["flag"]["within_paper_range"]
    assert coupling["note"]  # below the ~GHz advisory threshold
    manifest = _manifest(tmp_path)
    assert manifest["warnings"] == [coupling["note"]]


def test_map_raman_report(tmp_path):
    code = main(["map", "--platform", "raman", "--frequency-unit", "ordinary",
                 "--g", "1e8", "--big-g", "1e8", "--delta", "1e10",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "map_report.json").read_text())
    assert report["j_eff_rad_per_s"] == -3141592.653589793


def test_map_missing_inputs_is_usage_error(tmp_path, capsys):
    code = main(["map", "--platform", "squid", "--out-dir", str(tmp_path)])
    assert code == 1
    assert "required" in capsys.readouterr().err


_SQUID = ["map", "--platform", "squid", "--e-j", "5e9", "--c-g", "0.7e-15",
          "--c-j", "0.3e-15", "--c-sigma", "1.3e-15", "--phi-x", "6.2e-16",
          "--l", "0.01", "--c-line", "1.67e-10", "--omega-mode", "10e9",
          "--mixing-angle", "0.7794"]
_RAMAN = ["map", "--platform", "raman", "--big-g", "2e9", "--delta", "5e10"]


@pytest.mark.parametrize("argv, message", [
    (_SQUID, "give exactly one of --v-g-gate or --n-g"),
    (_SQUID + ["--n-g", "0.45", "--v-g-gate", "1e-3"],
     "give exactly one of --v-g-gate or --n-g"),
    (_SQUID + ["--n-g", "0.45", "--e-j", "inf", "--mixing-angle", "nan"],
     "E_J must be finite, got inf"),
    (_SQUID + ["--n-g", "0.45", "--mixing-angle", "nan"],
     "mixing_angle must be finite, got nan"),
    (_SQUID + ["--v-g-gate", "inf"], "V_g must be finite, got inf"),
    (_SQUID + ["--n-g", "0.45", "--c-g", "inf"], "C_g must be finite, got inf"),
    (_RAMAN + ["--g", "nan"], "g must be finite, got nan"),
    (["map", "--platform", "raman", "--g", "3e9", "--big-g", "inf",
      "--delta", "5e10"], "G must be finite, got inf"),
    (_RAMAN, "--g is required for --platform raman"),
], ids=["squid-no-gate", "squid-both-gates", "squid-e-j-inf",
        "squid-mixing-nan", "squid-v-g-inf", "squid-c-g-inf", "raman-g-nan",
        "raman-g-big-inf", "raman-no-g"])
def test_map_bad_inputs_are_usage_errors(tmp_path, capsys, argv, message):
    code = main(argv + ["--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert list(tmp_path.iterdir()) == []
    assert err == f"qnmlab map: {message}\n"


def test_map_has_no_flux_quantum_override(tmp_path, capsys):
    # the flux quantum is a constant of nature, not an input
    code = main(_SQUID + ["--n-g", "0.45", "--phi-0", "1",
                          "--out-dir", str(tmp_path)])
    assert code == 1
    assert "unrecognized arguments: --phi-0 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# --- verify and global flags --------------------------------------------

def test_verify_quick_passes(tmp_path):
    code = main(["verify", "--quick", "--out-dir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "verify_report.json").read_text())
    names = [c["name"] for c in report["checks"]]
    assert names == ["pole_identity", "root_count_certification",
                     "dde_vs_root", "bound_state_in_continuum"]
    assert all(c["passed"] for c in report["checks"])


_VERIFY_DDE_KEYS = _DDE_KEYS | {"kappa", "w", "t_max", "samples"}


def test_verify_manifest_records_each_dde_run(tmp_path):
    # the DDE check streams its run into the fit; the manifest keeps its
    # counts: the README run, fitted over [t_max/2, t_max]
    assert main(["verify", "--quick", "--out-dir", str(tmp_path)]) == 0
    (record,) = _manifest(tmp_path)["dde"]
    assert set(record) == _VERIFY_DDE_KEYS
    assert (record["kappa"], record["w"], record["t_max"]) == (50.0, 2.0,
                                                               6522.0)
    assert (record["stride"], record["output_points"],
            record["samples"]) == (16, 407626, 203813)
    assert 0.0 < record["peak_abs_w"] <= 1.0
    assert record["integrate_s"] > 0.0 and record["fit_s"] > 0.0


def test_verify_contour_failure_exits_3(tmp_path, monkeypatch, capsys):
    def fail(d, box):
        raise ContourError("no contour")

    monkeypatch.setattr("qnmlab.qnm.count_roots_in_box", fail)
    code = main(["verify", "--quick", "--out-dir", str(tmp_path)])
    assert code == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(
        "qnmlab verify: internal consistency failure:")


def test_verify_failed_check_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("qnmlab.qnm.count_roots_in_box", lambda d, box: 0)
    code = main(["verify", "--quick", "--out-dir", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err == ""
    assert _manifest(tmp_path)["warnings"] == [
        "check failed: root_count_certification"]
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert [c["name"] for c in report["checks"] if not c["passed"]] == [
        "root_count_certification"]


@pytest.mark.parametrize("flags, full", [
    ([], False), (["--quick"], False), (["--full"], True),
], ids=["default", "quick", "full"])
def test_verify_records_full_only(flags, full):
    # the manifest's parameters are the parsed flags
    args = _build_parser().parse_args(["verify"] + flags)
    assert args.full is full
    assert not hasattr(args, "quick")


@pytest.mark.parametrize("argv", [
    ["evolve", "--kappa", "50", "--w", "2", "--t-max", "40"],
    ["verify"],
], ids=["evolve", "verify"])
def test_tol_is_not_an_option_where_the_roots_are_not_the_output(
        tmp_path, capsys, argv):
    code = main(argv + ["--tol", "1e-12", "--out-dir", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == (
        "qnmlab: unrecognized arguments: --tol 1e-12\n")
    assert list(tmp_path.iterdir()) == []


def test_missing_required_flag_is_usage_error(tmp_path, capsys):
    code = main(["spectrum", "--w", "5", "--out-dir", str(tmp_path)])
    assert code == 1
    assert "--kappa" in capsys.readouterr().err


#: Prints the exit code, the qnmlab modules loaded, whether numpy loaded
#: and which of scipy and the exact-arithmetic modules did (none may: the
#: CSV formatter's tables are built from Python ints)
_LOADS_SCRIPT = (
    "import json, sys, qnmlab.cli; "
    "code = qnmlab.cli.main(sys.argv[1:]); "
    "print(json.dumps([code, sorted(m for m in sys.modules "
    "if m.startswith('qnmlab')), 'numpy' in sys.modules, "
    "sorted({'scipy', 'fractions', 'decimal'} & set(sys.modules))]))")


@pytest.mark.parametrize("argv, code, modules, numpy", [
    (["--version"], 0, [], False),
    (["--help"], 0, [], False),
    (["spectrum", "--kappa", "x"], 1, [], False),
    (_RAMAN + ["--g", "3e9"], 0, ["model", "platforms"], False),
    (_SQUID + ["--n-g", "0.45"], 0, ["model", "platforms"], False),
    (["spectrum", "--kappa", "200", "--w", "5", "--j-max", "2"], 0,
     ["_csv", "model", "qnm"], True),
    (["sweep", "--kappa", "200", "--w-min", "1", "--w-max", "5",
      "--steps", "3"], 0, ["_csv", "model", "qnm"], True),
    (["wavefunction", "--kappa", "200", "--w", "5", "--j", "1",
      "--x-max", "10", "--samples", "3"], 0,
     ["_csv", "model", "qnm", "scattering"], True),
    (["scatter", "--kappa", "200", "--w", "5", "--theta-min", "1",
      "--theta-max", "5", "--samples", "3"], 0,
     ["_csv", "model", "qnm", "scattering"], True),
    (["evolve", "--kappa", "10", "--w", "2", "--t-max", "40", "--dt",
      "0.01"], 0, ["_csv", "dynamics", "model", "qnm"], True),
    (["verify", "--quick"], 0, ["dynamics", "model", "qnm"], True),
], ids=["version", "help", "usage-error", "map-raman", "map-squid",
        "spectrum", "sweep", "wavefunction", "scatter", "evolve", "verify"])
def test_each_command_loads_only_what_it_runs(tmp_path, argv, code, modules,
                                              numpy):
    # a fresh interpreter per command: start-up pays for exactly these
    if not argv[0].startswith("--"):
        argv = argv + ["--out-dir", str(tmp_path)]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", _LOADS_SCRIPT, *argv],
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    loaded = ["qnmlab", "qnmlab.cli"] + [f"qnmlab.{m}" for m in modules]
    assert json.loads(proc.stdout.splitlines()[-1]) == [
        code, sorted(loaded), numpy, []]


def test_package_imports_a_library_module_on_first_access():
    code = ("import qnmlab; "
            "assert callable(qnmlab.qnm.find_modes); "
            "assert not hasattr(qnmlab, 'nope')")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    assert subprocess.run([sys.executable, "-c", code], env=env,
                          timeout=60).returncode == 0


def test_import_does_not_load_scipy():
    # nor the exact-arithmetic modules: the CSV formatter's tables are built
    # from Python ints. The commands import the library when they run, so
    # every module they can reach is imported here
    code = ("import sys, qnmlab.cli, qnmlab.model, qnmlab.qnm, "
            "qnmlab.dynamics, qnmlab.scattering, qnmlab.platforms, "
            "qnmlab._csv; "
            "sys.exit(bool({'scipy', 'fractions', 'decimal', "
            "'qnmlab.emission'} & "
            "set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    assert subprocess.run([sys.executable, "-c", code], env=env,
                          timeout=60).returncode == 0


def _raise(*args, **kwargs):
    raise AssertionError("verify must not need a LAPACK least squares")


def test_verify_quick_needs_no_least_squares_solver(tmp_path, monkeypatch):
    monkeypatch.setattr(np, "polyfit", _raise)
    monkeypatch.setattr(np.linalg, "lstsq", _raise)
    assert main(["verify", "--quick", "--out-dir", str(tmp_path)]) == 0


def test_verify_quick_does_not_load_numpy_random(tmp_path):
    # the pole-identity points come from the standard library's generator
    code = ("import sys, qnmlab.cli; "
            "code = qnmlab.cli.main(['verify', '--quick', '--out-dir', "
            "sys.argv[1]]); "
            "sys.exit(code or 'numpy.random' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    assert subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env=env, timeout=120).returncode == 0


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == __version__


def test_out_dir_that_is_a_file_is_usage_error(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("")
    code = main(["spectrum", "--kappa", "200", "--w", "5",
                 "--out-dir", str(target)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("qnmlab spectrum: cannot write outputs: ")
    assert err.count("\n") == 1


def test_out_dir_is_created(tmp_path):
    target = tmp_path / "a" / "b"
    code = main(["scatter", "--kappa", "0", "--w", "5", "--theta-min", "1",
                 "--theta-max", "2", "--samples", "3",
                 "--out-dir", str(target)])
    assert code == 0
    assert (target / "scatter.csv").exists()
    assert (target / "manifest.json").exists()
