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
from qnmlab.cli import main
from qnmlab.dynamics import DdeConfig, evolve_atom, integrate_dde
from qnmlab.model import DimensionlessParams
from qnmlab.qnm import find_modes, refine_root, seed_mode, sweep_decay
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
    first_manifest.pop("timestamp")
    second_manifest.pop("timestamp")
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


# --- scatter ------------------------------------------------------------

def test_scatter_decoupled_atom(tmp_path):
    code = main(["scatter", "--kappa", "0", "--w", "5", "--theta-min", "0.5",
                 "--theta-max", "6", "--samples", "12",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    header, rows = _read_csv(tmp_path / "scatter.csv")
    assert header == ["theta", "delta", "delay", "enhancement"]
    assert all(float(r[1]) == 0.0 and float(r[3]) == 1.0 for r in rows)


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
    assert all(dde[k] >= 0.0 for k in ("integrate_s", "fit_s", "write_s"))


def test_evolve_short_run_warns_and_fails_usefully(tmp_path, capsys):
    # t_max * gamma ~ 4e-3 << 3: the run cannot see the slowest decay;
    # the beating tail is not a clean exponential and the fit refuses
    code = main(["evolve", "--kappa", "200", "--w", "5", "--t-max", "100",
                 "--out-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "barely decays" in err
    assert "--t-max" in err


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
    assert all(dde[k] >= 0.0 for k in ("integrate_s", "fit_s", "write_s"))
    assert any(w.startswith("decay fit failed") for w in manifest["warnings"])


# --- CSV writer -----------------------------------------------------------

def _reference_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return f"{float(value):.17g}"


def _spectrum_rows():
    d = DimensionlessParams(kappa=200.0, W=math.pi)
    return [(m.j, m.theta.theta.real, m.theta.theta.imag, m.residual,
             m.lifetime, m.converged) for m in find_modes(d)]


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
    return [(p.x, p.value.real, p.value.imag, p.magnitude)
            for p in qnm_wavefunction(mode, np.linspace(0.0, 3.0, 31))]


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


# --- verify and global flags --------------------------------------------

def test_verify_quick_passes(tmp_path):
    code = main(["verify", "--quick", "--out-dir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "verify_report.json").read_text())
    names = [c["name"] for c in report["checks"]]
    assert names == ["pole_identity", "root_count_certification",
                     "dde_vs_root", "bound_state_in_continuum"]
    assert all(c["passed"] for c in report["checks"])


def test_missing_required_flag_is_usage_error(tmp_path, capsys):
    code = main(["spectrum", "--w", "5", "--out-dir", str(tmp_path)])
    assert code == 1
    assert "--kappa" in capsys.readouterr().err


def test_import_does_not_load_scipy():
    code = "import sys, qnmlab.cli; sys.exit('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    assert subprocess.run([sys.executable, "-c", code], env=env,
                          timeout=60).returncode == 0


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == __version__


def test_out_dir_is_created(tmp_path):
    target = tmp_path / "a" / "b"
    code = main(["scatter", "--kappa", "0", "--w", "5", "--theta-min", "1",
                 "--theta-max", "2", "--samples", "3",
                 "--out-dir", str(target)])
    assert code == 0
    assert (target / "scatter.csv").exists()
    assert (target / "manifest.json").exists()
