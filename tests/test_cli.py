"""Command-line front end: CSV/JSON outputs, manifest contract, exit
codes and rerun determinism (all driven in-process through main())."""

import functools
import gc
import itertools
import json
import math
import os
import signal
import subprocess
import sys
import time
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

from qnmlab import __version__
from qnmlab._csv import _BEHIND, CHUNK_ROWS, StreamedCsv
from qnmlab.cli import _build_parser, main
from qnmlab.dynamics import (FIT_START, DdeConfig, DdeStream,
                             FitWindowError, fit_decay)
from qnmlab.emission import modified_emission_numeric
from qnmlab.model import DimensionlessParams
from qnmlab.qnm import (ApproximationRangeError, CharacteristicParams,
                        ContourError, _modes, _row, branch_seed, find_modes,
                        lifetime, lifetime_from_theta, refine_root,
                        seed_mode, slowest_mode, sweep_decay)
from qnmlab.scattering import enhancement_scan, qnm_wavefunction
from oracle_helpers import drained_dde
from refs import ROOTS

SRC = Path(__file__).resolve().parents[1] / "src"

#: Seconds an orphaned writer may take to exit and be reaped by init.
_ORPHAN_REAP_S = 10.0

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


def test_spectrum_unreachable_tolerance_is_partial(tmp_path, monkeypatch):
    # tol below double precision: Newton cannot certify any root, the rows
    # are still written but flagged, and the run reports partial results
    monkeypatch.setattr("qnmlab.qnm.NEWTON_TOL", 1e-30)
    code = main(["spectrum", "--kappa", "200", "--w", "5",
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


def test_spectrum_with_overflowing_seeds_is_silent(tmp_path, monkeypatch,
                                                   capsys):
    # fault injection: at kappa = 1.2 the closed-form seeds of j >= 4, given
    # as branch seeds, lie far below the real axis, where f overflows; they
    # stop unconverged without a numpy warning
    monkeypatch.setattr("qnmlab.qnm.branch_seed", seed_mode)
    code = main(["spectrum", "--kappa", "1.2", "--w", "5", "--j-min", "1",
                 "--j-max", "12", "--out-dir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == ""


def test_unconverged_mode_warnings_are_distinct(tmp_path, monkeypatch):
    # the injected seeds of the test above: nine rows stop unconverged
    monkeypatch.setattr("qnmlab.qnm.branch_seed", seed_mode)
    code = main(["spectrum", "--kappa", "1.2", "--w", "5", "--j-min", "1",
                 "--j-max", "12", "--out-dir", str(tmp_path)])
    assert code == 2
    warnings = _manifest(tmp_path)["warnings"]
    assert len(warnings) == 9
    assert len(set(warnings)) == len(warnings)
    assert not any("no note" in w for w in warnings)


DUPLICATE_ARGV = ["spectrum", "--kappa", "1.8618254128079412",
                  "--w", "7.041582857257689"]


def test_spectrum_gives_each_index_its_own_root(tmp_path):
    # the closed-form seed of j = 5 stopped on the j = 2 root, and that of
    # j = 6 diverged; from its own branch each index converges
    assert main(DUPLICATE_ARGV + ["--out-dir", str(tmp_path)]) == 0
    _, rows = _read_csv(tmp_path / "modes.csv")
    assert [(row[0], row[5]) for row in rows] == [
        (str(j), "true") for j in range(1, 7)]
    assert _manifest(tmp_path)["warnings"] == []


def test_spectrum_manifest_records_each_disc(tmp_path, monkeypatch):
    # radius is null where no disc was proved: NaN is not JSON. Fault
    # injection: with the closed-form seeds as branch seeds, the j = 6 row
    # diverges, and the j = 5 row stops on the j = 2 root, a flagged pair
    # whose discs are both recorded
    monkeypatch.setattr("qnmlab.qnm.branch_seed", seed_mode)
    assert main(DUPLICATE_ARGV + ["--out-dir", str(tmp_path)]) == 2
    text = (tmp_path / "manifest.json").read_text()
    records = json.loads(text, parse_constant=pytest.fail)["modes"]
    assert all(set(m) == {"j", "iterations", "note", "radius"}
               for m in records)
    assert [m["j"] for m in records] == [1, 5, 2, 3, 4, 6]
    radii = {m["j"]: m["radius"] for m in records}
    assert radii.pop(6) is None
    assert 0 < radii.pop(5) < 1e-10     # |f| = 1.4e-11 on the j = 2 root
    assert all(0 < r < 1e-13 for r in radii.values())


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


def test_sweep_at_float_max_prints_no_warning(tmp_path, capsys):
    # the bound-state guard is evaluated only below W = 2**23, so no
    # np.spacing overflows: under tier-1's error::RuntimeWarning filter a
    # warning would fail the run
    code = main(["sweep", "--kappa", "50", "--w-min", "200", "--w-max",
                 "1.7976931348623157e308", "--steps", "3",
                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == ""
    _, rows = _read_csv(tmp_path / "sweep.csv")
    assert [row[1:] for row in rows[1:]] == [["nan", "0"], ["nan", "0"]]
    assert len(_manifest(tmp_path)["warnings"]) == 2


def test_sweep_streams_the_whole_grids_bytes_and_warnings(tmp_path):
    # three chunks and five rows at kappa 1500, where |f|'s rounding floor
    # leaves gaps in every chunk: solved chunk by chunk, the sweep writes the
    # bytes and gap warnings, in order, of one sweep_decay over the grid
    steps = 3 * CHUNK_ROWS + 5
    code = main(["sweep", "--kappa", "1500", "--w-min", "6", "--w-max", "12",
                 "--steps", str(steps), "--out-dir", str(tmp_path)])
    whole = sweep_decay(DimensionlessParams(kappa=1500.0, W=1.0),
                        np.linspace(6.0, 12.0, steps))
    gaps = np.isnan(whole.im_theta_min)
    assert all(gaps[i:i + CHUNK_ROWS].any()
               for i in range(0, steps, CHUNK_ROWS))
    assert code == 2
    rows = zip(whole.w.tolist(), whole.im_theta_min.tolist(),
               whole.j_used.tolist())
    assert (tmp_path / "sweep.csv").read_text() == "w,im_theta_min,j_used\n" \
        + "".join(",".join(map(_reference_cell, row)) + "\n" for row in rows)
    assert _manifest(tmp_path)["warnings"] == [
        f"W={w:.17g}: no converged root ({note})"
        for w, note in zip(whole.w[gaps].tolist(), whole.note[gaps])]


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
    # the Lambert-W seed overflows here: refused before it is taken
    ["wavefunction", "--kappa", "200", "--w", "1.7976931348623157e308",
     "--j", "1", "--x-max", "2"],
], ids=["spectrum", "wavefunction", "evolve", "wavefunction-w-max"])
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


_HUGE_KAPPA = ("kappa must be at most 1.3407807929942596e+154, the largest "
               "usable kappa")
_HUGE_J = "mode indices must lie within +/-4611686018427387904"
_HUGE_J_RANGE = ["--j-min", "99999999999999999999",
                 "--j-max", "100000000000000000000"]


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "--kappa", "1e200", "--w", "5"], _HUGE_KAPPA),
    (["spectrum", "--kappa", "1.4e154", "--w", "5"], _HUGE_KAPPA),
    (["sweep", "--kappa", "1e200", "--w-min", "1", "--w-max", "5",
      "--steps", "3"], _HUGE_KAPPA),
    (["wavefunction", "--kappa", "1e200", "--w", "5", "--j", "1",
      "--x-max", "2"], _HUGE_KAPPA),
    (["spectrum", "--kappa", "200", "--w", "5", *_HUGE_J_RANGE], _HUGE_J),
    # past int64 (np.arange would give no rows) and just past MAX_J
    (["spectrum", "--kappa", "200", "--w", "5", "--j-min", "1",
      "--j-max", "9223372036854775813"], _HUGE_J),
    (["spectrum", "--kappa", "200", "--w", "5", "--j-min", "1",
      "--j-max", "4611686018427387905"], _HUGE_J),
    (["wavefunction", "--kappa", "200", "--w", "5",
      "--j", "100000000000000000000", "--x-max", "2"], _HUGE_J),
    # usable indices, but too many of them for one run
    (["spectrum", "--kappa", "200", "--w", "5", "--j-min", "1",
      "--j-max", "100000000"],
     "index range [1, 100000000] holds more than 10000 indices"),
], ids=["spectrum-kappa", "spectrum-kappa-edge", "sweep-kappa",
        "wavefunction-kappa", "spectrum-j", "spectrum-j-max-past-int64",
        "spectrum-j-max-past-max-j", "wavefunction-j",
        "spectrum-j-range-too-wide"])
def test_inputs_past_the_seed_formula_range_are_usage_errors(
        tmp_path, capsys, argv, message):
    # kappa**2 overflows a float, or j + 1 does not fit int64
    code = main(argv + ["--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert list(tmp_path.iterdir()) == []
    assert err.count("\n") == 1
    assert err.startswith(f"qnmlab {argv[0]}: {message}")


@pytest.mark.parametrize("argv", [
    ["--kappa", "1e200", "--w", "5"],
    ["--kappa", "200", "--w", "5", *_HUGE_J_RANGE],
], ids=["kappa", "j"])
def test_refused_spectrum_prints_one_line_from_the_console_entry(tmp_path,
                                                                argv):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-m", "qnmlab.cli", "spectrum",
                           *argv, "--out-dir", str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("qnmlab spectrum: ")
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("argv", [
    ["sweep", "--kappa", "200", "--w-min", "0.5", "--w-max", "12",
     "--steps", "100000000000000"],
    _SCATTER + ["--theta-min", "1", "--theta-max", "3",
                "--samples", "100000000000000"],
    _WAVEFUNCTION + ["--x-max", "40", "--samples", "100000000000000"],
], ids=["sweep", "scatter", "wavefunction"])
def test_count_too_large_to_allocate_is_one_line(tmp_path, capsys, argv):
    # 728 TiB exceeds the address space: numpy refuses it without touching
    # memory, and the refusal is one line, not a traceback
    assert main(argv + ["--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"qnmlab {argv[0]}: Unable to allocate 728. TiB")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_wavefunction_unconverged_mode_writes_no_samples(tmp_path,
                                                         monkeypatch):
    monkeypatch.setattr("qnmlab.qnm.NEWTON_TOL", 1e-30)
    code = main(_WAVEFUNCTION + ["--x-max", "40",
                                 "--out-dir", str(tmp_path)])
    assert code == 2
    warnings = _manifest(tmp_path)["warnings"]
    assert len(warnings) == 1
    assert warnings[0].startswith("mode j=1 did not converge")
    assert not (tmp_path / "wavefunction.csv").exists()


#: The j = 3 root next to W stops at |f|'s rounding floor, in a proved
#: disc, as does the j = 3 root of the emission route here.
_AT_THE_FLOOR = DimensionlessParams(kappa=1200.0, W=9.419548872180451)
_EMISSION_AT_THE_FLOOR = DimensionlessParams(kappa=2000.0, W=5.0,
                                             gamma_ext=0.01)


def _floor_row():
    return _row(find_modes(_AT_THE_FLOOR, 3, 3), 0)


def _emission_row():
    d = _EMISSION_AT_THE_FLOOR
    continued = CharacteristicParams(d.kappa, complex(d.W, -d.gamma_ext))
    return _row(_modes(branch_seed(3, continued), continued, [3]), 0)


def _refused(call, error):
    def message(tmp_path):
        with pytest.raises(error) as info:
            call()
        return str(info.value)
    return message


def _wavefunction_warning(tmp_path):
    assert main(["wavefunction", "--kappa", "1200", "--w",
                 "9.419548872180451", "--j", "3", "--x-max", "2",
                 "--out-dir", str(tmp_path)]) == 2
    [warning] = _manifest(tmp_path)["warnings"]
    return warning


@pytest.mark.parametrize("message, row", [
    (_refused(lambda: modified_emission_numeric(_EMISSION_AT_THE_FLOOR, 3),
              RuntimeError), _emission_row),
    (_refused(lambda: slowest_mode(_AT_THE_FLOOR), ApproximationRangeError),
     _floor_row),
    (_refused(lambda: lifetime(_floor_row()), ValueError), _floor_row),
    (_refused(lambda: qnm_wavefunction(_floor_row(), [0.0, 1.0]),
              ValueError), _floor_row),
    (_wavefunction_warning, _floor_row),
], ids=["emission", "slowest_mode", "lifetime", "qnm_wavefunction",
        "wavefunction-command"])
def test_a_failed_root_is_told_in_its_rows_note(tmp_path, message, row):
    # one account of a failed root: each refusal ends with the note of its
    # unconverged row, and at |f|'s floor that note names the proved disc
    row = row()
    assert not row.converged
    assert row.note.startswith("Newton stopped at |f| = ")
    assert row.note.endswith(" holds one root")
    assert message(tmp_path).endswith(": " + row.note)


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


def test_evolve_past_the_row_bound_is_refused_first(tmp_path, capsys,
                                                    monkeypatch):
    # the phase cap keeps every 305th node at W = 2: 3.3e300 rows. The run
    # is refused before the reference root and before any file is opened
    monkeypatch.setattr("qnmlab.qnm.slowest_mode", None)
    code = main(["evolve", "--kappa", "50", "--w", "2", "--t-max", "1e300",
                 "--out-dir", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == (
        "qnmlab evolve: t_max = 1e+300 needs over 1000000 rows at W = 2; "
        "the largest --t-max that fits is 304999\n")
    assert list(tmp_path.iterdir()) == []


def test_evolve_runs_at_any_kappa_dt(tmp_path, capsys):
    # kappa * dt / 2 = 5000 overflowed one step of the integrator the
    # series replaced; the run is summed and written, and its one-row
    # window [20, 20] is refused
    code = main(["evolve", "--kappa", "1e7", "--w", "2", "--t-max", "20",
                 "--out-dir", str(tmp_path)])
    assert code == 1
    assert "empty window [20.0, 20.0]" in capsys.readouterr().err
    _, rows = _read_csv(tmp_path / "evolve.csv")
    assert len(rows) == 20001
    assert all(math.isfinite(float(c)) for r in rows for c in r)
    assert max(float(r[3]) for r in rows) == 1.0


def test_evolve_at_a_huge_kappa_writes_its_rows(tmp_path, capsys):
    # past kappa ~3e15 some band terms' weights underflow; summed as
    # inf * 0 they made NaN rows (exit 3). The rows are finite, and |w|
    # underflows before the window, so the fit refuses in one line
    code = main(["evolve", "--kappa", "1e16", "--w", "2", "--t-max", "40",
                 "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and "|w| underflows already" in err
    _, rows = _read_csv(tmp_path / "evolve.csv")
    assert len(rows) == 40001
    assert all(math.isfinite(float(c)) for r in rows for c in r)
    assert _manifest(tmp_path)["dde"]["peak_abs_w"] == 1.0


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
    # the run's last row is the default window's start: only a longer run
    # can help, as no window was given
    (["--kappa", "50", "--w", "2", "--t-max", "20.0004"],
     "increase --t-max", "end the window after its start"),
    # a default window of 51 samples can only grow with the run
    (["--kappa", "50", "--w", "2", "--t-max", "20.05"],
     "increase --t-max", "widen the window"),
    # a window given empty is the window's to mend, not the run's
    (["--kappa", "50", "--w", "2", "--t-max", "40", "--fit-start", "30",
      "--fit-end", "30"], "end the window after its start", "--t-max"),
], ids=["stiff", "short", "empty-default", "few-default", "empty-given"])
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
        "for kappa = 10.0: Newton stopped at |f| = 8.93e-10 after 0 steps "
        "from the j=1 seed; a disc of radius 1.6e-10 holds one root"]
    assert {"dde", "fit"} <= set(manifest)
    assert (tmp_path / "evolve.csv").exists()


def test_evolve_rate_is_unavailable_at_the_residual_floor(tmp_path):
    # the root next to W stops at |f|'s rounding floor (ROADMAP item 9): the
    # warning says so rather than naming the farther branch's rate. The fit
    # fails as |w| underflows before its window (exit 1)
    code = main(["evolve", "--kappa", "1200", "--w", "9.419548872180451",
                 "--t-max", "40", "--out-dir", str(tmp_path)])
    assert code == 1
    assert _manifest(tmp_path)["warnings"][0] == (
        "expected decay rate unavailable: no converged mode near "
        "W = 9.419548872180451 for kappa = 1200.0: Newton stopped at |f| = "
        "1.04e-12 after 50 steps from the j=3 seed; a disc of radius "
        "1.61e-14 holds one root")


def test_failed_evolve_keeps_trajectory_and_manifest(tmp_path):
    # the fit fails (exit 1), but the integrated run is written out
    code = main(["evolve", "--kappa", "200", "--w", "5", "--t-max", "100",
                 "--out-dir", str(tmp_path)])
    assert code == 1
    cfg = DdeConfig(d=DimensionlessParams(kappa=200.0, W=5.0), t_max=100.0)
    stream, times, w = drained_dde(cfg)
    _, rows = _read_csv(tmp_path / "evolve.csv")
    assert len(rows) == times.size
    assert [float(c) for c in rows[-1][:3]] == [
        times[-1], w[-1].real, w[-1].imag]
    manifest = _manifest(tmp_path)
    assert "fit" not in manifest
    dde = manifest["dde"]
    assert dde["output_points"] == len(rows)
    assert (dde["n_per"], dde["n_intervals"]) == (cfg.n_per,
                                                  stream.n_intervals)
    assert all(dde[k] >= 0.0 for k in ("integrate_s", "fit_s"))
    assert manifest["csv"]["evolve.csv"]["write_s"] >= 0.0
    assert any(w.startswith("decay fit failed") for w in manifest["warnings"])


_DDE_KEYS = {"n_per", "n_intervals", "stride", "output_points", "peak_abs_w",
             "terms", "rounding_bound", "integrate_s", "fit_s"}


@pytest.mark.parametrize("kappa, t_max, code", [
    (0.0, 40.0, 0),
    (200.0, 100.0, 1),          # the tail fit fails: no fit block
], ids=["fitted", "fit-failed"])
def test_evolve_manifest_blocks(tmp_path, kappa, t_max, code):
    assert main(["evolve", "--kappa", repr(kappa), "--w", "5", "--t-max",
                 repr(t_max), "--out-dir", str(tmp_path)]) == code
    manifest = _manifest(tmp_path)
    # the seconds the run spent piping and formatting chunks for the
    # writer, the writer's own CPU seconds, and the chunks the run formatted
    assert set(manifest["dde"]) == _DDE_KEYS | {"handoff_s"}
    assert set(manifest["csv"]["evolve.csv"]) == {
        "rows", "bytes", "fallback_cells", "write_s", "writer_cpu_s",
        "run_formatted_chunks"}
    assert manifest["dde"]["handoff_s"] >= 0.0
    assert manifest["csv"]["evolve.csv"]["writer_cpu_s"] > 0.0
    assert 0 <= manifest["csv"]["evolve.csv"]["run_formatted_chunks"] <= (
        math.ceil(manifest["dde"]["output_points"] / CHUNK_ROWS))
    if code:
        assert "fit" not in manifest
        return
    _, times, w = drained_dde(DdeConfig(
        d=DimensionlessParams(kappa=kappa, W=5.0), t_max=t_max))
    fit = fit_decay(times, w, (20.0, float(times[-1])))
    assert manifest["fit"] == {"omega_fit": fit.omega_fit,
                               "gamma_fit": fit.gamma_fit,
                               "fit_residual": fit.fit_residual,
                               "samples": fit.samples}
    assert fit.samples == 20001     # s = 20, 20.001, ..., 40


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _writer_behind(monkeypatch, answers):
    """Make StreamedCsv's is-the-child-behind check give answers, cycled."""
    cycle = itertools.cycle(answers)
    monkeypatch.setattr(StreamedCsv, "_behind", lambda self: next(cycle))


@pytest.mark.parametrize("chunks, fork, shared", [
    (3, True, False), (None, True, False), (3, False, False),
    (None, False, False), (3, True, True), (None, True, True),
], ids=["midway", "after-last", "midway-no-fork", "after-last-no-fork",
        "midway-shared", "after-last-shared"])
def test_evolve_amplitude_guard_leaves_no_csv(tmp_path, monkeypatch, capsys,
                                              chunks, fork, shared):
    # the |w| guard fires once the stream ends, after the writer has had
    # every row (after-last), or earlier, as any error in the run would;
    # without os.fork the writer runs inline and removes the file as well,
    # and so does the child when the run formatted every chunk (shared)
    if not fork:
        monkeypatch.delattr(os, "fork")
    if shared:
        _writer_behind(monkeypatch, [True])
    original = DdeStream.chunks

    def guarded(self):
        for k, chunk in enumerate(original(self)):
            if k == chunks:
                break
            yield chunk
        raise RuntimeError("|w| reached 1.5, above the single-excitation "
                           "bound; series convention bug")

    monkeypatch.setattr(DdeStream, "chunks", guarded)
    code = main(["evolve", "--kappa", "10", "--w", "2", "--t-max", "40",
                 "--out-dir", str(tmp_path)])
    assert code == 3
    assert list(tmp_path.iterdir()) == []
    err = capsys.readouterr().err
    assert err.startswith("qnmlab evolve: internal consistency failure: |w|")
    _assert_no_child_left()


@pytest.mark.parametrize("fork", [True, False], ids=["fork", "no-fork"])
def test_evolve_writer_failure_is_one_line(tmp_path, monkeypatch, capsys,
                                           fork):
    if not fork:
        monkeypatch.delattr(os, "fork")
    (tmp_path / "evolve.csv").mkdir()
    code = main(["evolve", "--kappa", "10", "--w", "2", "--t-max", "40",
                 "--out-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("qnmlab evolve: cannot write outputs: ")
    assert err.count("\n") == 1 and "evolve.csv" in err
    assert [p.name for p in tmp_path.iterdir()] == ["evolve.csv"]
    _assert_no_child_left()


def test_killed_evolve_leaves_no_process_or_partial_csv(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    csv = tmp_path / "evolve.csv"
    proc = subprocess.Popen(
        [sys.executable, "-m", "qnmlab.cli", "evolve", "--kappa", "50",
         "--w", "2", "--t-max", "13044", "--out-dir", str(tmp_path)],
        env=env, start_new_session=True, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60.0
        while not (csv.exists() and csv.stat().st_size):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.005)
    finally:
        proc.kill()
        proc.wait(timeout=60)
    assert proc.returncode == -signal.SIGKILL
    # the writer sees its pipe end, removes the partial file and exits;
    # its exit is seen once the orphan is reaped, which some container
    # init processes do only every second or two
    deadline = time.monotonic() + _ORPHAN_REAP_S
    while True:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break
        assert time.monotonic() < deadline, "a process outlived the run"
        time.sleep(0.01)
    assert not csv.exists()
    assert not (tmp_path / "manifest.json").exists()


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
    mode = refine_root(branch_seed(1, d), d)
    xs = np.linspace(0.0, 3.0, 31)
    return [(x, phi.real, phi.imag, abs(phi)) for x, phi in zip(
        xs.tolist(), qnm_wavefunction(mode, xs).tolist())]


@functools.lru_cache(maxsize=None)
def _evolved(kappa, w_level, t_max, window=None):
    """(times, w, the manifest's fit block or None where the fit fails)."""
    _, times, w = drained_dde(DdeConfig(
        d=DimensionlessParams(kappa=kappa, W=w_level), t_max=t_max))
    try:
        fit = fit_decay(times, w, window or (FIT_START, float(times[-1])))
    except FitWindowError:
        return times, w, None
    return times, w, fit._asdict()


def _evolve_rows(*run):
    times, w, _ = _evolved(*run)
    return [(s, wv.real, wv.imag, abs(wv))
            for s, wv in zip(times.tolist(), w.tolist())]


def _evolve_fit(*run):
    """The manifest's fit block of the run, None where the fit fails."""
    return _evolved(*run)[2]


def _evolve_argv(*run):
    kappa, w, t_max, window = (*run, None)[:4]
    argv = ["evolve", "--kappa", repr(kappa), "--w", repr(w), "--t-max",
            repr(t_max)]
    if window:
        argv += ["--fit-start", repr(window[0]), "--fit-end", repr(window[1])]
    return argv


def _evolve_case(*run, markers=(), fork=True):
    return pytest.param(_evolve_argv(*run), "evolve.csv", "s,re_w,im_w,abs_w",
                        functools.partial(_evolve_rows, *run), list(markers),
                        functools.partial(_evolve_fit, *run), fork)


_MULTI_CHUNK_RUN = (10.0, 2.0, 40.0, (20.0, 40.0))

#: Five chunks whose 59,600 signed zeros and underflows are formatted by
#: Python's '%', the fallback of format_floats.
_FALLBACK_RUN = (1000.0, 15.708963267948966, 40.0)


@pytest.mark.parametrize("argv, name, header, reference, markers, fit, fork", [
    # W = pi: the j=1 row is an exact bound state with infinite lifetime
    (["spectrum", "--kappa", "200", "--w", repr(math.pi)], "modes.csv",
     "j,re_theta,im_theta,residual,lifetime,converged", _spectrum_rows,
     [",inf,true\n"], None, True),
    # W = -1 is a gap row (nan, exit 2); the last row is the W = pi bound state
    (["sweep", "--kappa", "200", "--w-min", "-1", "--w-max", repr(math.pi),
      "--steps", "5"], "sweep.csv", "w,im_theta_min,j_used", _sweep_rows,
     ["\n-1,nan,0\n", "\n3.1415926535897931,0,1\n"], None, True),
    (["scatter", "--kappa", "200", "--w", "5", "--theta-min", "3.13",
      "--theta-max", "3.17", "--samples", "101"], "scatter.csv",
     "theta,delta,delay,enhancement", _scatter_rows, [], None, True),
    (["wavefunction", "--kappa", "200", "--w", "5", "--j", "1", "--x-max",
      "3", "--samples", "31"], "wavefunction.csv", "x,re_phi,im_phi,abs_phi",
     _wavefunction_rows, [], None, True),
    # |w| as Python's complex abs: np.abs differs in the last digit on about
    # a third of these rows; 40001 rows are five chunks of the stream
    _evolve_case(*_MULTI_CHUNK_RUN),
    # the tail fit fails (exit 1): the run is written all the same
    _evolve_case(200.0, 5.0, 40.0),
    # |w| underflows between the return pulses: signed zeros, a failed fit
    _evolve_case(*_FALLBACK_RUN, markers=[",-0,"]),
    # no os.fork (Windows): the writer runs inline
    _evolve_case(*_MULTI_CHUNK_RUN, fork=False),
], ids=["spectrum", "sweep", "scatter", "wavefunction", "evolve",
        "evolve-fit-failed", "evolve-kappa-1000", "evolve-no-fork"])
def test_csv_bytes_match_per_cell_reference(tmp_path, monkeypatch, argv, name,
                                            header, reference, markers, fit,
                                            fork):
    if not fork:
        monkeypatch.delattr(os, "fork")
    code = main(argv + ["--out-dir", str(tmp_path)])
    expected = header + "\n" + "".join(
        ",".join(map(_reference_cell, row)) + "\n" for row in reference())
    text = (tmp_path / name).read_bytes().decode()
    assert text == expected
    assert all(marker in text for marker in markers)
    if fit is None:
        assert code in (0, 2)
        return
    # the manifest's fit block is the array route's, or absent with exit 1
    assert code == (0 if fit() else 1)
    assert _manifest(tmp_path).get("fit") == fit()


@pytest.mark.parametrize("answers, formatted", [
    ([True], 5), ([True, False], 3),
], ids=["always-behind", "alternately-behind"])
@pytest.mark.parametrize("run", [_MULTI_CHUNK_RUN, _FALLBACK_RUN],
                         ids=["multi-chunk", "fallback-cells"])
def test_chunks_formatted_in_the_run_write_the_same_file(
        tmp_path, monkeypatch, run, answers, formatted):
    # the run formats each chunk it finds its child behind on; the file and
    # its record are the child-only run's
    results = []
    for name, behind in (("child-only", [False]), ("shared", answers)):
        _writer_behind(monkeypatch, behind)
        out = tmp_path / name
        code = main(_evolve_argv(*run) + ["--out-dir", str(out)])
        record = _manifest(out)["csv"]["evolve.csv"]
        results.append((code, (out / "evolve.csv").read_bytes(), {
            k: record[k] for k in ("rows", "bytes", "fallback_cells")}))
        assert record["run_formatted_chunks"] == (formatted
                                                  if behind != [False] else 0)
        _assert_no_child_left()
    assert results[0] == results[1]
    assert results[0][2]["rows"] == 40001
    if run == _FALLBACK_RUN:
        assert results[0][2]["fallback_cells"] > 50_000


def test_stream_chunks_of_another_size_write_the_same_file(tmp_path,
                                                          monkeypatch):
    # the stream's chunk size is its own: with chunks of twice the CSV's,
    # a run that formats each one writes the child-only run's file
    monkeypatch.setattr("qnmlab.dynamics.CHUNK_ROWS", 2 * CHUNK_ROWS)
    results = []
    for name, behind in (("child-only", [False]), ("shared", [True])):
        _writer_behind(monkeypatch, behind)
        out = tmp_path / name
        assert main(_evolve_argv(*_MULTI_CHUNK_RUN)
                    + ["--out-dir", str(out)]) == 0
        record = _manifest(out)["csv"]["evolve.csv"]
        results.append(((out / "evolve.csv").read_bytes(), {
            k: record[k] for k in ("rows", "bytes", "fallback_cells")}))
        _assert_no_child_left()
    assert results[0] == results[1]
    # 40001 rows: three stream chunks of at most 16384 rows
    assert record["run_formatted_chunks"] == 3


@pytest.mark.skipif(sys.platform != "linux", reason="F_SETPIPE_SZ")
def test_writer_is_behind_once_a_whole_raw_chunk_waits(tmp_path):
    import fcntl

    csv = StreamedCsv(str(tmp_path / "evolve.csv"), "s", 1)
    read_end, write_end = os.pipe()
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 1 << 18)
    with open(read_end, "rb") as pipe, open(write_end, "wb") as csv.pipe:
        csv.pipe.write(bytes(_BEHIND - 1))
        csv.pipe.flush()
        assert not csv._behind()
        csv.pipe.write(b"\0")
        csv.pipe.flush()
        assert csv._behind()
        os.read(pipe.fileno(), 1)
        assert not csv._behind()


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
_NOT_FINITE = ("map_report.json would hold a result that is not finite, "
               "which JSON cannot write")


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
    # finite inputs whose results overflow: JSON has no Infinity
    (["map", "--platform", "raman", "--g", "1e308", "--big-g", "1e308",
      "--delta", "1"], _NOT_FINITE),
    (_SQUID + ["--n-g", "0.45", "--e-j", "1.5e308", "--phi-x", "1e-17"],
     _NOT_FINITE),
    # L c_line hbar underflows to 0, so the coupling would divide by it
    (["map", "--platform", "squid", "--e-j", "1", "--c-g", "1", "--c-j", "1",
      "--c-sigma", "1", "--phi-x", "0", "--omega-mode", "1", "--n-g", "0.5",
      "--mixing-angle", "0.5", "--l", "1e-300", "--c-line", "1e-300"],
     "L * c_line * hbar underflows to 0 at L = 1e-300, c_line = 1e-300: "
     "the coupling is not finite"),
], ids=["squid-no-gate", "squid-both-gates", "squid-e-j-inf",
        "squid-mixing-nan", "squid-v-g-inf", "squid-c-g-inf", "raman-g-nan",
        "raman-g-big-inf", "raman-no-g", "raman-j-eff-overflows",
        "squid-omega-overflows", "squid-line-underflows"])
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
    # counts: the README run's fit window [t_max/2, t_max] alone, at the
    # stride its phase allows, every row summed in the fit
    assert main(["verify", "--quick", "--out-dir", str(tmp_path)]) == 0
    (record,) = _manifest(tmp_path)["dde"]
    assert set(record) == _VERIFY_DDE_KEYS
    assert (record["kappa"], record["w"], record["t_max"]) == (50.0, 2.0,
                                                               6522.0)
    assert (record["stride"], record["output_points"],
            record["samples"]) == (305, 10692, 10692)
    assert record["terms"] < 1_000_000
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


def test_verify_report_rows_are_numbers_and_reruns_write_its_bytes(tmp_path):
    # the benchmark compares each output but the manifest byte for byte
    # across runs: each row holds its worst gap, tolerance and point, and
    # no timing
    for run in ("first", "second"):
        assert main(["verify", "--quick", "--out-dir",
                     str(tmp_path / run)]) == 0
    first, second = ((tmp_path / run / "verify_report.json").read_bytes()
                     for run in ("first", "second"))
    assert first == second
    for row in json.loads(first)["checks"]:
        assert set(row) == {"name", "passed", "worst", "tolerance", "where"}
        assert row["passed"] and 0 <= row["worst"] <= row["tolerance"]
        assert isinstance(row["where"], str) and row["where"]


def test_verify_dde_row_reaches_a_patched_slowest_mode(tmp_path, monkeypatch):
    # the DDE row looks its reference root up when it runs, so the patch
    # reaches a verify imported before it: the real root moved by 2% fails
    # the row by about 2%, and only it
    import qnmlab.verify  # noqa: F401
    monkeypatch.setattr("qnmlab.qnm.slowest_mode", lambda d: (
        mode := slowest_mode(d))._replace(theta=1.02 * mode.theta))
    assert main(["verify", "--quick", "--out-dir", str(tmp_path)]) == 3
    report = json.loads((tmp_path / "verify_report.json").read_text())
    (row,) = [c for c in report["checks"] if not c["passed"]]
    assert (row["name"], row["passed"]) == ("dde_vs_root", False)
    assert row["worst"] == pytest.approx(0.02, abs=2e-3)


@pytest.mark.parametrize("name, target, patch", [
    ("bound_state_in_continuum", "qnmlab.qnm.refine_root",
     lambda seed, d: refine_root(seed, d)._replace(converged=False)),
    ("pole_identity", "qnmlab.dynamics.pole_check", lambda d, theta: math.nan),
], ids=["no-answer", "not-finite"])
def test_verify_check_without_a_number_fails_with_null_worst(
        tmp_path, monkeypatch, name, target, patch):
    # the W = pi root does not converge, or the gap is nan: worst is null,
    # the check fails, and the report is still standard JSON
    monkeypatch.setattr(target, patch)
    assert main(["verify", "--quick", "--out-dir", str(tmp_path)]) == 3
    report = json.loads((tmp_path / "verify_report.json").read_text(),
                        parse_constant=pytest.fail)
    (row,) = [c for c in report["checks"] if not c["passed"]]
    assert (row["name"], row["worst"]) == (name, None)


@pytest.mark.parametrize("flags, full", [
    ([], False), (["--quick"], False), (["--full"], True),
], ids=["default", "quick", "full"])
def test_verify_records_full_only(flags, full):
    # the manifest's parameters are the parsed flags
    args = _build_parser().parse_args(["verify"] + flags)
    assert args.full is full
    assert not hasattr(args, "quick")


_TOL = ["--tol", "1e-12"]


@pytest.mark.parametrize("argv, flag", [
    (["spectrum", "--kappa", "200", "--w", "5"], _TOL),
    (["sweep", "--kappa", "200", "--w-min", "0.5", "--w-max", "12",
      "--steps", "20"], _TOL),
    (["wavefunction", "--kappa", "200", "--w", "5", "--j", "1",
      "--x-max", "40"], _TOL),
    (["evolve", "--kappa", "50", "--w", "2", "--t-max", "40"], _TOL),
    (["verify"], _TOL),
    # evolve's output grid is one for every run: no --dt either
    (["evolve", "--kappa", "50", "--w", "2", "--t-max", "1e300"],
     ["--dt", "1e-300"]),
], ids=["spectrum", "sweep", "wavefunction", "evolve", "verify", "evolve-dt"])
def test_tol_is_not_an_option_of_any_command(tmp_path, capsys, argv, flag):
    code = main(argv + flag + ["--out-dir", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"qnmlab: unrecognized arguments: {' '.join(flag)}\n")
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
    (["evolve", "--kappa", "10", "--w", "2", "--t-max", "40"], 0,
     ["_csv", "dynamics", "model", "qnm"], True),
    (["verify", "--quick"], 0, ["dynamics", "model", "qnm", "verify"], True),
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


@pytest.mark.parametrize("argv, code", [
    (["--version"], 0),
    (["--help"], 0),
    (["spectrum", "--kappa", "x"], 1),
], ids=["version", "help", "usage-error"])
def test_commands_without_outputs_load_no_json_or_datetime(argv, code):
    # the manifest writer imports them; this script reports without json
    script = ("import sys, qnmlab.cli; "
              "code = qnmlab.cli.main(sys.argv[1:]); "
              "print(code, 'json' in sys.modules, 'datetime' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert proc.stdout.splitlines()[-1] == f"{code} False False"


_ENTRY_SCRIPT = """\
import gc, json, sys, qnmlab.cli
collections = []
gc.callbacks.append(lambda phase, info: collections.append(phase))
try:
    qnmlab.cli.entry()
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, gc.isenabled(), gc.get_freeze_count() > 0,
                  len(collections)]))
"""


def test_console_entry_runs_without_the_cycle_collector(tmp_path):
    # off before numpy's import, which spectrum runs, and frozen before exit
    argv = ["spectrum", "--kappa", "200", "--w", "5", "--j-max", "2",
            "--out-dir", str(tmp_path)]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", _ENTRY_SCRIPT, *argv],
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, False, True, 0]
    assert (tmp_path / "modes.csv").exists()


def test_main_leaves_the_cycle_collector_as_it_found_it(tmp_path):
    before = gc.isenabled(), gc.get_freeze_count()
    assert main(["spectrum", "--kappa", "200", "--w", "5", "--j-max", "2",
                 "--out-dir", str(tmp_path)]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before


@pytest.mark.parametrize("argv, name", [
    (["spectrum", "--kappa", "200", "--w", "5"], "modes.csv"),
    (["sweep", "--kappa", "200", "--w-min", "0.5", "--w-max", "12",
      "--steps", "400"], "sweep.csv"),
], ids=["spectrum", "sweep"])
def test_console_entry_writes_the_bytes_of_main(tmp_path, argv, name):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, "-m", "qnmlab.cli", *argv, "--out-dir",
                    str(tmp_path / "entry")], env=env, timeout=120,
                   check=True)
    assert main(argv + ["--out-dir", str(tmp_path / "main")]) == 0
    assert ((tmp_path / "entry" / name).read_bytes()
            == (tmp_path / "main" / name).read_bytes())


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
