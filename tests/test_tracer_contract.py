"""The names the benchmark's tracer, bench/layers.py, looks up in qnmlab.

The tracer wraps functions by name and raises if one is gone, which the
benchmark's smoke run would find only after minutes; these tests load the
tracer module as it is and check its names in seconds.
"""

import importlib.util
from pathlib import Path

import pytest

import qnmlab
from qnmlab import cli
from qnmlab.dynamics import DdeConfig
from qnmlab.model import DimensionlessParams

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _layers()
_TRACED = [f"{mod_name}.{name}"
           for table in (layers.SPANNED, layers.COUNTED)
           for mod_name, names in table.items() for name in names]


@pytest.mark.parametrize("qualname", _TRACED)
def test_every_traced_name_resolves_in_its_module(qualname):
    mod_name, name = qualname.split(".")
    # the tracer reaches each module as an attribute of the package
    assert callable(getattr(getattr(qnmlab, mod_name), name, None))


@pytest.mark.parametrize("name", ["write_csv", "write_json"])
def test_traced_writers_are_run_methods(name):
    assert callable(getattr(cli._Run, name, None))


def test_installed_tracer_counts_an_evolve_atom_run():
    # the evolve hook reads the config and the result's times
    tracer = layers.Tracer()
    tracer.install(qnmlab, cli)
    try:
        res = qnmlab.dynamics.evolve_atom(DdeConfig(
            d=DimensionlessParams(kappa=10.0, W=2.0), t_max=40.0))
    finally:
        tracer.uninstall()
    assert [span[0] for span in tracer.spans] == ["dynamics.evolve_atom"]
    assert tracer.counts["output_points"] == len(res.times)
    assert tracer.counts["dde_steps"] == 2000 * 20
