"""The benchmark tracer still fits the package.

``perfbench/spans.py`` swaps named module attributes of ``dgfilter`` for
timing wrappers and calls ``integrate`` with its full keyword signature.
A renamed attribute or keyword would break ``perfbench/run.py --trace 1``
without touching any other test; here it fails tier-1 instead.
"""

import importlib.util
from pathlib import Path

import pytest

from dgfilter import cli, experiments
from dgfilter.fv import FvConfig

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_and_restores(spans, tmp_path, capsys):
    before = (experiments.integrate, experiments.build_filter, cli.main)
    tracer = spans.Tracer()
    with spans.patched(tracer):
        conv = experiments.run_convergence([7, 9], 0.01, t_final=0.05)
        experiments.write_csv(tmp_path / "c.csv", [conv.record])
        linear = tracer.totals()
        bur = experiments.run_burgers("skew_filtered", n=16, filter_count=2, t_final=0.1)
        experiments.write_csv(tmp_path / "b.csv", [bur.record])
        experiments.run_fv_reference(FvConfig(cells=20, t_final=0.1))
        assert cli.main(["ops", "check", "--n", "8"]) == 0
        assert cli.main(["filter", "verify", "--n", "8"]) == 0
    capsys.readouterr()
    assert (experiments.integrate, experiments.build_filter, cli.main) == before

    totals = tracer.totals()
    expected = [
        "operators.build", "operators.lgl", "operators.derivative", "operators.vandermonde",
        "filters.build", "filters.norm", "filters.verify", "filters.gram", "filters.adjoint",
        "filters.spectrum", "equations.rhs", "equations.inflow", "kernels.rhs", "kernels.fv",
        "timestepping.integrate", "timestepping.step", "timestepping.observer",
        "timestepping.crash_check", "timestepping.dt_fn", "fv.solve", "experiments.driver",
        "experiments.csv", "cli.main",
    ]
    missing = [name for name in expected if totals.get(name, {}).get("calls", 0) == 0]
    assert not missing
    # the linear studies step with the affine propagator, which is still
    # built from the traced inflow and right-hand side
    assert all(linear[name]["calls"] > 0
               for name in ("equations.inflow", "equations.rhs", "kernels.rhs"))
    assert linear["timestepping.integrate"]["calls"] == 0
    assert tracer.counts["timestepping.steps"] > 0
    # filter events are counted by integrate, which only Burgers calls now:
    # the two scheduled events of the skew_filtered run
    assert tracer.counts["filters.apply_count"] == 2
