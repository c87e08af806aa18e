"""The benchmark's layer tracer wraps package functions by name.

``perfbench/tracer.py`` lists, per layer, the functions it wraps in each
``magicfiber`` module.  Deleting or renaming one of them breaks
``perfbench/run.py --trace 1``; these tests catch that in the test suite.
"""

import importlib
import importlib.util
import io
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import magicfiber.cli
from magicfiber import asymptotics, family, roots

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("layer", sorted(tracer.LAYERS))
def test_every_wrapped_name_exists(layer):
    module, names = tracer.LAYERS[layer]
    owner = importlib.import_module(f"magicfiber.{module}")
    missing = [name for name in names if not callable(getattr(owner, name, None))]
    assert not missing, f"magicfiber.{module} lacks {missing}"


def test_tracer_installs_traces_and_restores():
    bound = (roots.eval_enclosure, family.unique_root_gt1, asymptotics.b_family)
    t = tracer.Tracer("magicfiber", Fraction(1, 10**12))
    with t.installed():
        assert roots.eval_enclosure is not bound[0]
        with redirect_stdout(io.StringIO()):
            code = magicfiber.cli.main(["asymp", "bracket", "--m-range", "2..5"])
    assert code == 0
    assert (roots.eval_enclosure, family.unique_root_gt1, asymptotics.b_family) == bound
    counts = t.counts()
    # m = 2 and the ends of the block [3, 5], which settle it: one family
    # member per root isolated
    assert counts["roots.isolations"] == 3
    assert counts["polynomials.calls"] == 3
    assert counts["kernel.calls"] > 0


# Short forms of the four workloads of perfbench/run.py, each run at --jobs 1
# under the tracer, as its measure_layers runs them.
SHORT_WORKLOADS = {
    "bounds": ["bounds", "-g", "2", "-n", "3..20", "--tol", "1e-30"],
    "bracket": ["asymp", "bracket", "-g", "2", "--m-range", "2..20"],
    "ratio": ["asymp", "ratio", "-g", "2", "-q", "2", "-v", "4", "--points", "10000,100000"],
    "oracles": ["verify", "roots", "identity", "rootcount"],
}


@pytest.mark.parametrize("workload", sorted(SHORT_WORKLOADS))
def test_traced_workload_isolates_a_root(workload):
    # Lift this check once measure_layers guards a workload with no
    # isolation (ROADMAP item 1).
    t = tracer.Tracer("magicfiber", Fraction(1, 10**12))
    with t.installed(), redirect_stdout(io.StringIO()):
        code = magicfiber.cli.main(SHORT_WORKLOADS[workload] + ["--jobs", "1", "--format", "json"])
    assert code == 0
    assert t.counts()["roots.isolations"] >= 1, (
        f"{workload} isolates no root: perfbench/run.py measure_layers divides "
        "kernel.calls and roots.distinct by roots.isolations and reads "
        "root_latencies[0], so --trace 1 would exit 1; guard that division "
        "first (ROADMAP item 1)"
    )
