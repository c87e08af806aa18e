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
    assert counts["roots.isolations"] >= 4
    assert counts["polynomials.calls"] == 4  # one family member per m
    assert counts["kernel.calls"] > 0
