"""Start-up: an invocation imports only the code its subcommand runs.

``import magicfiber`` loads no submodule; its public names are imported on
first access.  The CLI imports the asymptotics, family and verify modules
inside the subcommands that run them (``verify`` imports asymptotics inside
``suite_asymp`` alone), and the records are NamedTuples, so
``dataclasses`` (with ``inspect``, ``ast`` and ``dis``) is never imported.
Only ``bounds`` starts worker processes: at ``--jobs 2``, ``asymp`` and
``verify`` load neither ``concurrent.futures.process`` nor ``multiprocessing``,
and neither does ``bounds`` at ``--jobs 1``, which runs its rows inline.
Each check runs in a fresh interpreter and looks only at the modules the
statement adds to those the bare interpreter already has.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import magicfiber
from magicfiber import cli, verify

HEAVY = {"dataclasses", "magicfiber.family", "magicfiber.verify", "magicfiber.sturm"}
POOL = {"concurrent.futures.process", "multiprocessing"}


def _added_modules(statement: str) -> set[str]:
    """The modules that ``statement`` adds in a fresh interpreter."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{statement}\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(magicfiber.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def _cli_modules(argv: list[str]) -> set[str]:
    """The modules that ``cli.main(argv)`` adds in a fresh interpreter."""
    return _added_modules(
        "import contextlib, io\n"
        "from magicfiber import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "assert code == 0, code"
    )


def test_package_import_loads_no_submodule():
    assert _added_modules("import magicfiber") == {"magicfiber"}


def test_cli_import_loads_no_subcommand_code():
    added = _added_modules("import magicfiber.cli")
    assert "magicfiber.cli" in added
    assert not added & (HEAVY | {"magicfiber.asymptotics"})


@pytest.mark.parametrize(
    "argv", [["asymp", "ratio", "--points", "10,100"], ["asymp", "bracket", "--m-range", "2..20"]],
    ids=["ratio", "bracket"],
)
def test_asymp_loads_only_asymptotics(argv):
    added = _cli_modules(argv)
    assert "magicfiber.asymptotics" in added
    assert not added & HEAVY


def test_verify_roots_loads_no_asymptotics():
    added = _cli_modules(["verify", "roots"])
    assert "magicfiber.verify" in added
    assert "magicfiber.asymptotics" not in added


@pytest.mark.parametrize(
    "argv",
    [["asymp", "ratio", "--points", "10,100,1000,10000"], ["verify", "asymp"]],
    ids=["ratio", "verify"],
)
def test_asymp_and_verify_load_no_pool_at_two_jobs(argv):
    assert not _cli_modules(argv + ["--jobs", "2"]) & POOL


def test_bounds_loads_no_pool_at_one_job():
    added = _cli_modules(["bounds", "-g", "2", "-n", "3..40", "--tol", "1e-30", "--jobs", "1"])
    assert "magicfiber.family" in added
    assert not added & POOL


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one CPU: bounds runs inline")
def test_bounds_loads_the_pool_at_two_jobs():
    added = _cli_modules(["bounds", "-g", "2", "-n", "3..40", "--tol", "1e-30", "--jobs", "2"])
    assert POOL <= added


class TestExports:
    @pytest.mark.parametrize("name", sorted(magicfiber._EXPORTS))
    def test_name_is_its_home_modules_object(self, name):
        home = importlib.import_module(f"magicfiber.{magicfiber._EXPORTS[name]}")
        assert getattr(magicfiber, name) is getattr(home, name)

    def test_all_lists_every_export(self):
        assert magicfiber.__all__ == ["__version__", "KERNEL_BACKEND", *magicfiber._EXPORTS]
        assert set(magicfiber.__all__) <= set(dir(magicfiber))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(magicfiber, "no_such_name")
        assert not hasattr(magicfiber, "no_such_name")

    def test_suite_names_match_the_registry(self):
        assert cli.SUITE_NAMES == tuple(verify.SUITES)
