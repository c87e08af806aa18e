"""``tools/code_lines.py`` counts code lines as its docstring defines them."""

import importlib.util
from pathlib import Path

COUNTER_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def _load_counter():
    spec = importlib.util.spec_from_file_location("tools_code_lines", COUNTER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SNIPPET = '''"""Module docstring,
over two lines."""

import math  # a trailing comment does not hide the code


class Box:
    """Class docstring."""

    # a comment line
    def area(self, w, h):
        """Function docstring."""
        return math.prod(
            (w, h)
        )


TEXT = """a string that is not a docstring
counts each of its lines"""
'''


def test_counts_code_lines_only():
    # import, class, def, the three lines of the return, and the two of TEXT
    assert _load_counter().code_lines(SNIPPET) == 8
