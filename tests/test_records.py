"""The result records: immutable NamedTuples, checked where a rule applies.

``FiberedClass`` and ``SparsePoly`` check their fields on every
construction, ``_replace`` and unpickling included.  ``bounds`` rows cross
the ``--jobs`` process pool by pickle, so they must survive a round trip;
the asymptotics records keep their round trips too, as public values.
"""

import doctest
import pickle
import re
from fractions import Fraction
from pathlib import Path

import pytest

from magicfiber import (
    FiberedClass,
    SparsePoly,
    bound_row,
    dilatation_poly,
    fiber_data,
    make_poly,
    unique_root_gt1,
)
from magicfiber.asymptotics import _ratio_row
from magicfiber.homology import MAX_COORD

README = Path(__file__).resolve().parent.parent / "README.md"


class TestFiberedClass:
    @pytest.mark.parametrize(
        "coords, error, text",
        [
            ((1.5, 0, 0), TypeError, "coordinates must be integers, got 1.5"),
            ((1, None, 0), TypeError, "coordinates must be integers, got None"),
            ((0, 0, MAX_COORD + 1), ValueError,
             f"coordinate {MAX_COORD + 1} exceeds the supported range 2**62"),
            ((True, 2, 0), TypeError, "coordinates must be integers, got True"),
        ],
    )
    def test_construction_errors(self, coords, error, text):
        with pytest.raises(error, match=re.escape(text)) as info:
            FiberedClass(*coords)
        assert info.type is error
        with pytest.raises(error, match=re.escape(text)):
            FiberedClass(1, 1, 0)._replace(**dict(zip("xyz", coords)))

    def test_fields_cannot_be_set(self):
        fc = FiberedClass(3, 1, -2)
        with pytest.raises(AttributeError):
            fc.x = 4
        with pytest.raises(AttributeError):
            fc.w = 0

    def test_equal_classes_hash_equal(self):
        a, b = FiberedClass(3, 1, -2), FiberedClass(*[3, 1, -2])
        assert a == b and hash(a) == hash(b)
        assert len({a, b, FiberedClass(1, 1, 0)}) == 2

    def test_pickle_round_trip_is_checked(self):
        fc = FiberedClass(3, 1, -2)
        back = pickle.loads(pickle.dumps(fc))
        assert back == fc and type(back) is FiberedClass

    def test_repr(self):
        assert repr(FiberedClass(3, 1, -2)) == "FiberedClass(x=3, y=1, z=-2)"


class TestSparsePoly:
    @pytest.mark.parametrize(
        "terms, text",
        [
            (((1, 1), (2, 1)), "exponents must be strictly decreasing"),
            (((2, 1), (2, 1)), "exponents must be strictly decreasing"),
            (((1, 0),), "zero coefficient in canonical form"),
            (((-1, 1),), "negative exponent -1"),
        ],
    )
    def test_non_canonical_terms_rejected(self, terms, text):
        with pytest.raises(ValueError, match=re.escape(text)):
            SparsePoly(terms)
        with pytest.raises(ValueError, match=re.escape(text)):
            SparsePoly(((1, 1),))._replace(terms=terms)

    @pytest.mark.parametrize(
        "terms",
        [((2.5, 1), (0, -1)), ((2, 1.0), (0, -1)), ((True, 1),), ((1, True),)],
    )
    def test_non_int_terms_rejected(self, terms):
        text = "exponents and coefficients must be integers, got "
        with pytest.raises(TypeError, match=re.escape(text + repr(terms[0]))):
            SparsePoly(terms)
        with pytest.raises(TypeError, match=re.escape(text)):
            SparsePoly(((1, 1),))._replace(terms=terms)
        with pytest.raises(TypeError, match=re.escape(text)):
            make_poly(terms)

    def test_make_poly_checks_a_term_that_cancels(self):
        with pytest.raises(TypeError):
            make_poly([(2.5, 1), (2.5, -1)])
        with pytest.raises(ValueError, match="negative exponent -1"):
            make_poly([(-1, 1), (-1, -1)])

    def test_fields_cannot_be_set(self):
        with pytest.raises(AttributeError):
            dilatation_poly((3, 1, -2)).terms = ()

    def test_equal_polys_hash_equal(self):
        a, b = dilatation_poly((3, 1, -2)), dilatation_poly(FiberedClass(3, 1, -2))
        assert a == b and hash(a) == hash(b)


class TestPlainRecords:
    def test_readme_library_block_runs_as_a_doctest(self):
        text = README.read_text()
        block = text.split("## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        test = doctest.DocTestParser().get_doctest(block, {}, "README Library", str(README), 0)
        runner = doctest.DocTestRunner(optionflags=doctest.NORMALIZE_WHITESPACE)
        failed, attempted = runner.run(test)
        assert (failed, attempted) == (0, 9)

    def test_fields_cannot_be_set(self):
        fd = fiber_data((3, 1, -2))
        with pytest.raises(AttributeError):
            fd.genus = 0
        with pytest.raises(AttributeError):
            fd.extra = 0

    def test_equal_records_hash_equal(self):
        f = dilatation_poly((3, 1, -2))
        a, b = unique_root_gt1(f), unique_root_gt1(f)
        assert a is not b and a == b and hash(a) == hash(b)
        assert hash(fiber_data((3, 1, -2))) == hash(fiber_data((3, 1, -2)))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: unique_root_gt1(dilatation_poly((3, 1, -2)), Fraction(1, 10**20)),
            lambda: bound_row(2, 9),
            lambda: bound_row(0, 3),  # no witness: record is None
            lambda: _ratio_row(2, 100, Fraction(2), Fraction(4), Fraction(1, 10**12)),
        ],
        ids=["CertifiedRoot", "BoundRow", "BoundRow-empty", "RatioRow"],
    )
    def test_pickle_round_trip(self, make):
        rec = make()
        back = pickle.loads(pickle.dumps(rec))
        assert back == rec and type(back) is type(rec)
