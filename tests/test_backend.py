"""The pure rational type against ``fractions.Fraction``, the backend
switch ``EVSLAB_BACKEND`` and the seeded draw helpers."""

import copy
import importlib.util
import math
import numbers
import operator
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as hst

from evslab._backend import Rat, _PureRat, draw_int, draw_rat

# small values hit the zero, sign and common-factor cases; large ones
# overflow every machine word
ints = hst.one_of(hst.integers(-12, 12), hst.integers(-10**40, 10**40))
nonzero = ints.filter(bool)
rats = hst.builds(_PureRat, ints, nonzero)
# a Rat or an int on each side, at least one Rat
SHAPES = {"rat-rat": hst.tuples(rats, rats),
          "rat-int": hst.tuples(rats, ints),
          "int-rat": hst.tuples(ints, rats)}
# every Rat of height <= 6, and the ints beside them
SMALL_RATS = sorted({_PureRat(n, d)
                     for n in range(-6, 7) for d in range(1, 7)})
SMALL_PAIRS = ([(x, y) for x in SMALL_RATS for y in SMALL_RATS]
               + [(x, k) for x in SMALL_RATS for k in range(-6, 7)]
               + [(k, x) for x in SMALL_RATS for k in range(-6, 7)])

ARITHMETIC = [operator.add, operator.sub, operator.mul, operator.truediv]
COMPARISONS = [operator.eq, operator.ne, operator.lt, operator.le,
               operator.gt, operator.ge]


def plain(x):
    return Fraction(x.numerator, x.denominator)


def assert_canonical(q, expected):
    """``q`` is the pure type, equals ``expected`` and has canonical slots,
    a hash and a repr that match a ``Fraction`` of the same value."""
    assert type(q) is _PureRat
    n, d = q._numerator, q._denominator
    assert type(n) is int and type(d) is int
    assert d > 0 and math.gcd(n, d) == 1
    assert (n, d) == (expected.numerator, expected.denominator)
    assert hash(q) == hash(expected)
    assert repr(q) == repr(expected)
    assert str(q) == str(expected)


@given(ints, nonzero)
@example(0, -7)
@example(-6, -4)
def test_two_int_constructor_matches_fraction(n, d):
    assert_canonical(_PureRat(n, d), Fraction(n, d))
    assert_canonical(_PureRat(n), Fraction(n))


def check_pair(x, y):
    """Every fast-path binary operator on ``x``, ``y`` against Fraction."""
    fx, fy = Fraction(x), Fraction(y)
    for op in ARITHMETIC:
        if op is operator.truediv and fy == 0:
            with pytest.raises(ZeroDivisionError):
                op(x, y)
        else:
            assert_canonical(op(x, y), op(fx, fy))
    for op in COMPARISONS:
        assert op(x, y) is op(fx, fy)


@pytest.mark.parametrize("shape", SHAPES)
@given(data=hst.data())
def test_binary_operators_match_fraction(shape, data):
    check_pair(*data.draw(SHAPES[shape]))


def test_binary_operators_match_fraction_on_every_small_pair():
    for x, y in SMALL_PAIRS:
        check_pair(x, y)


@given(rats, hst.one_of(ints.map(Fraction), rats.map(plain)),
       hst.sampled_from(COMPARISONS))
def test_comparisons_with_plain_fractions(x, f, op):
    assert op(x, f) is op(plain(x), f)
    assert op(f, x) is op(f, plain(x))


@given(rats, hst.one_of(ints.map(Fraction), rats.map(plain)),
       hst.sampled_from(ARITHMETIC))
def test_arithmetic_with_plain_fractions_keeps_the_value(x, f, op):
    for a, b, fa, fb in ((x, f, plain(x), f), (f, x, f, plain(x))):
        if op is operator.truediv and fb == 0:
            with pytest.raises(ZeroDivisionError):
                op(a, b)
        else:
            assert op(a, b) == op(fa, fb)


@given(rats)
def test_unary_operators_match_fraction(x):
    f = plain(x)
    assert_canonical(-x, -f)
    assert_canonical(abs(x), abs(f))
    assert bool(x) is bool(f)


@given(ints)
def test_division_by_zero_raises(n):
    q = _PureRat(n, 3)
    for thunk in (lambda: q / 0, lambda: q / _PureRat(0),
                  lambda: n / _PureRat(0), lambda: _PureRat(n, 0)):
        with pytest.raises(ZeroDivisionError):
            thunk()


def test_the_pure_type_is_a_fraction_in_every_other_respect():
    q = _PureRat(-7, 3)
    assert isinstance(q, Fraction) and isinstance(q, numbers.Rational)
    assert _PureRat(q) is q and _PureRat(q, 1) is q
    assert _PureRat(Fraction(6, 4)) == Fraction(3, 2)
    assert _PureRat("5/10") == _PureRat(1, 2)
    assert (math.floor(q), round(q), int(q)) == (-3, -2, -2)
    assert q ** 2 == Fraction(49, 9) and float(q) == -7 / 3
    for clone in (pickle.loads(pickle.dumps(q)), copy.copy(q),
                  copy.deepcopy(q)):
        assert_canonical(clone, Fraction(-7, 3))
    assert {_PureRat(1, 2), Fraction(1, 2), 0.5} == {0.5}
    assert _PureRat(1, 2) == 0.5 and _PureRat(1, 2) < 1.0


SRC = str(Path(__file__).resolve().parent.parent / "src")
PROBE = ("import evslab._backend as b; "
         "print(b.BACKEND, b.Rat.__name__, repr(b.rat(6, -4)))")


def _import_backend(value):
    env = dict(os.environ, PYTHONPATH=SRC, EVSLAB_BACKEND=value)
    return subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=60)


def test_backend_switch_pure():
    res = _import_backend("pure")
    assert res.returncode == 0, res.stderr
    assert res.stdout.split(maxsplit=2) == ["pure", "_PureRat",
                                            "Fraction(-3, 2)\n"]


def test_backend_switch_rejects_an_unknown_name():
    res = _import_backend("bogus")
    assert res.returncode != 0
    assert "RuntimeError: unknown EVSLAB_BACKEND='bogus'" in res.stderr


@pytest.mark.skipif(importlib.util.find_spec("gmpy2") is not None,
                    reason="gmpy2 is installed")
def test_backend_switch_gmpy2_without_gmpy2_is_an_import_error():
    res = _import_backend("gmpy2")
    assert res.returncode != 0
    assert "ImportError" in res.stderr or "ModuleNotFoundError" in res.stderr


@pytest.mark.parametrize("lo", [-40, -6, -1, 0, 1, 7])
def test_draws_equal_randint_and_choice_on_twin_streams(lo):
    """Every width 1-70 (powers of two among them), interleaved with
    ``random()``: a change to ``randrange`` or ``choice`` fails here by
    name instead of shifting every seeded golden."""
    ours, ref = random.Random(lo), random.Random(lo)
    for width in range(1, 71):
        hi = lo + width - 1
        seq = list(range(lo, hi + 1))
        for _ in range(25):
            assert draw_int(ours, lo, hi) == ref.randint(lo, hi)
            assert ours.random() == ref.random()
            assert seq[draw_int(ours, 0, width - 1)] == ref.choice(seq)
            q = Rat(ref.randint(lo, hi), ref.randint(1, width))
            # equal reprs: the same canonical numerator and denominator
            assert repr(draw_rat(ours, lo, hi, width)) == repr(q)
    assert ours.getstate() == ref.getstate()


@pytest.mark.parametrize("lo, hi", [(1, 0), (0, -5)])
def test_draw_int_rejects_an_empty_range_as_randint_does(lo, hi):
    ours, ref = random.Random(3), random.Random(3)
    with pytest.raises(ValueError):
        ref.randint(lo, hi)
    with pytest.raises(ValueError):
        draw_int(ours, lo, hi)
    with pytest.raises(ValueError):
        draw_rat(ours, lo, hi, 6)
    assert ours.getstate() == ref.getstate()
