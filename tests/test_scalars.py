import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as hst

from evslab import scalars as sc
from evslab._backend import Rat, rat, rat_sqrt

rationals = hst.fractions(max_denominator=50).map(
    lambda f: Rat(f.numerator, f.denominator))


@given(rationals, rationals)
def test_render_parse_round_trip(re, im):
    lam = sc.Scalar(re, im)
    assert sc.parse_scalar(sc.render_scalar(lam)) == lam


@pytest.mark.parametrize("text,re,im", [
    ("3/5+4/5i", rat(3, 5), rat(4, 5)),
    ("-2/3", rat(-2, 3), rat(0)),
    ("i", rat(0), rat(1)),
    ("-i", rat(0), rat(-1)),
    ("1-2i", rat(1), rat(-2)),
    ("0", rat(0), rat(0)),
])
def test_parse_examples(text, re, im):
    assert sc.parse_scalar(text) == sc.Scalar(re, im)


@given(rationals, rationals, rationals, rationals)
def test_modulus_multiplicative(a, b, c, d):
    x, y = sc.Scalar(a, b), sc.Scalar(c, d)
    assert sc.modulus_squared(x * y) == \
        sc.modulus_squared(x) * sc.modulus_squared(y)


def test_modulus_exact_on_pythagorean():
    lam = sc.Scalar(rat(3, 5), rat(4, 5))
    assert lam.exact_modulus is not None
    assert sc.modulus(lam) == 1
    assert sc.modulus(sc.scalar(-2)) == 2


def test_modulus_raises_on_irrational():
    lam = sc.Scalar(rat(1), rat(1))  # |1+i| = sqrt(2)
    assert lam.exact_modulus is None
    with pytest.raises(ValueError):
        sc.modulus(lam)


def test_pythagorean_units_have_unit_modulus():
    for u in sc.PYTHAGOREAN_UNITS:
        assert sc.modulus_squared(u) == 1


def test_sample_scalars_deterministic_and_bounded():
    a = sc.sample_scalars(rat(2), 30, 7)
    b = sc.sample_scalars(rat(2), 30, 7)
    assert a == b
    for lam in a:
        assert sc.modulus_squared(lam) <= 4


def test_sample_scalars_pythagorean_mode():
    for lam in sc.sample_scalars(rat(3), 40, 11):
        assert lam.exact_modulus is not None


@pytest.mark.parametrize("count", [0, 1, 3, 4, 5, 8])
def test_samplers_are_prefix_stable(count):
    # the fixed scalars and boundary tuples are cut at count before any
    # draw, so a shorter request is a prefix of a longer one
    assert sc.sample_scalars(rat(7, 2), count, 3) == \
        sc.sample_scalars(rat(7, 2), 12, 3)[:count]
    for mode in (sc.ANY_SCALAR, sc.PYTHAGOREAN_ONLY):
        assert sc.sample_scalar_tuples(2, count, 3, mode) == \
            sc.sample_scalar_tuples(2, 12, 3, mode)[:count]


def test_scalar_tuples_closed_under_field_ops():
    # tuples in Pythagorean mode live on one rational ray, so sums and
    # products of members stay Pythagorean
    for tup in sc.sample_scalar_tuples(2, 50, 3, sc.PYTHAGOREAN_ONLY):
        a, b = tup
        assert a.exact_modulus is not None and b.exact_modulus is not None
        assert (a + b).exact_modulus is not None
        assert (a * b).exact_modulus is not None


# Gaussian rationals whose real and imaginary parts are often exactly zero,
# plus rational multiples of Pythagorean units (rational modulus)
parts = hst.one_of(hst.just(Rat(0)), rationals)
gaussians = hst.one_of(
    hst.builds(sc.Scalar, parts, parts),
    hst.builds(sc.scale_unit, hst.sampled_from(sc.PYTHAGOREAN_UNITS), parts),
)


@given(gaussians, gaussians)
def test_product_matches_four_product_formula(x, y):
    a, b, c, d = x.re, x.im, y.re, y.im
    textbook = sc.Scalar(a * c - b * d, a * d + b * c)
    p = x * y
    assert p == textbook
    assert sc.render_scalar(p) == sc.render_scalar(textbook)


@given(gaussians)
@example(sc.Scalar(rat(1), rat(2)))  # |1+2i| = sqrt(5)
def test_cached_modulus_is_exact_and_invisible(x):
    fresh = sc.Scalar(x.re, x.im)
    eq, h, r = x == fresh, hash(x), repr(x)
    expected = rat_sqrt(sc.modulus_squared(x))
    for _ in range(2):
        if expected is None:
            assert x.exact_modulus is None
            with pytest.raises(ValueError, match="irrational modulus"):
                sc.modulus(x)
        else:
            assert x.exact_modulus is not None
            assert sc.modulus(x) == expected
    assert (x == fresh, hash(x), repr(x)) == (eq, h, r)
    assert hash(x) == hash(fresh)


# A reference model of the Gaussian rationals: the pair (re, im) of
# ``Fraction``s, with the textbook field operations.
fracs = hst.one_of(hst.just(Fraction(0)), hst.fractions(max_denominator=60))


def _rat(f):
    return Rat(f.numerator, f.denominator)


def _model_render(re, im):
    if im == 0:
        return str(re)
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}i"


def _model_sqrt(q):
    n, d = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return Fraction(n, d) if (n * n, d * d) == (q.numerator,
                                                 q.denominator) else None


def _assert_canonical(x):
    """(a + b*i)/d with d > 0 and gcd(a, b, d) = 1, over plain ints."""
    a, b, d = x._a, x._b, x._d
    assert (type(a), type(b), type(d)) == (int, int, int)
    assert d > 0 and math.gcd(a, b, d) == 1


def _assert_is_model(x, re, im):
    _assert_canonical(x)
    assert (x.re, x.im) == (re, im)
    assert x == sc.Scalar(_rat(re), _rat(im))
    assert hash(x) == hash((re, im))
    assert repr(x) == f"Scalar(re={_rat(re)!r}, im={_rat(im)!r})"
    assert sc.render_scalar(x) == _model_render(re, im)
    assert sc.parse_scalar(sc.render_scalar(x)) == x
    assert sc.modulus_squared(x) == re * re + im * im
    assert x.exact_modulus == _model_sqrt(re * re + im * im)
    assert x.is_zero() == (re == 0 and im == 0)


@given(fracs, fracs, fracs, fracs)
@example(Fraction(1, 2), Fraction(0), Fraction(1, 2), Fraction(0))
@example(Fraction(1, 3), Fraction(-1, 3), Fraction(1, 3), Fraction(-1, 3))
def test_scalar_matches_the_two_fraction_model(p, q, r, s):
    x, y = sc.Scalar(_rat(p), _rat(q)), sc.Scalar(_rat(r), _rat(s))
    _assert_is_model(x, p, q)
    # from_ints reduces parts that are not in lowest terms
    _assert_is_model(sc.from_ints(3 * p.numerator, 3 * p.denominator,
                                  q.numerator, q.denominator), p, q)
    _assert_is_model(x + y, p + r, q + s)
    _assert_is_model(x - y, p - r, q - s)
    _assert_is_model(x - x, Fraction(0), Fraction(0))
    _assert_is_model(x * y, p * r - q * s, p * s + q * r)
    _assert_is_model(-x, -p, -q)
    _assert_is_model(sc.scale_unit(x, _rat(r)), p * r, q * r)
    assert (x == y) == ((p, q) == (r, s))
    assert x != (p, q) and x != p


def test_scalar_accepts_any_rational_parts():
    assert sc.Scalar(1, Fraction(-2, 4)) == sc.Scalar(rat(1), rat(-1, 2))
    assert sc.Scalar(Fraction(0), 0) == sc.S_ZERO
    assert (sc.S_ZERO._a, sc.S_ZERO._b, sc.S_ZERO._d) == (0, 0, 1)


@pytest.mark.parametrize("mode", [sc.ANY_SCALAR, sc.PYTHAGOREAN_ONLY])
def test_sampled_scalars_are_canonical(mode):
    for lam in sc.sample_scalars(rat(1, 3), 200, 5):
        _assert_canonical(lam)
    for tup in sc.sample_scalar_tuples(2, 200, 5, mode):
        for lam in tup:
            _assert_canonical(lam)


@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy,
    *(lambda x, p=p: pickle.loads(pickle.dumps(x, p))
      for p in range(pickle.HIGHEST_PROTOCOL + 1)),
])
def test_copies_and_pickles_round_trip(clone):
    for x in (sc.S_ZERO, sc.S_I, sc.Scalar(rat(3, 5), rat(-4, 5)),
              sc.Scalar(rat(1), rat(1, 2))):
        sc.modulus_squared(x)
        x.exact_modulus  # a filled cache is not part of the value
        y = clone(x)
        _assert_canonical(y)
        assert (y, hash(y), repr(y)) == (x, hash(x), repr(x))
        assert y.exact_modulus == x.exact_modulus


def test_scalar_is_immutable_and_slotted():
    x = sc.Scalar(rat(3, 5), rat(4, 5))
    assert not hasattr(x, "__dict__")
    for name in ("re", "im", "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, rat(1))
