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


def test_modulus_comparisons_avoid_roots():
    lam = sc.Scalar(rat(1), rat(1))
    assert sc.modulus_leq(lam, rat(2))
    assert not sc.modulus_leq(lam, rat(1))
    with pytest.raises(ValueError):
        sc.modulus_leq(lam, rat(-1))


def test_pythagorean_units_have_unit_modulus():
    for u in sc.PYTHAGOREAN_UNITS:
        assert sc.modulus_squared(u) == 1


def test_sample_scalars_deterministic_and_bounded():
    a = sc.sample_scalars(rat(2), 30, 7, sc.ANY_SCALAR)
    b = sc.sample_scalars(rat(2), 30, 7, sc.ANY_SCALAR)
    assert a == b
    for lam in a:
        assert sc.modulus_leq(lam, rat(2))


def test_sample_scalars_pythagorean_mode():
    for lam in sc.sample_scalars(rat(3), 40, 11, sc.PYTHAGOREAN_ONLY):
        assert lam.exact_modulus is not None


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
