"""Instance structure tests, including the symbolic identities that back
the exactly-verified flags of the half line and the dictionary plane."""

import hashlib
import random
import re

import pytest
import sympy

from evslab import scalars as sc
from evslab import sets as st
from evslab._backend import Rat, rat
from evslab.instances import (FULL_SUBSPACE, PLANTED_FAULTS, ZERO_SUBSPACE,
                              dict_plane, half_line, line, make_instance,
                              span_join, subspace_leq, subspace_lattice)


def test_symbolic_halfline_identities():
    """The equality laws reduce to commutative-ring identities in the
    element and modulus variables, checked symbolically."""
    x, y, z = sympy.symbols("x y z", nonnegative=True)
    m1, m2 = sympy.symbols("m1 m2", nonnegative=True)
    assert sympy.simplify((x + y) + z - (x + (y + z))) == 0
    assert sympy.simplify(m1 * (x + y) - (m1 * x + m1 * y)) == 0
    assert sympy.simplify(m1 * (m2 * x) - (m1 * m2) * x) == 0
    assert sympy.simplify(1 * x - x) == 0


def test_symbolic_halfline_order_laws():
    """Monotonicity: differences stay nonnegative under + and scaling."""
    x, d, z = sympy.symbols("x d z", nonnegative=True)
    m = sympy.symbols("m", nonnegative=True)
    y = x + d  # an arbitrary point above x
    assert sympy.simplify((y + z) - (x + z)) == d
    assert sympy.simplify(m * y - m * x) == m * d
    # subadditivity of the modulus backs the scalar-sum law:
    # |a+b| <= |a| + |b| always, so (a+b).x <= a.x + b.x
    a_r, a_i, b_r, b_i = sympy.symbols("a_r a_i b_r b_i", real=True)
    lhs = (a_r + b_r) ** 2 + (a_i + b_i) ** 2
    rhs = (sympy.sqrt(a_r**2 + a_i**2) + sympy.sqrt(b_r**2 + b_i**2)) ** 2
    samples = [(1, 2, -3, 4), (0, 0, 1, 1), (2, -1, -2, 1), (5, 0, 0, 5)]
    for vals in samples:
        sub = dict(zip((a_r, a_i, b_r, b_i), vals))
        assert (rhs - lhs).subs(sub) >= 0


def test_symbolic_dict_plane_monotonicity():
    """Lexicographic order is translation invariant: both cases reduce
    to symbolic nonnegativity."""
    x1, x2, z1, z2 = sympy.symbols("x1 x2 z1 z2", nonnegative=True)
    d = sympy.symbols("d", positive=True)
    e = sympy.symbols("e", nonnegative=True)
    # case 1: strictly larger first coordinate survives translation
    assert sympy.simplify(((x1 + d) + z1) - (x1 + z1)) == d
    # case 2: equal firsts, second coordinates ordered
    assert sympy.simplify(((x2 + e) + z2) - (x2 + z2)) == e


def test_span_join_matches_sympy_rowspace():
    rng = random.Random(5)
    lattice = subspace_lattice()
    for _ in range(200):
        ys = []
        for _ in range(2):
            choice = rng.random()
            if choice < 0.2:
                ys.append(ZERO_SUBSPACE)
            elif choice < 0.4:
                ys.append(FULL_SUBSPACE)
            else:
                ys.append(line(rng.randint(-4, 4), rng.randint(-4, 4)))
        joined = span_join(ys[0], ys[1])
        rows = [[sympy.Rational(int(a.numerator), int(a.denominator))
                 for a in r] for r in ys[0] + ys[1]]
        rank = sympy.Matrix(rows).rank() if rows else 0
        assert len(joined) == rank
        # every generator lies in the join
        for y in ys:
            assert subspace_leq(y, joined)


def test_line_canonicalization():
    assert line(2, 4) == line(1, 2)
    assert line(0, 5) == line(0, 1)
    assert line(0, 0) == ZERO_SUBSPACE
    assert line(rat(1, 3), rat(1, 6)) == line(2, 1)


def test_lattice_order_is_inclusion():
    assert subspace_leq(ZERO_SUBSPACE, line(1, 1))
    assert subspace_leq(line(1, 1), FULL_SUBSPACE)
    assert not subspace_leq(line(1, 1), line(1, 2))
    assert not subspace_leq(FULL_SUBSPACE, line(1, 1))


def test_halfline_action_uses_modulus():
    H = half_line()
    lam = sc.Scalar(rat(3, 5), rat(4, 5))
    assert H.scale(lam, rat(7)) == 7
    assert H.scale(sc.scalar(-2), rat(3)) == 6


def test_twisted_action_zero_case():
    T = make_instance("twisted:2")
    x = (rat(5), (sc.scalar(1), sc.scalar(2)))
    assert T.scale(sc.S_ZERO, x) == T.zero
    y = T.scale(sc.scalar(3), x)
    assert y[0] == 5  # the radial coordinate is untouched for nonzero
    assert y[1][0] == sc.scalar(3)


def test_cone_action_scales_radius_by_modulus():
    C = make_instance("cone:1")
    x = (rat(2), (sc.scalar(1),))
    y = C.scale(sc.scalar(-3), x)
    assert y[0] == 6 and y[1][0] == sc.scalar(-3)


def test_make_instance_product_and_errors():
    P = make_instance("product:(halfline,cone:1)")
    assert P.element_kind == "product"
    assert P.scalar_mode == sc.PYTHAGOREAN_ONLY
    with pytest.raises(ValueError):
        make_instance("nonsense")
    with pytest.raises(ValueError):
        make_instance("product:halfline")


@pytest.mark.parametrize("spec,name", [
    *((spec, spec) for spec in ("halfline", "cone:1", "cone:2", "twisted:2",
                                "twisted:3", "dict2", "lattice2",
                                *PLANTED_FAULTS)),
    ("product:(halfline,dict2)", "product(halfline,dict2)"),
    ("product:(cone:1,product:(lattice2,twisted:3))",
     "product(cone:1,product(lattice2,twisted:3))"),
    (" \tproduct:( halfline , dict2 )\n", "product(halfline,dict2)"),
])
def test_each_spec_builds_the_instance_it_names(spec, name):
    assert make_instance(spec).name == name


# each would read as a canonical spec through int() or by dropping an
# empty product part
@pytest.mark.parametrize("spec", [
    "cone:1_0", "cone:+2", "cone: 2", "cone:02", "twisted:\u0662",
    "product:(halfline,)", "product:(,halfline)", "product:(halfline, )",
    "product: (halfline)"])
def test_a_spec_has_one_spelling(spec):
    with pytest.raises(ValueError,
                       match=re.escape(f"bad instance spec {spec!r}")):
        make_instance(spec)


def test_only_ascii_whitespace_around_a_spec_is_ignored():
    with pytest.raises(ValueError, match="unknown instance"):
        make_instance("\u00a0halfline")


def test_dict_plane_primitives():
    D = dict_plane()
    assert D.is_primitive(D.zero)
    assert not D.is_primitive((rat(0), rat(1)))  # (0,1) > (0,0) = theta
    assert D.primitive_set((rat(2), rat(3))) == [D.zero]


# sha256 prefixes of the rendered first 200 draws at seeds 7 and 42, so
# that a change to a sampler's specials, draw order or heights shows up
# here and not only in the verdicts it feeds; rendered text, not repr,
# reads the same under both rational backends
SAMPLE_DIGESTS = {
    "halfline": ("7ce6ade26a7d3982", "abf7e168a1cb404e"),
    "cone:2": ("b4ab0e57e8cf6fcc", "955eb5ed06a6db18"),
    "twisted:2": ("b4ab0e57e8cf6fcc", "955eb5ed06a6db18"),
    "dict2": ("53a831ec0efe1cad", "a251c9a0a33ceaf0"),
    "lattice2": ("997fe051aeec3414", "3e2ae7e62685adb6"),
    "product:(halfline,dict2)": ("354de894cff13ce4", "a1070d2718d82ada"),
    "cone:1": ("f1499c5968e8004e", "4f187018688e1e4b"),
    "halfline#no-modulus": ("7ce6ade26a7d3982", "abf7e168a1cb404e"),
    "twisted:2#no-zero-case": ("b4ab0e57e8cf6fcc", "955eb5ed06a6db18"),
    "lattice2#no-canonicalization": ("997fe051aeec3414",
                                     "3e2ae7e62685adb6"),
}
INTERVAL_UNION_DIGESTS = ("8797d1f34a65e935", "f9c4ea45d01998b7")
SCALAR_TUPLE_DIGESTS = {
    sc.PYTHAGOREAN_ONLY: ("071bdd6313499f01", "c1eb48d1bba8b9e1"),
    sc.ANY_SCALAR: ("8213dc126ff6bb4f", "f555106000cee0d5"),
}
STREAM_SEEDS = (7, 42)


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _interval_unions(seed, count):
    rng = random.Random(seed)
    return [st.random_interval_union(rng) for _ in range(count)]


@pytest.mark.parametrize("spec", SAMPLE_DIGESTS)
def test_samplers_keep_their_streams(spec):
    E = make_instance(spec)
    digests = []
    for seed in STREAM_SEEDS:
        full = E.sample(seed, 200)
        assert len(full) == 200
        for k in (0, 1, 2, 3, 4, 5, 37):
            assert E.sample(seed, k) == full[:k]
        digests.append(_digest(map(E.render, full)))
    assert tuple(digests) == SAMPLE_DIGESTS[spec]


def test_set_and_scalar_corpora_keep_their_streams():
    assert tuple(_digest(A.render() for A in _interval_unions(seed, 200))
                 for seed in STREAM_SEEDS) == INTERVAL_UNION_DIGESTS
    for mode, want in SCALAR_TUPLE_DIGESTS.items():
        assert tuple(_digest(",".join(map(sc.render_scalar, t))
                             for t in sc.sample_scalar_tuples(2, 200, seed,
                                                              mode))
                     for seed in STREAM_SEEDS) == want
