import copy
import json
import pickle
import random
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as hst

from evslab import scalars as sc
from evslab import sets as S
from evslab import topology
from evslab._backend import Rat, rat, rat_str
from evslab.instances import FULL_SUBSPACE, ZERO_SUBSPACE, line, make_instance
from evslab.sets import (ALL_SUBSPACES, INF, AnchoredBoxUnion, Box, Interval,
                         IntervalUnion, box, box_union, brute_absorbing_verdict,
                         brute_balanced_violation, interval_union, iu,
                         iu_down, iu_intersect, iu_minkowski, iu_scale,
                         iu_subset, iu_translate, iu_union, iu_up, ival,
                         is_absorbing, is_balanced, random_interval_union,
                         scale_set, set_member, set_with_point)
from evslab.setexpr import parse_set_expression


# ------------------------------------------------------- canonicalization

def test_adjacent_intervals_merge():
    u = iu((0, 1), (1, 2))  # [0,1) U [1,2) -> [0,2)
    assert u == iu((0, 2))
    assert u.render() == "[0,2)"


def test_open_touching_intervals_do_not_merge():
    u = iu((0, 1, True, False), (1, 2, False, False))  # [0,1) U (1,2)
    assert len(u.components) == 2
    assert not u.member(rat(1))


def test_overlap_and_closed_touch_merge():
    assert iu((0, 2), (1, 3)) == iu((0, 3))
    assert iu((0, 1, True, True), (1, 2, False, False)) == \
        iu((0, 2, True, False))


def test_empty_and_degenerate_components():
    assert iu((1, 1, True, False)).is_empty()
    u = iu((1, 1, True, True))  # the singleton {1}
    assert u.member(rat(1)) and not u.member(rat(2))


def test_negative_endpoint_rejected():
    with pytest.raises(ValueError):
        iu((-1, 2))


def test_unbounded_interval():
    u = iu((2, INF))
    assert u.member(rat(10**6))
    assert u.sup() == (INF, False)


# ---------------------------------------------------------------- algebra

_PIECES = [(rat(0), True, rat(1, 2), False), (rat(1), False, rat(1), True),
           (rat(3), False, INF, False)]


def _built_and_public():
    """Each piece and a union of them, made by the kernel builders and
    by the public constructors."""
    ivs = [(S._iv(*p), Interval(*p)) for p in _PIECES]
    comps = tuple(public for _, public in ivs)
    return ivs + [(S._iu(comps), IntervalUnion(comps)),
                  (S.EMPTY_IU, IntervalUnion(()))]


def test_builders_make_the_public_value():
    for built, public in _built_and_public():
        assert type(built) is type(public)
        assert (built, hash(built), repr(built)) == \
            (public, hash(public), repr(public))


def _carrier_values():
    """One value of each of the eight frozen carriers, as (value, the
    same value built by the public constructors)."""
    iv = Interval(rat(0), True, rat(1), False)
    comps = (iv,)
    ball = S.VectorRegion(S.BALL, (), rat(2))
    return [
        *_built_and_public(),
        (box(1, INF, True), Box(rat(1), False, INF, True)),
        (box_union([box(1, 2), box(2, 1, True)]),
         AnchoredBoxUnion((Box(rat(1), False, rat(2), False),
                           Box(rat(2), False, rat(1), True)))),
        (parse_set_expression("{zero,span(1,2)}", "lattice2"),
         S.LatticeFamily(S.FINITE, frozenset({ZERO_SUBSPACE, line(1, 2)}))),
        (S.ball(2), ball),
        (S.product_slice((S._iu(comps), S.ball(2))),
         S.ProductSlice(((IntervalUnion(comps), ball),))),
        (S.ProductCylinder((iu((0, 1)), None)),
         S.ProductCylinder((IntervalUnion(comps), None))),
    ]


def test_intervals_and_unions_are_frozen_and_slotted():
    for built, public in _carrier_values():
        for x in (built, public):
            assert not hasattr(x, "__dict__")
            assert type(x).__slots__
            for name in type(x).__slots__:
                value = getattr(x, name)
                with pytest.raises(AttributeError):
                    setattr(x, name, rat(1))
                with pytest.raises(AttributeError):
                    delattr(x, name)
                assert getattr(x, name) is value
            with pytest.raises(AttributeError):  # not a field either
                x.extra = rat(1)


@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy,
    *(lambda x, p=p: pickle.loads(pickle.dumps(x, p))
      for p in range(pickle.HIGHEST_PROTOCOL + 1)),
])
def test_intervals_and_unions_copy_and_pickle(clone):
    for built, public in _carrier_values():
        y = clone(built)
        assert type(y) is type(public)
        assert (y, hash(y), repr(y)) == (public, hash(public), repr(public))


def test_carriers_build_alike_by_keywords_and_by_position():
    r0, r1, r2 = rat(0), rat(1), rat(2)
    iv = Interval(r0, True, r1, False)
    ball = S.VectorRegion(S.BALL, radius=r2)
    cases = [
        (Interval, dict(lo=r0, lo_closed=True, hi=r1, hi_closed=False)),
        (IntervalUnion, dict(components=(iv,))),
        (Box, dict(a=r1, a_closed=False, b=INF, b_closed=True)),
        (AnchoredBoxUnion, dict(boxes=(box(1, 2),))),
        (S.LatticeFamily, dict(mode=S.COFINITE,
                               members=frozenset({ZERO_SUBSPACE}))),
        (S.VectorRegion, dict(kind=S.BALL, vectors=(), radius=r2)),
        (S.ProductSlice, dict(pieces=((IntervalUnion((iv,)), ball),))),
        (S.ProductCylinder, dict(factors=(None, IntervalUnion((iv,))))),
    ]
    for cls, kwargs in cases:
        by_name, by_position = cls(**kwargs), cls(*kwargs.values())
        assert type(by_name) is cls
        assert (by_name, hash(by_name), repr(by_name)) == \
            (by_position, hash(by_position), repr(by_position))
    # VectorRegion's defaults: no vectors, no radius
    assert ball == S.VectorRegion(S.BALL, (), r2)
    assert S.VectorRegion(S.FINITE_VECTORS) == \
        S.VectorRegion(S.FINITE_VECTORS, (), None)
    assert repr(iv) == \
        "Interval(lo=Fraction(0, 1), lo_closed=True, hi=Fraction(1, 1), " \
        "hi_closed=False)"
    assert iv.__eq__(r0) is NotImplemented and iv != r0


def test_intersect_union_subset():
    a, b = iu((0, 3)), iu((1, 2, False, True), (5, 6))
    assert iu_intersect(a, b) == iu((1, 2, False, True))
    assert iu_union(a, b) == iu((0, 3), (5, 6))
    assert iu_subset(iu((1, 2)), a)
    assert not iu_subset(b, a)


@hst.composite
def _unions(draw):
    """Canonical unions: seeded ``random_interval_union`` draws, and
    piece lists with small integer endpoints so that ties and touching
    ends are frequent."""
    if draw(hst.booleans()):
        return random_interval_union(
            random.Random(draw(hst.integers(0, 2**32))))
    pieces = draw(hst.lists(hst.tuples(
        hst.integers(0, 6), hst.integers(0, 3), hst.booleans(),
        hst.booleans(), hst.integers(0, 9)), max_size=5))
    return interval_union([
        Interval(rat(lo), lc, INF, False) if tail == 0 else
        Interval(rat(lo), lc, rat(lo + w), hc)
        for lo, w, lc, hc, tail in pieces])


def _grid(a, b):
    """Every endpoint, every midpoint between consecutive endpoints and
    one point beyond the last: membership in a and b is constant between
    these points, so the grid decides the set algebra exactly."""
    ends = sorted({rat(0)} | {e for u in (a, b) for c in u.components
                              for e in (c.lo, c.hi) if e is not INF})
    mids = [(x + y) / 2 for x, y in zip(ends, ends[1:])]
    return ends + mids + [ends[-1] + 1]


def _assert_canonical(u):
    for c in u.components:
        assert not c.is_empty() and c.lo >= 0
    for c, d in zip(u.components, u.components[1:]):
        # sorted, disjoint and not touching at a point either one holds
        assert c.hi is not INF and (c.hi < d.lo or (
            c.hi == d.lo and not (c.hi_closed or d.lo_closed)))


@settings(max_examples=400, deadline=None)
@given(hst.lists(hst.tuples(
    hst.integers(0, 4), hst.integers(-1, 3), hst.booleans(), hst.booleans(),
    hst.integers(0, 7)), max_size=6))
def test_interval_union_of_raw_pieces(raw):
    """Few small endpoints make nested pieces, equal ends and touching
    ends frequent; a piece with tail 0 is unbounded, and a width of -1
    or 0 gives an empty or a degenerate piece."""
    pieces = [Interval(rat(lo), lc, INF, hc) if tail == 0 else
              Interval(rat(lo), lc, rat(max(lo + w, 0)), hc)
              for lo, w, lc, hc, tail in raw]
    u = interval_union(pieces)
    # _grid reads only endpoints, so the raw pieces may form its union
    for x in _grid(IntervalUnion(tuple(pieces)), u):
        assert u.member(x) == any(c.member(x) for c in pieces)
    _assert_canonical(u)
    assert interval_union(list(u.components)) == u


_small_rats = hst.builds(Rat, hst.integers(0, 12), hst.integers(1, 6))


@settings(max_examples=400, deadline=None)
@given(_unions(), _unions(), _small_rats.filter(bool), _small_rats)
def test_kernel_matches_pointwise_membership(a, b, t, shift):
    meet, join = iu_intersect(a, b), iu_union(a, b)
    grid = _grid(a, b)
    for x in grid:
        assert meet.member(x) == (a.member(x) and b.member(x))
        assert join.member(x) == (a.member(x) or b.member(x))
    for out in (meet, join, iu_minkowski(a, b)):
        assert interval_union(list(out.components)) == out
    assert iu_subset(a, b) == all(b.member(x) for x in grid if a.member(x))
    assert iu_subset(a, a) and iu_subset(b, b)
    # images under y -> t.y (t > 0 and t = 0) and y -> shift + y
    scaled, collapsed = iu_scale(t, a), iu_scale(rat(0), a)
    moved = iu_translate(shift, a)
    for y in _grid(scaled, moved):
        assert scaled.member(y) == a.member(y / t)
        assert collapsed.member(y) == (y == 0 and not a.is_empty())
        assert moved.member(y) == a.member(y - shift)
    for out in (scaled, collapsed, moved):
        assert interval_union(list(out.components)) == out
    for u in (a, b, meet, join, scaled, collapsed, moved):
        assert u.contains_zero() == u.member(rat(0))
    if not a.is_empty():
        assert iu_translate(-a.components[0].lo, a).contains_zero() == \
            a.components[0].lo_closed
        # a shift that drives the first endpoint below 0 leaves [0,oo)
        with pytest.raises(ValueError):
            iu_translate(-a.components[0].lo - shift - 1, a)


def test_scale_translate_minkowski():
    a = iu((1, 2, True, True))
    assert iu_scale(rat(3), a) == iu((3, 6, True, True))
    assert iu_scale(rat(0), a) == iu((0, 0, True, True))
    assert iu_translate(rat(2), a) == iu((3, 4, True, True))
    assert iu_minkowski(iu((0, 1)), iu((0, 2))) == iu((0, 3))
    # closedness only survives when both ends are closed
    assert iu_minkowski(iu((0, 1, True, True)), iu((0, 2))) == iu((0, 3))


def test_up_down():
    a = iu((1, 2, False, True), (4, 5))
    assert iu_up(a) == iu((1, INF, False, False))
    assert iu_down(a) == iu((0, 5, True, False))
    assert iu_down(iu((1, 2, True, True))) == iu((0, 2, True, True))


# ------------------------------------------------------------ boxes/dict2

def test_box_union_keeps_only_maximal_boxes():
    u = box_union([box(1, 1), box(2, 3)])
    assert u.boxes == (box(2, 3),)
    # incomparable boxes form an antichain
    u2 = box_union([box(3, 1), box(1, 3)])
    assert len(u2.boxes) == 2


def test_box_membership_and_scale():
    u = box_union([box(2, 3)])
    assert u.member((rat(1), rat(2)))
    assert not u.member((rat(2), rat(0)))
    assert scale_set(sc.scalar(2), u) == box_union([box(4, 6)])
    assert scale_set(sc.S_ZERO, u) == box_union(
        [Box(S.ZERO, True, S.ZERO, True)])


# ---------------------------------------------------------------- lattice

def test_lattice_family_scale_and_up_down():
    fam = S.LatticeFamily(S.FINITE, frozenset({line(1, 0), FULL_SUBSPACE}))
    assert scale_set(sc.scalar(7), fam) == fam
    assert scale_set(sc.S_ZERO, fam) == \
        S.LatticeFamily(S.FINITE, frozenset({ZERO_SUBSPACE}))


def test_cofinite_family():
    fam = S.LatticeFamily(S.COFINITE, frozenset({line(1, 1)}))
    assert fam.member(ZERO_SUBSPACE) and not fam.member(line(1, 1))


# --------------------------------------------------------------- deciders

def test_balanced_decider_examples():
    assert is_balanced(iu((0, 1))).proven
    assert is_balanced(iu((0, INF))).proven
    out = is_balanced(iu((1, 2)))  # misses 0
    assert out.refuted
    out = is_balanced(iu((0, 1), (2, 3)))  # gap
    assert out.refuted
    x, t = out.witness["_raw"]
    assert iu((0, 1), (2, 3)).member(x)
    assert not iu((0, 1), (2, 3)).member(t * x)


def test_absorbing_decider_examples():
    assert is_absorbing(iu((0, 1))).proven
    assert is_absorbing(iu((0, 1, True, True), (3, INF))).proven
    assert is_absorbing(iu((1, 2))).refuted
    # {0} alone: degenerate 0-component does not absorb x=1
    assert is_absorbing(iu((0, 0, True, True))).refuted


_BOUNDED = partial(topology.is_bounded_set, seed=0)


def test_deciders_reject_empty_balanced():
    # every carrier with a balanced or bounded decider, and a slice whose
    # only piece has an empty vector set
    for decide, empty in [
            (is_balanced, S.EMPTY_IU), (is_balanced, box_union([])),
            (is_balanced, S.LatticeFamily(S.FINITE, frozenset())),
            (is_balanced, S.product_slice()),
            (is_balanced, S.product_slice((iu((0, 1)), S.finite_vectors()))),
            (_BOUNDED, S.EMPTY_IU), (_BOUNDED, S.product_slice())]:
        with pytest.raises(ValueError, match="^empty set$"):
            decide(empty)


@pytest.mark.parametrize("decide", [is_balanced, _BOUNDED])
@pytest.mark.parametrize("value", [
    object(), S.ProductCylinder((S.EMPTY_IU, None))])
def test_balanced_and_bounded_look_up_the_carrier_first(decide, value):
    # a value with no such decider is a TypeError, even an empty one
    with pytest.raises(TypeError):
        decide(value)


def test_box_deciders():
    assert is_balanced(box_union([box(1, 1)])).proven
    assert is_absorbing(box_union([box(1, 1)])).proven
    assert is_absorbing(box_union([Box(S.ZERO, True, rat(1), False)])).refuted


def test_lattice_deciders():
    with_zero = S.LatticeFamily(S.FINITE,
                                frozenset({ZERO_SUBSPACE, line(1, 0)}))
    assert is_balanced(with_zero).proven
    assert is_balanced(
        S.LatticeFamily(S.FINITE, frozenset({line(1, 0)}))).refuted
    assert is_absorbing(ALL_SUBSPACES).proven
    assert is_absorbing(with_zero).refuted


def test_slice_deciders():
    good = S.product_slice((iu((0, 2)), S.ball(1)))
    assert is_balanced(good).proven
    assert is_absorbing(good).proven
    bad = S.product_slice((iu((1, 2)), S.finite_vectors((sc.scalar(1),))))
    assert is_balanced(bad).refuted


def test_set_with_point():
    u = set_with_point(iu((0, 1)), rat(5))
    assert u.member(rat(5)) and u.member(rat(0))
    s = set_with_point(S.product_slice((iu((0, 1)), S.ball(1))),
                       (rat(7), (sc.scalar(9),)))
    assert s.member((rat(7), (sc.scalar(9),)))


# ------------------------------------------------- brute oracle agreement

def test_brute_oracles_agree_with_deciders():
    rng = random.Random(314)
    for _ in range(300):
        A = random_interval_union(rng)
        bal = is_balanced(A)
        viol = brute_balanced_violation(A)
        assert bal.refuted == (viol is not None)
        if viol is not None:
            x, t = viol
            assert A.member(x) and 0 <= t <= 1 and not A.member(t * x)
        ab = is_absorbing(A)
        assert ab.refuted == (not brute_absorbing_verdict(A))


def test_generic_dispatch():
    u = iu((0, 1))
    assert set_member(u, Rat(1, 2))
    assert S.scale_set(sc.scalar(-2), u) == iu((0, 2))
    with pytest.raises(TypeError):
        S.scale_set(sc.scalar(1), object())


def test_product_cylinder():
    P = make_instance("product:(halfline,halfline)")
    cyl = S.ProductCylinder((iu((0, 1)), None))
    assert cyl.member((Rat(1, 2), rat(100)))
    assert not cyl.member((rat(2), rat(0)))
    assert "ALL" in cyl.render()


# ------------------------------------------------ pinned outcomes, slices

GOLDEN = Path(__file__).resolve().parent / "golden"

_DECIDERS = (("balanced", S.is_balanced), ("absorbing", S.is_absorbing),
             ("bounded", partial(topology.is_bounded_set, seed=11)))


def _decisions(A):
    """(check, outcome) for each of the three deciders on ``A``, with
    the exception a call raises in place of its outcome."""
    out = []
    for check, decide in _DECIDERS:
        try:
            out.append((check, decide(A)))
        except (TypeError, ValueError) as exc:
            out.append((check, f"{type(exc).__name__}: {exc}"))
    return out


def _pinned_outcome_lines():
    """``is_balanced``, ``is_absorbing`` and ``is_bounded_set`` on a few
    product slices over cone:1, one JSON line per call: verdict, detail,
    public witness, or the exception a call raises."""
    one, i = sc.scalar(1), sc.Scalar(rat(0), rat(1))
    cases = [
        ("ball", S.product_slice((iu((0, 2)), S.ball(1)))),
        ("shifted-vectors",
         S.product_slice((iu((1, 2)), S.finite_vectors((one,), (i,))))),
        ("radial-tail", S.product_slice(
            (iu((0, INF)), S.finite_vectors((sc.S_ZERO,))))),
        ("mixed", S.product_slice((iu((0, 1)), S.ball(0)),
                                  (iu((2, 3, False, True)), S.ball(2)))),
        ("open-tail-ball", S.product_slice(
            (iu((1, INF, False, False)), S.ball(2)))),
        ("empty-slice", S.product_slice()),
        ("split-zero-ball", S.product_slice(
            (iu((0, 0, True, True)), S.ball(1)),
            (iu((0, 1, False, False)), S.ball(1)))),
        ("point-zero-ball", S.product_slice(
            (iu((0, 0, True, True), (Rat(1, 2), 1)), S.ball(1)),
            (iu((0, 1)), S.finite_vectors((sc.scalar(Rat(1, 4)),))))),
    ]
    lines = []
    for name, A in cases:
        for check, out in _decisions(A):
            rec = {"set": name, "check": check}
            if isinstance(out, str):
                rec["raises"] = out
            else:
                rec.update(verdict=out.verdict, detail=out.detail,
                           samplesTried=out.samples_tried, seed=out.seed)
                if out.witness is not None:
                    rec["witness"] = {
                        k: v if isinstance(v, str) else str(v)
                        for k, v in out.witness.items()
                        if not k.startswith("_")}
            lines.append(json.dumps(rec, sort_keys=True))
    return lines


def test_slice_and_predicate_outcomes_match_golden():
    assert _pinned_outcome_lines() == (
        GOLDEN / "slice-predicate-outcomes.jsonl").read_text(
            encoding="utf-8").splitlines()


@pytest.mark.parametrize("beside", ["cone:1", "no-descriptor"])
def test_slice_piece_with_empty_vector_set_is_empty(beside):
    """A piece whose vector set is empty adds nothing, alone or beside a
    nonempty piece: one listing the vectors of cone:1, or a ball, which
    names no space."""
    nothing = S.finite_vectors()
    for radial in (iu((0, INF)), iu((0, 1))):
        A = S.product_slice((radial, nothing))
        assert A.is_empty()
        assert _decisions(A) == _decisions(S.product_slice())
    vectors = (S.finite_vectors(*_slice_vectors(1)) if beside == "cone:1"
               else S.ball(1))
    unit = (iu((0, 1)), vectors)
    assert _decisions(S.product_slice((iu((0, INF)), nothing), unit)) == \
        _decisions(S.product_slice(unit))


# ------------------------------------ cone-slice absorbency, brute grid

def _units(n: int) -> list:
    return [tuple(sc.S_ONE if j == k else sc.S_ZERO for j in range(n))
            for k in range(n)]


def _slice_vectors(n: int) -> list:
    """Zero, the unit vectors, and a few vectors off the unit axes."""
    zero = tuple(sc.S_ZERO for _ in range(n))
    e1 = _units(n)[0]
    return [zero, *_units(n), tuple(sc.S_I * v for v in e1),
            tuple(sc.scalar(Rat(1, 2)) * v for v in e1),
            tuple(sc.scalar(Rat(1, 4)) * v for v in e1),
            tuple(sc.S_ONE for _ in range(n))]


def _random_slice(rng: random.Random, n: int) -> S.ProductSlice:
    """1-3 pieces: a random interval union (with the point 0 adjoined to
    a third of them, so that {0} is often a 0-component) times ball(0),
    ball(1/2), ball(1) or a set of one or two vectors (the zero vector
    among them)."""
    vecs = _slice_vectors(n)
    pieces = []
    for _ in range(rng.randint(1, 3)):
        radial = random_interval_union(rng)
        if rng.random() < 1 / 3:
            radial = radial.with_point(rat(0))
        k = rng.randrange(4)
        region = S.ball((0, Rat(1, 2), 1)[k]) if k < 3 else \
            S.finite_vectors(*rng.sample(vecs, rng.randint(1, 2)))
        pieces.append((radial, region))
    return S.product_slice(*pieces)


_ALPHAS = [Rat(1, 8 ** k) for k in range(5)]
_MU_UNITS = [sc.S_ONE, sc.S_MINUS_ONE, sc.S_I,
             sc.Scalar(Rat(3, 5), Rat(4, 5))]
_MU_SHRINKS = [sc.scalar(c) for c in (1, Rat(1, 3), Rat(1, 64),
                                       Rat(1, 4096))]


def _brute_slice_absorbing(A, E) -> bool:
    """The absorbency definition over grids, from ``A.member`` and
    ``E.scale`` alone: every grid x has a grid alpha such that mu.x is
    in A for every grid mu with |mu| <= alpha (0, and alpha times a
    shrink and a unit, real and complex).  The x-grid crosses radii 0
    to 3 with the zero vector, the unit vectors and a few others; every
    positive endpoint of ``random_interval_union`` is at least 1/8, so
    the shrinks reach below every gap the radial parts can have."""
    n = len(E.zero[1])
    xs = [(rat(r), v) for r in (0, Rat(1, 8), 1, 3)
          for v in _slice_vectors(n)]
    for x in xs:
        if not any(all(A.member(E.scale(mu, x))
                       for mu in [sc.S_ZERO] + [
                           sc.scalar(a) * s * u for s in _MU_SHRINKS
                           for u in _MU_UNITS])
                   for a in _ALPHAS):
            return False
    return True


@pytest.mark.parametrize("n", [1, 2])
def test_slice_absorbing_matches_brute_grid(n):
    E, e1 = make_instance(f"cone:{n}"), _units(n)[0]
    rng = random.Random(2006 + n)
    # [0,1) x ball(1), though no single piece has the form [0,s) x ball(t)
    split = S.product_slice((iu((0, 0, True, True)), S.ball(1)),
                            (iu((0, 1, False, False)), S.ball(1)))
    assert is_absorbing(split).proven
    verdicts = set()
    for A in [split] + [_random_slice(rng, n) for _ in range(120)]:
        out = is_absorbing(A)
        verdicts.add(out.verdict)
        assert out.verdict in ("Proven", "Refuted"), A.render()
        assert out.proven == _brute_slice_absorbing(A, E), A.render()
        if out.refuted:
            r, g = out.witness["_raw"]
            assert out.witness["x"] == f"({rat_str(r)}, e1)"
            for mu in [g * Rat(k, 8) for k in range(1, 8)] + [g / 1000]:
                assert not A.member(E.scale(sc.scalar(mu), (r, e1))), \
                    (A.render(), mu)
    assert verdicts == {"Proven", "Refuted"}



@pytest.mark.parametrize("radial", [iu((1, INF, False, False)),
                                    iu((1, 2, True, False))],
                         ids=["(1,inf)", "[1,2)"])
def test_slice_ball_piece_without_theta_is_not_balanced(radial):
    # 0.x = theta is outside A, though the offending piece is a ball
    E = make_instance("cone:1")
    A = S.product_slice((radial, S.ball(2)))
    out = is_balanced(A)
    assert out.refuted and out.detail == "0.x = theta is outside A"
    (r, a), alpha = out.witness["_raw"]
    assert a is None and out.witness["x"] == f"({rat_str(r)}, 0)"
    x = (r, E.zero[1])
    assert A.member(x) and not A.member(E.scale(sc.scalar(alpha), x))


@pytest.mark.parametrize("n", [1, 2])
def test_slice_balanced_refuted_exactly_when_theta_is_outside(n):
    E = make_instance(f"cone:{n}")
    rng = random.Random(1503 + n)
    verdicts = set()
    for A in [_random_slice(rng, n) for _ in range(120)]:
        out = is_balanced(A)
        verdicts.add(out.verdict)
        assert out.refuted == (not A.member(E.zero)), A.render()
        if out.refuted:
            (r, a), alpha = out.witness["_raw"]
            x = (r, E.zero[1] if a is None else a)
            assert A.member(x), A.render()
            assert not A.member(E.scale(sc.scalar(alpha), x)), A.render()
    assert {"Refuted", "Unfalsified"} <= verdicts
