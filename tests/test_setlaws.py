import random

import pytest

from evslab import scalars as sc
from evslab import setlaws
from evslab import sets as st
from evslab import topology
from evslab._backend import Rat, rat
from evslab.core import product_evs
from evslab.instances import MORPHISMS, OrderIso, cone_product, dict_plane, \
    half_line, make_instance, subspace_lattice
from evslab.outcome import proven, refuted
from evslab.setlaws import (check_absorbing_closure_laws,
                            check_absorbing_transport,
                            check_balanced_closure_laws, check_radial,
                            check_radial_product_and_hereditary,
                            check_radial_transport, has_interval_sets,
                            product_cylinder_separator, radial_separator,
                            transport_set)


def test_closure_laws_all_proven():
    H = half_line()
    for out in (check_absorbing_closure_laws(H, 300, 42),
                check_balanced_closure_laws(H, 300, 42)):
        assert all(o.proven for o in out.values())
    assert list(check_absorbing_closure_laws(H, 100, 1)) == [
        "absorbing.i", "absorbing.ii", "absorbing.iii", "absorbing.iv",
        "absorbing.v"]
    assert list(check_balanced_closure_laws(H, 100, 1)) == [
        "balanced.i", "balanced.ii", "balanced.iii", "balanced.iv",
        "balanced.v"]


def test_closure_laws_need_interval_support():
    with pytest.raises(ValueError):
        check_absorbing_closure_laws(subspace_lattice(), 100, 42)


@pytest.mark.parametrize("spec", [
    "halfline", "cone:2", "twisted:2", "dict2", "lattice2",
    "product:(halfline,dict2)", "halfline#no-modulus",
    "twisted:2#no-zero-case", "lattice2#no-canonicalization", "cone:1"])
def test_interval_sets_exactly_on_the_half_line(spec):
    E = make_instance(spec)
    expected = spec in ("halfline", "halfline#no-modulus")
    assert has_interval_sets(E) == expected
    if not expected:
        with pytest.raises(ValueError, match="IntervalUnion"):
            check_balanced_closure_laws(E, 100, 42)


# ------------------------------------------------------------- separators

def test_halfline_separator_midpoint():
    H = half_line()
    A = radial_separator(H, rat(1), rat(2))
    assert A == st.iu((0, Rat(3, 2)))
    assert A.member(rat(1)) and not A.member(rat(2))
    assert st.is_absorbing(A).proven


def test_dict2_separator_first_coordinate_cut():
    D = dict_plane()
    x, y = (rat(3), rat(1)), (rat(2), rat(5))
    A = radial_separator(D, x, y)
    assert A == st.box_union([st.box(Rat(5, 2), 6)])
    assert A.member(y) and not A.member(x)
    assert st.is_absorbing(A).proven


def test_dict2_separator_second_coordinate_cut():
    D = dict_plane()
    x, y = (rat(1), rat(1)), (rat(1), rat(3))
    A = radial_separator(D, x, y)
    assert A.member(x) and not A.member(y)
    assert st.is_absorbing(A).proven


def test_cone_separator_cases():
    C = cone_product(1)
    x, y = (rat(1), (sc.scalar(1),)), (rat(2), (sc.scalar(1),))
    A = radial_separator(C, x, y)
    assert A.member(x) != A.member(y)
    assert st.is_absorbing(A).proven
    # y = theta forces the basic-set-around-theta branch
    B = radial_separator(C, x, C.zero)
    assert B.member(C.zero) and not B.member(x)
    # zero radius, nonzero vector: ball shrink branch
    z = (rat(0), (sc.scalar(2),))
    Bz = radial_separator(C, z, C.zero)
    assert Bz.member(C.zero) and not Bz.member(z)


def test_separator_rejects_equal_points_and_lattice():
    H = half_line()
    with pytest.raises(ValueError):
        radial_separator(H, rat(1), rat(1))
    with pytest.raises(ValueError):
        radial_separator(subspace_lattice(), st.ZERO_SUBSPACE,
                         st.FULL_SUBSPACE)


# ----------------------------------------------------------- radial check

@pytest.mark.parametrize("spec", ["halfline", "dict2", "cone:2"])
def test_radial_proven_instances(spec):
    assert check_radial(make_instance(spec), 400, 42).proven


def test_radial_refuted_on_lattice():
    out = check_radial(subspace_lattice(), 400, 42)
    assert out.refuted
    assert out.witness["_raw"][0] == st.ZERO_SUBSPACE


def test_radial_unfalsified_on_twisted():
    out = check_radial(make_instance("twisted:2"), 400, 42)
    assert not out.proven and not out.refuted


# -------------------------------------------------- product / hereditary

def cone_zero_sampler(seed, n):
    rng = random.Random(seed)
    return [(Rat(rng.randint(0, 40), rng.randint(1, 8)), (sc.S_ZERO,))
            for _ in range(n)]


def test_product_cylinder_separator():
    parts = [half_line(), dict_plane()]
    x = (rat(1), (rat(0), rat(0)))
    y = (rat(2), (rat(0), rat(0)))
    cyl, i = product_cylinder_separator(parts, x, y)
    assert i == 0
    assert cyl.member(x) != cyl.member(y)


def test_product_and_hereditary_proven():
    C = cone_product(1)
    out = check_radial_product_and_hereditary(
        [half_line(), dict_plane()],
        [(C, cone_zero_sampler, lambda A: A)],
        400, 42)
    assert out.proven


# --------------------------------------------------------------- transport

def test_transport_doubling_examples():
    phi = MORPHISMS["doubling"]()
    assert transport_set(phi, st.iu((0, 1))) == st.iu((0, 2))
    assert transport_set(phi, st.iu((0, 0, True, True))) == \
        st.iu((0, 0, True, True))
    # both the degenerate set and its image fail to absorb
    assert st.is_absorbing(st.iu((0, 0, True, True))).refuted
    assert st.is_absorbing(
        transport_set(phi, st.iu((0, 0, True, True)))).refuted


def test_transport_embed_builds_slice():
    phi = MORPHISMS["embed"]()
    img = transport_set(phi, st.iu((0, 1)))
    assert isinstance(img, st.ProductSlice)
    assert img.member((Rat(1, 2), (sc.S_ZERO,)))
    assert not img.member((rat(2), (sc.S_ZERO,)))


def test_transport_checks_proven():
    for name in ("doubling", "embed"):
        phi = MORPHISMS[name]()
        assert check_absorbing_transport(phi, 200, 42).proven
        assert check_radial_transport(phi, 400, 42).proven


def test_radial_transport_into_a_product_has_no_separator():
    # a one-factor product of the half line is radial; the check has no
    # separator for a product codomain, so it says so instead of Refuted
    phi = OrderIso("into-product", half_line(), product_evs([half_line()]),
                   forward=lambda r: (r,))
    with pytest.raises(ValueError, match="use product_cylinder_separator"):
        check_radial_transport(phi, 40, 7)


def test_transport_requires_inverse():
    phi = MORPHISMS["shift"]()
    with pytest.raises(ValueError):
        transport_set(phi, st.iu((0, 1)))


def test_transport_rejects_a_set_outside_the_domain_carrier():
    phi = MORPHISMS["doubling"]()
    with pytest.raises(ValueError, match="no exact transport for doubling "
                                         "on AnchoredBoxUnion"):
        transport_set(phi, st.box_union([st.box(1, 2)]))


# ------------------------------------------------------ the Refuted path

def _refute_many_components(real):
    """The exact decider, except that sets of three or more components
    are refuted."""
    def decider(A, *args, **kwargs):
        if len(A.components) > 2:
            return refuted({"set": A.render()}, detail="planted")
        return real(A, *args, **kwargs)
    return decider


def test_refuted_laws_report_witness_and_position(monkeypatch):
    real_balanced = st.is_balanced

    def refute_unbounded(A, *args, **kwargs):
        if A.sup()[0] is st.INF:
            return refuted({"set": A.render()}, detail="planted")
        return real_balanced(A, *args, **kwargs)

    monkeypatch.setattr(st, "is_absorbing",
                        _refute_many_components(st.is_absorbing))
    monkeypatch.setattr(st, "is_balanced", refute_unbounded)
    monkeypatch.setattr(topology, "is_bounded_set",
                        _refute_many_components(topology.is_bounded_set))
    H = half_line()
    outcomes = {**check_absorbing_closure_laws(H, 200, 7),
                **check_balanced_closure_laws(H, 200, 7),
                **topology.check_bounded_laws(H, 200, 7)}
    # witness and detail as the hand-written law loops reported them;
    # samples_tried is the 1-based position of the witness case
    expected = {
        "absorbing.ii": (67, "intersection of absorbing sets not absorbing",
                         {"A": "[0,2] U [6,12)", "B": "[0,1/3] U [5/8,inf)",
                          "A&B": "[0,1/3] U [5/8,2] U [6,12)"}),
        "absorbing.iii": (58, "superset of an absorbing set not absorbing",
                          {"A": "[0,5/3)",
                           "B": "(0,7/5) U (2,13/6] U [4,34/7]",
                           "AuB": "[0,5/3) U (2,13/6] U [4,34/7]"}),
        "balanced.iv": (1, "up/down image of a balanced set not balanced",
                        {"A": "[0,2)", "image": "[0,inf)"}),
        "bounded.subset": (10, "subset of a bounded set not bounded",
                           {"A": "[0,5/7) U (5/2,27/10]",
                            "B": "[0,1/7) U (1/3,13/3)"}),
    }
    for law_id, (position, detail, witness) in expected.items():
        out = outcomes[law_id]
        assert out.refuted, law_id
        assert (out.samples_tried, out.detail, out.witness, out.seed) == \
            (position, detail, witness, 7), law_id


def _prove_without_theta(real):
    """The exact decider, except that a set without theta is proven."""
    def decider(A, *args, **kwargs):
        if not A.contains_zero():
            return proven("planted")
        return real(A, *args, **kwargs)
    return decider


def _returning(value):
    """A planted construction that returns ``value`` on every call."""
    return lambda real: lambda *args: value


_FIXED = _returning(st.iu((1, 2)))
_EMPTY = _returning(st.EMPTY_IU)

# (row, the planted function of ``sets``, its stand-in, (samples_tried,
# detail, witness)); the last three plant an empty construction, which
# the balanced driver once said Proven on (ii) and raised on (iii, iv)
_CLOSURE_REFUTED = [
    ("absorbing.i", "is_absorbing", _prove_without_theta, (
        2, "absorbing set without theta", {"set": "(1/2,1] U (3,19/6)"})),
    ("absorbing.ii", "iu_intersect", _FIXED, (
        1, "intersection of absorbing sets not absorbing",
        {"A": "[0,inf)", "B": "[0,inf)", "A&B": "[1,2)"})),
    ("absorbing.iii", "iu_union", _FIXED, (
        1, "superset of an absorbing set not absorbing",
        {"A": "[0,inf)", "B": "[0,inf)", "AuB": "[1,2)"})),
    ("absorbing.iv", "iu_up", _FIXED, (
        1, "up/down image of an absorbing set not absorbing",
        {"A": "[0,inf)", "image": "[1,2)"})),
    ("absorbing.v", "scale_set", _FIXED, (
        1, "nonzero scaling of an absorbing set not absorbing",
        {"A": "[0,inf)", "lambda": "3", "lamA": "[1,2)"})),
    ("balanced.i", "is_balanced", _prove_without_theta, (
        1, "balanced set without theta", {"set": "[7,43/5)"})),
    ("balanced.ii", "iu_intersect", _FIXED, (
        1, "intersection of balanced sets not balanced",
        {"A": "[0,2)", "B": "[0,2)", "A&B": "[1,2)"})),
    ("balanced.iii", "iu_union", _FIXED, (
        1, "union of balanced sets not balanced",
        {"A": "[0,2)", "B": "[0,2)", "AuB": "[1,2)"})),
    ("balanced.iv", "iu_up", _FIXED, (
        1, "up/down image of a balanced set not balanced",
        {"A": "[0,2)", "image": "[1,2)"})),
    ("balanced.v", "scale_set", _FIXED, (
        1, "scaling of a balanced set not balanced",
        {"A": "[0,2)", "lambda": "0", "lamA": "[1,2)"})),
    ("balanced.ii", "iu_intersect", _EMPTY, (
        1, "intersection of balanced sets not balanced",
        {"A": "[0,2)", "B": "[0,2)", "A&B": "{}"})),
    ("balanced.iii", "iu_union", _EMPTY, (
        1, "union of balanced sets not balanced",
        {"A": "[0,2)", "B": "[0,2)", "AuB": "{}"})),
    ("balanced.iv", "iu_down", _EMPTY, (
        2, "up/down image of a balanced set not balanced",
        {"A": "[0,2)", "image": "{}"})),
]


@pytest.mark.parametrize(
    "row, name, stand_in, expected", _CLOSURE_REFUTED,
    ids=[row + ("-empty" if stand_in is _EMPTY else "")
         for row, _, stand_in, _ in _CLOSURE_REFUTED])
def test_every_closure_row_reports_its_refutation(monkeypatch, row, name,
                                                  stand_in, expected):
    # a planted decider or construction drives each row to Refuted;
    # samples_tried is the 1-based position of the witness case
    monkeypatch.setattr(st, name, stand_in(getattr(st, name)))
    driver = check_absorbing_closure_laws if row.startswith("absorbing") \
        else check_balanced_closure_laws
    out = driver(half_line(), 200, 7)[row]
    assert out.refuted
    assert (out.samples_tried, out.detail, out.witness, out.seed) == \
        (*expected, 7)


def _radius(A):
    """The sup of a half-line set, or of a cone slice's first piece."""
    return (A.pieces[0][0] if isinstance(A, st.ProductSlice) else A).sup()[0]


def _refute_wide(real, bound, carriers):
    """The exact decider, except that a set of ``carriers`` whose radius
    exceeds ``bound`` is refuted."""
    def decider(A, *args, **kwargs):
        if isinstance(A, carriers) and (_radius(A) is st.INF
                                        or _radius(A) > bound):
            return refuted({"set": A.render()}, detail="planted")
        return real(A, *args, **kwargs)
    return decider


def _hold_both(real, kind, bound):
    """The exact separator, except that on ``kind`` a pair whose radii
    both exceed ``bound`` gets a set that holds both points."""
    def separator(E, x, y):
        if E.element_kind == kind == "halfline" and min(x, y) > bound:
            return st.iu((0, x + y))
        if E.element_kind == kind == "cone" and min(x[0], y[0]) > bound:
            return st.product_slice((st.iu((0, x[0] + y[0])), st.ball(1)))
        return real(E, x, y)
    return separator


def _product_and_hereditary(budget, seed):
    return check_radial_product_and_hereditary(
        [half_line(), dict_plane()],
        [(cone_product(1), cone_zero_sampler, lambda A: A)], budget, seed)


def _radial():
    return check_radial(half_line(), 400, 7)


def _product():
    return _product_and_hereditary(400, 7)


_SEPARATION_REFUTED = {
    # clause: (kind of the planted separator, carriers of the planted
    #          decider, check, (samples_tried, detail, public witness))
    "radial.not-separated": (
        "halfline", None, _radial,
        (43, "separator failed to separate",
         {"x": "4", "y": "6", "set": "[0,10)"})),
    "radial.not-absorbing": (
        None, (st.IntervalUnion,), _radial,
        (2, "separator is not absorbing",
         {"x": "2", "y": "5", "set": "[0,7/2)"})),
    "transport.absorbing": (
        None, (st.IntervalUnion,),
        lambda: check_absorbing_transport(MORPHISMS["doubling"](), 200, 7),
        (9, "absorbing verdict not preserved",
         {"A": "[0,8/5]", "image": "[0,16/5]", "before": "Proven",
          "after": "Refuted"})),
    "transport.radial": (
        None, (st.IntervalUnion,),
        lambda: check_radial_transport(MORPHISMS["doubling"](), 400, 7),
        (4, "separability not preserved by transport",
         {"x": "4", "y": "1/5"})),
    "cylinder.not-separated": (
        "halfline", None, _product,
        (30, "cylinder failed to separate",
         {"x": "(5, (6/5, 2/3))", "y": "(4, (5/3, 1/3))",
          "cylinder": "[0,9) x ALL"})),
    "cylinder.not-absorbing": (
        None, (st.IntervalUnion,), _product,
        (10, "cylinder factor is not absorbing",
         {"x": "(2, (1, 0))", "y": "(6, (5, 3))",
          "cylinder": "[0,4) x ALL"})),
    "trace.not-separated": (
        "cone", None, _product,
        (52, "trace on the subevs failed to separate",
         {"x": "(34/3, (0))", "y": "(27/4, (0))",
          "set": "[0,217/12)xball(1)"})),
    "trace.not-absorbing": (
        None, (st.ProductSlice,), _product,
        (51, "separator is not absorbing",
         {"x": "(11/8, (0))", "y": "(34/3, (0))",
          "set": "[0,34/3)xball(1)"})),
}


@pytest.mark.parametrize("clause", _SEPARATION_REFUTED)
def test_refuted_separation_reports_witness_and_position(monkeypatch,
                                                         clause):
    # each clause of the radial, product/hereditary and transport checks,
    # reached through a planted separator or a planted absorbing decider;
    # samples_tried is the 1-based position of the refuting case
    kind, carriers, check, expected = _SEPARATION_REFUTED[clause]
    if kind is not None:
        monkeypatch.setattr(setlaws, "radial_separator",
                            _hold_both(setlaws.radial_separator, kind, 3))
    if carriers is not None:
        monkeypatch.setattr(st, "is_absorbing",
                            _refute_wide(st.is_absorbing, 3, carriers))
    out = check()
    assert out.refuted
    public = {k: v for k, v in out.witness.items() if not k.startswith("_")}
    assert (out.samples_tried, out.detail, public, out.seed) == \
        (*expected, 7)


# ------------------------------------------------------------ cost growth

_SEPARATION_DRIVERS = {
    "radial.halfline": lambda B: check_radial(half_line(), B, 7),
    "radial.dict2": lambda B: check_radial(dict_plane(), B, 7),
    "radial.cone:2": lambda B: check_radial(cone_product(2), B, 7),
    **{f"transport.{kind}.{name}": (
        lambda B, check=check, name=name: check(MORPHISMS[name](), B, 7))
       for name in ("doubling", "embed")
       for kind, check in (("absorbing", check_absorbing_transport),
                           ("radial", check_radial_transport))},
    "product-and-hereditary": lambda B: _product_and_hereditary(B, 7),
}


@pytest.mark.parametrize("driver", _SEPARATION_DRIVERS)
def test_separation_drivers_grow_linearly(monkeypatch, driver):
    # membership and absorbency decisions at budgets B and 4B: a driver
    # linear in its budget makes about 4x as many, a quadratic one 16x
    calls = {"set_member": 0, "is_absorbing": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(st, name, counted(name, getattr(st, name)))
    counts = []
    for budget in (200, 800):
        for name in calls:
            calls[name] = 0
        assert _SEPARATION_DRIVERS[driver](budget).proven
        counts.append(sum(calls.values()))
    assert 0 < counts[1] <= 4.5 * counts[0], counts
