import random

import pytest

from evslab import scalars as sc
from evslab import sets as st
from evslab import topology
from evslab._backend import Rat, rat
from evslab.instances import MORPHISMS, cone_product, dict_plane, half_line, \
    make_instance, subspace_lattice
from evslab.outcome import refuted
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
