import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from evslab import sets as st
from evslab import topology as tp
from evslab._backend import Rat
from evslab.instances import half_line, make_instance
from evslab.outcome import PAIR_CAP
from evslab.setexpr import parse_set_expression
from evslab.sets import INF, iu
from evslab.topology import (audit_generator, check_bounded_laws,
                             check_local_base_conditions,
                             definition_bounded_grid, finest_topology_audit,
                             halving_nbhd, is_bounded_set, is_compact,
                             is_usual_open, open_balanced_absorbing_form,
                             usual_base)


# --------------------------------------------------------------- open sets

def test_is_usual_open():
    assert is_usual_open(iu((0, 1)))
    assert is_usual_open(iu((1, 2, False, False), (3, INF, False, False)))
    assert not is_usual_open(iu((1, 2)))          # left-closed away from 0
    assert not is_usual_open(iu((0, 1, True, True)))  # right-closed


def test_halving_nbhd():
    U = iu((0, 1))
    W = halving_nbhd(U)
    assert W == iu((0, Rat(1, 2)))
    assert st.iu_subset(st.iu_minkowski(W, W), U)
    assert halving_nbhd(iu((0, INF))) == iu((0, INF))


def test_halving_nbhd_rejects_a_degenerate_zero_component():
    # the 0-component {0} has no W with W + W inside it that is a
    # neighbourhood of theta; [0,0) would not even contain theta
    U = iu((0, 0, True, True), (1, 2, False, False))
    with pytest.raises(ValueError):
        halving_nbhd(U)
    for family in ([U], [iu((0, 1)), U]):
        out = check_local_base_conditions(family, 100, 42)["iii"]
        assert out.refuted
        assert out.witness == {"U": "[0,0] U (1,2)"}


# ------------------------------------------------------------- boundedness

def test_bounded_examples():
    assert is_bounded_set(iu((0, 5, True, True), (7, 9))).proven
    out = is_bounded_set(iu((1, INF)))
    assert out.refuted
    assert out.witness["lambda_n"] == "1/n"


def test_bounded_verdict_survives_optimize_flag():
    # the bound self-check must not be an assert, which -O strips
    sets = ["[0,5] U [7,9)", "[1,inf)", "(0,1/3)"]
    code = (
        "import sys\n"
        "from evslab import setexpr, topology\n"
        "print(sys.flags.optimize)\n"
        "for s in sys.argv[1:]:\n"
        "    out = topology.is_bounded_set(\n"
        "        setexpr.parse_set_expression(s, 'halfline'))\n"
        "    print(out.verdict, out.detail)\n")
    src = str(Path(tp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-O", "-c", code, *sets],
                         env=env, capture_output=True, text=True,
                         timeout=60)
    assert res.returncode == 0, res.stderr
    expected = ["1"]
    for s in sets:
        out = is_bounded_set(parse_set_expression(s, "halfline"))
        expected.append(f"{out.verdict} {out.detail}")
    assert res.stdout.splitlines() == expected


def test_definition_grid_agrees():
    rng = random.Random(99)
    for _ in range(200):
        A = st.random_interval_union(rng)
        assert definition_bounded_grid(A) == is_bounded_set(A).proven


def test_definition_grid_evaluates_unbounded_sets(monkeypatch):
    # a scaling that loses the unbounded components passes the grid on
    # an unbounded set, which the sup characterization refutes
    real = st.iu_scale

    def drop_unbounded(t, A):
        return st.IntervalUnion(tuple(c for c in real(t, A).components
                                      if c.hi is not INF))

    monkeypatch.setattr(st, "iu_scale", drop_unbounded)
    out = check_bounded_laws(half_line(), 200, 7)["bounded.defs-agree"]
    assert out.refuted
    assert out.detail == "definition grid and sup characterization disagree"


def test_compactness_helper():
    assert is_compact(iu((0, 1, True, True)))
    assert not is_compact(iu((0, 1)))
    assert not is_compact(iu((0, INF)))


def test_bounded_laws_all_proven():
    out = check_bounded_laws(half_line(), 300, 42)
    assert list(out) == ["bounded.defs-agree", "bounded.finite",
                         "bounded.compact", "bounded.sum", "bounded.scale",
                         "bounded.subset"]
    assert all(o.proven for o in out.values())


def test_bounded_laws_need_interval_support():
    with pytest.raises(ValueError, match="IntervalUnion"):
        check_bounded_laws(make_instance("dict2"), 200, 7)


def test_pairwise_bounded_laws_grow_linearly():
    pairwise = ("bounded.sum", "bounded.subset")
    pairs = {}
    for budget in (3000, 10_000):
        out = check_bounded_laws(half_line(), budget, 7)
        outer = budget // 10  # the corpus size; the outer sets are a subset
        for law_id in pairwise:
            assert out[law_id].proven, law_id
            assert out[law_id].samples_tried <= PAIR_CAP * outer, law_id
        pairs[budget] = sum(out[k].samples_tried for k in pairwise)
    assert pairs[10_000] < 3.5 * pairs[3000]


def test_sup_lemma_refutes_a_sum_that_drops_a_component(monkeypatch):
    # the truncated sum is still bounded: only the sup lemma sees it
    real = st.iu_minkowski

    def drop_last(a, b):
        C = real(a, b)
        if len(C.components) < 2:
            return C
        return st.IntervalUnion(C.components[:-1])

    monkeypatch.setattr(st, "iu_minkowski", drop_last)
    out = check_bounded_laws(half_line(), 200, 7)["bounded.sum"]
    A = "[0,5/7) U (5/2,27/10]"
    assert out.refuted
    assert (out.samples_tried, out.witness) == (1, {"A": A, "B": A})


def test_compact_lemma_refutes_a_union_that_drops_a_component(monkeypatch):
    # the truncated union is still compact: only the sup lemma sees it
    real = tp.interval_union

    def drop_last(pieces):
        K = real(pieces)
        return st.IntervalUnion(K.components[:-1] or K.components)

    monkeypatch.setattr(tp, "interval_union", drop_last)
    out = check_bounded_laws(half_line(), 200, 7)["bounded.compact"]
    assert out.refuted
    assert out.detail == "compact set not bounded"


def test_sup_lemma_refutes_a_scaling_that_ignores_the_modulus(monkeypatch):
    monkeypatch.setattr(st, "scale_set", lambda lam, A: A)
    out = check_bounded_laws(half_line(), 200, 7)["bounded.scale"]
    assert out.refuted
    assert out.detail == "scaling of a bounded set not bounded"


def test_compact_row_refutes_a_set_that_is_not_compact(monkeypatch):
    # compactness is a conjunct of the row, not a guard that skips the case
    monkeypatch.setattr(tp, "_make_compact", lambda A: (iu((0, 1)), Rat(1)))
    out = check_bounded_laws(half_line(), 200, 7)["bounded.compact"]
    assert out.refuted
    assert (out.samples_tried, out.witness) == (1, {"set": "[0,1)"})
    assert out.detail == "compact set not bounded"


# ------------------------------------------------------------- local base

def test_local_base_conditions_on_usual_base():
    fam = usual_base(8)
    out = check_local_base_conditions(fam, 200, 42)
    assert list(out) == ["i", "ii", "iii", "iv", "v"]
    assert out["i"].proven
    assert out["ii"].proven
    assert out["iii"].proven
    assert not out["iv"].proven and not out["iv"].refuted
    assert out["v"].refuted


def test_condition_v_witness_is_seed_stable():
    fam = usual_base(6)
    a = check_local_base_conditions(fam, 200, 1)["v"]
    b = check_local_base_conditions(fam, 200, 999)["v"]
    wa = {k: v for k, v in a.witness.items() if not k.startswith("_")}
    wb = {k: v for k, v in b.witness.items() if not k.startswith("_")}
    assert wa == wb
    assert wa["W"] == "[0,1)" and wa["x"] == "1" and wa["alpha"] == "1"


@pytest.mark.parametrize("family,tried,witness", [
    ([iu((0, 1, True, True))], 18,
     {"x": "11", "y": "10", "_raw_x": Rat(11), "_raw_y": Rat(10)}),
    ([iu((0, 1), (5, 6))], 1,
     {"x": "25", "y": "23", "_raw_x": Rat(25), "_raw_y": Rat(23)}),
], ids=["closed-unit", "two-pieces"])
def test_condition_iv_counts_pairs_up_to_the_refutation(family, tried,
                                                        witness):
    # samples_tried is the 1-based position of the refuting pair, not the
    # number of pairs drawn (50 at budget 200)
    out = check_local_base_conditions(family, 200, 7)["iv"]
    assert out.refuted
    assert (out.samples_tried, out.witness, out.seed) == (tried, witness, 7)
    assert out.detail == "no separating member pair in the family"


def test_local_base_propagates_a_failed_halving_self_check(monkeypatch):
    # W + W escaping U is a kernel fault, not an answer for condition (iii)
    monkeypatch.setattr(st, "iu_minkowski", lambda A, B: iu((0, INF)))
    with pytest.raises(AssertionError, match=r"W \+ W escaped U"):
        check_local_base_conditions(usual_base(8), 200, 7)


def test_local_base_rejects_bad_family():
    with pytest.raises(ValueError):
        check_local_base_conditions([], 100, 42)
    with pytest.raises(ValueError):
        check_local_base_conditions([iu((1, 2))], 100, 42)


# --------------------------------------------------------- normal forms

def test_open_balanced_absorbing_form():
    assert open_balanced_absorbing_form(iu((0, 1))).proven
    assert open_balanced_absorbing_form(iu((0, INF))).proven
    out = open_balanced_absorbing_form(iu((1, 2)))
    assert out.proven and "both sides false" in out.detail


def _amended_interval_form(A):
    """One component, anchored closed at 0 and nondegenerate."""
    c0 = A.components[0]
    return (len(A.components) == 1 and c0.lo == 0 and c0.lo_closed
            and (c0.hi is INF or c0.hi > 0))


def _balanced_and_absorbing(A):
    return st.is_balanced(A).proven and st.is_absorbing(A).proven


def test_interval_form_and_degenerate_report():
    assert _balanced_and_absorbing(iu((0, 1)))
    assert _balanced_and_absorbing(iu((0, 1, True, True)))
    # {0} is an interval containing theta, balanced, but absorbs nothing
    singleton = iu((0, 0, True, True))
    assert singleton.render() == "[0,0]"
    assert st.is_balanced(singleton).verdict == "Proven"
    assert st.is_absorbing(singleton).verdict == "Refuted"
    assert not _amended_interval_form(singleton)


def test_interval_form_fuzz():
    rng = random.Random(7)
    for _ in range(300):
        A = st.random_interval_union(rng)
        assert _balanced_and_absorbing(A) == _amended_interval_form(A), \
            A.render()


# ----------------------------------------------------------------- audit

def test_audit_examples():
    out = audit_generator(iu((1, 2)))
    assert out.refuted
    assert out.witness["t"] == "1/2"
    assert out.witness["escape"] == "1/2"

    out = audit_generator(iu((0, 1, True, True)))
    assert out.refuted
    assert out.witness["t"] == "3/2"

    assert audit_generator(iu((0, 1))).proven
    assert audit_generator(iu((2, INF, False, False))).proven


def test_audit_degenerate_component():
    out = audit_generator(iu((0, 0, True, True)))
    assert out.refuted
    assert out.witness["reason"] == "isolated theta"


def test_audit_escape_scalars_leave_generator():
    rng = random.Random(21)
    for _ in range(300):
        G = st.random_interval_union(rng)
        out = audit_generator(G)
        assert out.refuted == (not is_usual_open(G))
        if out.refuted and "t" in out.witness:
            x, t = out.witness["_raw"]
            assert G.member(x) and not G.member(t * x)


def _family_audit(gens):
    return finest_topology_audit(gens, [audit_generator(G) for G in gens])


def test_family_audit():
    out = _family_audit([iu((0, 1)), iu((1, 2))])
    assert out.refuted
    assert out.witness["generator"] == "[1,2)"
    assert _family_audit([iu((0, 1)), iu((0, INF))]).proven
    with pytest.raises(ValueError):  # one outcome per generator
        finest_topology_audit([iu((0, 1))], [])
