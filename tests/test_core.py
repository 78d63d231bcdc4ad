import copy
import json
from pathlib import Path

import pytest

from evslab import core, scalars as sc
from evslab._backend import ONE, rat
from evslab.core import check_axioms, check_order_morphism
from evslab.instances import (MORPHISMS, PLANTED_FAULTS, cone_product,
                              dict_plane, half_line, make_instance,
                              subspace_lattice, twisted_product)
from evslab.outcome import per_variable_budget, subseed

ALL_SPECS = ["halfline", "cone:2", "twisted:2", "dict2", "lattice2",
             "product:(halfline,dict2)"]


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_axioms_clean_instances(spec):
    verdicts = check_axioms(make_instance(spec), 500, 42)
    assert set(verdicts) == set(core.AXIOM_IDS)
    refuted = [k for k, o in verdicts.items() if o.refuted]
    assert refuted == []


def test_exactly_verified_instances_report_proven():
    for E in (half_line(), dict_plane()):
        verdicts = check_axioms(E, 200, 42)
        assert all(o.proven for o in verdicts.values())


# witness re-evaluators for the axiom ids the planted faults must trip
def _reeval_a2_scale(E, w):
    x, y, a = w["_raw_x"], w["_raw_y"], w["_raw_alpha"]
    return E.leq(x, y) and not E.leq(E.scale(a, x), E.scale(a, y))


def _reeval_a4(E, w):
    a, x = w["_raw_alpha"], w["_raw_x"]
    is_theta = E.eq(E.scale(a, x), E.zero)
    return is_theta != (a.is_zero() or E.eq(x, E.zero))


def _reeval_a1_comm(E, w):
    x, y = w["_raw_x"], w["_raw_y"]
    return not E.eq(E.add(x, y), E.add(y, x))


_REEVAL = {"A2.scale": _reeval_a2_scale, "A4": _reeval_a4,
           "A1.comm": _reeval_a1_comm}


@pytest.mark.parametrize("fault,expected_id", [
    ("halfline#no-modulus", "A2.scale"),
    ("twisted:2#no-zero-case", "A4"),
    ("lattice2#no-canonicalization", "A1.comm"),
])
def test_planted_faults_refuted_with_live_witness(fault, expected_id):
    E = PLANTED_FAULTS[fault]()
    verdicts = check_axioms(E, 2000, 42)
    refuted = {k: o for k, o in verdicts.items() if o.refuted}
    assert expected_id in refuted
    outcome = refuted[expected_id]
    assert _REEVAL[expected_id](E, outcome.witness)


def test_per_variable_budget():
    assert per_variable_budget(1000, 3) ** 3 >= 1000
    assert per_variable_budget(1000, 1) == 1000
    assert per_variable_budget(5, 3) >= 2
    with pytest.raises(ValueError):
        per_variable_budget(0, 2)


def test_subseed_is_stable_and_distinct():
    assert subseed(42, "a") == subseed(42, "a")
    assert subseed(42, "a") != subseed(42, "b")
    assert subseed(42, "a") != subseed(43, "a")


def test_primitive_scaling_exact_instances():
    for E in (half_line(), dict_plane(), subspace_lattice(),
              cone_product(1), twisted_product(1)):
        outcome = core.check_primitive_scaling(E, 200, 42)
        assert not outcome.refuted
        assert outcome.proven  # all shipped instances have exact P_x


@pytest.mark.parametrize("name,ok", [
    ("doubling", True), ("embed", True), ("shift", False), ("square", False),
])
def test_order_morphisms(name, ok):
    phi = MORPHISMS[name]()
    outcome = check_order_morphism(phi.forward, phi.domain, phi.codomain,
                                   300, 42)
    assert outcome.refuted != ok


# pinned at budget 300, seed 42: how the checker finds preimages may change,
# what it counts and reports may not
@pytest.mark.parametrize("name,verdict,tried,witness", [
    ("doubling", "Unfalsified", 1296, {}),
    ("embed", "Unfalsified", 1296, {}),
    ("shift", "Refuted", 1, {"x": "0", "y": "0"}),
    ("square", "Refuted", 20, {"x": "1", "y": "1"}),
])
def test_order_morphism_golden(name, verdict, tried, witness):
    phi = MORPHISMS[name]()
    outcome = check_order_morphism(phi.forward, phi.domain, phi.codomain,
                                   300, 42)
    assert outcome.verdict == verdict
    assert outcome.samples_tried == tried
    rendered = {k: v for k, v in (outcome.witness or {}).items()
                if not k.startswith("_")}
    assert rendered == witness


def _cone1_sampling(points):
    """cone:1 whose every sample, of any seed and count, is ``points``."""
    E = copy.copy(cone_product(1))
    E.sample = lambda seed, count: list(points)
    return E


def _graph_map():
    # additive, but (-1).(r, (r,)) = (r, (-r,)) is not f((-1).r)
    return lambda r: (r, (sc.scalar(r),)), half_line(), cone_product(1)


def _second_coordinate_map():
    # additive and homogeneous, but (0, 5) <= (1, 0) maps to 5 > 0
    return lambda p: p[1], dict_plane(), half_line()


def _radial_map_on_two_fibres():
    # additive, homogeneous and monotone; (2, g) maps above 1 = f(1, e)
    # but lies above no point of f^-1(1), since cone points compare only
    # with the vector fixed
    e, g = (sc.S_ZERO,), (sc.S_ONE,)
    pool = [(ONE, e), (rat(2), e), (rat(2), g)]
    return lambda x: x[0], _cone1_sampling(pool), half_line()


# planted maps, one per refutation branch the shipped morphisms do not
# reach, pinned at budget 300, seed 42
@pytest.mark.parametrize("planted,tried,detail,witness", [
    (_graph_map, 345, "f(a.x) != a.f(x)", {"x": "1", "alpha": "-1"}),
    (_second_coordinate_map, 664, "x<=y but f(x) !<= f(y)",
     {"x": "(5/4, 1)", "y": "(41/20, 3/4)"}),
    (_radial_map_on_two_fibres, 73,
     "y in f^-1(q) not above any found member of f^-1(p)",
     {"p": "1", "q": "2", "y": "(2, (1))"}),
], ids=["homogeneity", "monotonicity", "preimage-y"])
def test_order_morphism_refutation_branches(planted, tried, detail,
                                            witness):
    f, E_X, E_Y = planted()
    outcome = check_order_morphism(f, E_X, E_Y, 300, 42)
    assert (outcome.verdict, outcome.samples_tried, outcome.detail) == \
        ("Refuted", tried, detail)
    assert {k: v for k, v in outcome.witness.items()
            if not k.startswith("_")} == witness


def test_order_morphism_calls_f_once_per_sample():
    # doubling at budget 500 has n = 23 samples per variable.  The
    # additivity and homogeneity passes call f once on each x and each y
    # and once per sum and scaled sample: n * n + 2n + n * n = 1104
    # calls.  The 46 comparable pairs and the 46-point pool make 138.
    phi = MORPHISMS["doubling"]()
    calls = []

    def f(x):
        calls.append(x)
        return phi.forward(x)

    outcome = check_order_morphism(f, phi.domain, phi.codomain, 500, 7)
    assert outcome.verdict == "Unfalsified"
    assert per_variable_budget(500, 2) == 23
    assert len(calls) == 1242  # 2783 when f ran once per partner


def test_order_morphism_golden_preimage_refutation():
    # (r, a) -> r is additive, homogeneous and monotone; only the
    # preimage pass refutes it, since cone elements compare only with a fixed
    outcome = check_order_morphism(lambda x: x[0], cone_product(2),
                                   half_line(), 300, 42)
    assert outcome.verdict == "Refuted"
    assert outcome.samples_tried == 667
    assert outcome.detail.startswith("x in f^-1(p)")
    assert {k: v for k, v in outcome.witness.items()
            if not k.startswith("_")} == {
        "p": "0", "q": "5/4", "x": "(0, (0, 0))"}


def test_preimage_witness_replays_from_its_raw_entries():
    # the raw entries render to the public ones and meet the refuted
    # clause's premises: x lies in f^-1(p) and p <= q
    f, E_X, E_Y = _projection()
    w = check_order_morphism(f, E_X, E_Y, 300, 42).witness
    p, q, x = w["_raw_p"], w["_raw_q"], w["_raw_x"]
    assert (E_Y.render(p), E_Y.render(q), E_X.render(x)) == \
        (w["p"], w["q"], w["x"])
    assert E_Y.eq(f(x), p)
    assert E_Y.leq(p, q)


def _reference_order_morphism(f, E_X, E_Y, budget, seed):
    """``check_order_morphism`` with its preimage pass as an index-pair
    loop over the pool, without classes of equal images: a pair (i, j)
    runs both ``any`` loops unless its two images are equal or its pair
    of image values was met before, and each evaluated case counts."""
    n = per_variable_budget(budget, 2)
    xs = E_X.sample(subseed(seed, "x"), n)
    ys = E_X.sample(subseed(seed, "y"), n)
    mode = sc.PYTHAGOREAN_ONLY if sc.PYTHAGOREAN_ONLY in (
        E_X.scalar_mode, E_Y.scalar_mode) else sc.ANY_SCALAR
    alphas = [t[0] for t in sc.sample_scalar_tuples(
        1, n, subseed(seed, "alpha"), mode)]
    tried = 0
    for x in xs:
        for y in ys:
            tried += 1
            if not E_Y.eq(f(E_X.add(x, y)), E_Y.add(f(x), f(y))):
                return ("Refuted", tried, {"x": E_X.render(x),
                                           "y": E_X.render(y)},
                        "f(x+y) != f(x)+f(y)")
    for x in xs:
        for a in alphas:
            tried += 1
            if not E_Y.eq(f(E_X.scale(a, x)), E_Y.scale(a, f(x))):
                return ("Refuted", tried, {"x": E_X.render(x),
                                           "alpha": sc.render_scalar(a)},
                        "f(a.x) != a.f(x)")
    for x, y in E_X.comparable_pairs(subseed(seed, "pairs"), n):
        tried += 1
        if not E_Y.leq(f(x), f(y)):
            return ("Refuted", tried, {"x": E_X.render(x),
                                       "y": E_X.render(y)},
                    "x<=y but f(x) !<= f(y)")
    pool = E_X.sample(subseed(seed, "pool"), 2 * n)
    images = [f(x) for x in pool]
    pre = [[x for x, fx in zip(pool, images) if E_Y.eq(fx, p)]
           for p in images]
    met = []
    for i, p in enumerate(images):
        for j, q in enumerate(images):
            if E_Y.eq(p, q) or any(E_Y.eq(p, a) and E_Y.eq(q, b)
                                   for a, b in met):
                continue
            met.append((p, q))
            if not E_Y.leq(p, q):
                continue
            for x in pre[i]:
                tried += 1
                if not any(E_X.leq(x, y) for y in pre[j]):
                    return ("Refuted", tried,
                            {"p": E_Y.render(p), "q": E_Y.render(q),
                             "x": E_X.render(x)},
                            "x in f^-1(p) not below any found member of "
                            "f^-1(q)")
            for y in pre[j]:
                tried += 1
                if not any(E_X.leq(x, y) for x in pre[i]):
                    return ("Refuted", tried,
                            {"p": E_Y.render(p), "q": E_Y.render(q),
                             "y": E_X.render(y)},
                            "y in f^-1(q) not above any found member of "
                            "f^-1(p)")
    return ("Unfalsified", tried, {}, "")


def _projection():
    return lambda x: x[0], cone_product(2), half_line()


_PLANTED_MAPS = {"projection": _projection, "graph": _graph_map,
                 "second-coordinate": _second_coordinate_map,
                 "radial-two-fibres": _radial_map_on_two_fibres}


@pytest.mark.parametrize("name", ["doubling", "embed", "shift", "square",
                                  *_PLANTED_MAPS])
def test_order_morphism_matches_reference_preimage_loop(name):
    """Grouping equal images keeps verdict, count, public witness and
    detail.  The cone:2 -> halfline projection reaches the preimage
    pass, which no shipped morphism does."""
    if name in _PLANTED_MAPS:
        f, E_X, E_Y = _PLANTED_MAPS[name]()
    else:
        phi = MORPHISMS[name]()
        f, E_X, E_Y = phi.forward, phi.domain, phi.codomain
    details = set()
    for budget in (1, 50, 300, 500):
        for seed in range(40):
            out = check_order_morphism(f, E_X, E_Y, budget, seed)
            public = {k: v for k, v in (out.witness or {}).items()
                      if not k.startswith("_")}
            assert (out.verdict, out.samples_tried, public, out.detail) == \
                _reference_order_morphism(f, E_X, E_Y, budget, seed), \
                (budget, seed)
            details.add(out.detail.split(" ")[0])
    if name == "projection":
        assert details <= {"x", "y"}  # every run ends in the preimage pass


def test_product_componentwise():
    P = make_instance("product:(halfline,dict2)")
    x = P.sample(1, 3)[2]
    assert P.eq(P.add(x, P.zero), x)
    two = sc.scalar(2)
    assert P.scale(two, x)[0] == 2 * x[0]


GOLDEN_AXIOMS = (Path(__file__).resolve().parent / "golden"
                 / "axioms-outcomes.jsonl")


def _outcome_record(o, **fields) -> dict:
    """The golden record of outcome ``o`` with ``fields``: verdict, count,
    seed, the detail when non-empty, the public witness and the ``repr``
    of every raw witness entry."""
    w = o.witness or {}
    rec = dict(fields, verdict=o.verdict, samplesTried=o.samples_tried,
               seed=o.seed,
               witness={k: v for k, v in w.items()
                        if not k.startswith("_raw_")},
               raw={k: repr(v) for k, v in w.items()
                    if k.startswith("_raw_")})
    if o.detail:
        rec["detail"] = o.detail
    return rec


def _axiom_outcome_lines():
    """``check_axioms`` and ``check_primitive_scaling`` on the six shipped
    instances and the planted faults, at budgets 1, 50 and 500 and seeds
    1 and 42: one JSON line per outcome, with verdict, count, seed,
    detail, the public witness and the ``repr`` of every raw entry."""
    builds = [(spec, lambda spec=spec: make_instance(spec))
              for spec in ALL_SPECS] + sorted(PLANTED_FAULTS.items())
    lines = []
    for name, build in builds:
        E = build()
        for budget in (1, 50, 500):
            for seed in (1, 42):
                outcomes = dict(check_axioms(E, budget, seed))
                outcomes["primitive_scaling"] = core.check_primitive_scaling(
                    E, budget, seed)
                for check, o in outcomes.items():
                    rec = _outcome_record(o, instance=name, budget=budget,
                                          runSeed=seed, check=check)
                    lines.append(json.dumps(rec, sort_keys=True))
    return lines


def test_axiom_outcomes_match_golden_records():
    assert _axiom_outcome_lines() == GOLDEN_AXIOMS.read_text(
        encoding="utf-8").splitlines()
