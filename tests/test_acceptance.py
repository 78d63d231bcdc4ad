"""Acceptance suite: one check per shipped guarantee, each printing a
single PASS line (pytest -s shows them; any failure fails the test)."""

import json
import random
import time

from cli_runner import CliRunner

from evslab import core, scalars as sc
from evslab import sets as st
from evslab import setlaws, topology
from evslab._backend import ZERO, Rat, rat
from evslab.cli import main as cli_main
from evslab.instances import (MORPHISMS, PLANTED_FAULTS, cone_product,
                              dict_plane, half_line, make_instance)
from evslab.sets import INF, iu

SEED = 42
INSTANCES = ["halfline", "cone:2", "twisted:2", "dict2", "lattice2",
             "product:(halfline,dict2)"]


def _report(num, text):
    print(f"criterion {num}: PASS - {text}")


def test_criterion_01_axiom_suite():
    t0 = time.perf_counter()
    for spec in INSTANCES:
        verdicts = core.check_axioms(make_instance(spec), 10_000, SEED)
        refuted = [k for k, o in verdicts.items() if o.refuted]
        assert refuted == [], f"{spec}: {refuted}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"axiom suite took {elapsed:.1f}s"

    reevals = {
        "halfline#no-modulus": ("A2.scale", lambda E, w: (
            E.leq(w["_raw_x"], w["_raw_y"])
            and not E.leq(E.scale(w["_raw_alpha"], w["_raw_x"]),
                          E.scale(w["_raw_alpha"], w["_raw_y"])))),
        "twisted:2#no-zero-case": ("A4", lambda E, w: (
            E.eq(E.scale(w["_raw_alpha"], w["_raw_x"]), E.zero)
            != (w["_raw_alpha"].is_zero() or E.eq(w["_raw_x"], E.zero)))),
        "lattice2#no-canonicalization": ("A1.comm", lambda E, w: (
            not E.eq(E.add(w["_raw_x"], w["_raw_y"]),
                     E.add(w["_raw_y"], w["_raw_x"])))),
    }
    for fault, (check_id, reeval) in reevals.items():
        E = PLANTED_FAULTS[fault]()
        verdicts = core.check_axioms(E, 10_000, SEED)
        refuted = {k: o for k, o in verdicts.items() if o.refuted}
        assert refuted, f"{fault} produced no refutation"
        assert check_id in refuted
        assert reeval(E, refuted[check_id].witness), \
            f"{fault} witness did not re-evaluate"
    _report(1, f"6 clean instances at budget 10^4 in {elapsed:.1f}s; "
               "3 planted faults refuted with live witnesses")


def test_criterion_02_closure_laws_and_brute_agreement():
    H = half_line()
    absorbing = setlaws.check_absorbing_closure_laws(H, 10_000, SEED)
    balanced = setlaws.check_balanced_closure_laws(H, 10_000, SEED)
    assert len(absorbing) == 5 and len(balanced) == 5
    bad = [k for k, o in {**absorbing, **balanced}.items() if not o.proven]
    assert bad == [], bad

    rng = random.Random(SEED)
    disagreements = 0
    for _ in range(1000):
        A = st.random_interval_union(rng)
        bal = st.is_balanced(A)
        viol = st.brute_balanced_violation(A)
        if bal.refuted != (viol is not None):
            disagreements += 1
            continue
        if viol is not None:
            x, t = viol
            if not (A.member(x) and not A.member(t * x)):
                disagreements += 1
        if st.is_absorbing(A).refuted == st.brute_absorbing_verdict(A):
            disagreements += 1
    assert disagreements == 0
    _report(2, "all ten closure laws Proven on the 10^3 corpus; "
               "brute-grid agreement 1000/1000")


def test_criterion_03_interval_characterization():
    rng = random.Random(SEED + 3)
    singleton = iu((0, 0, True, True))
    corpus = [st.random_interval_union(rng) for _ in range(1000)] + [singleton]
    unamended_violations = []
    for A in corpus:
        # unamended statement: interval containing theta <-> bal & abs
        lhs = (len(A.components) == 1 and A.components[0].lo == 0
               and A.components[0].lo_closed)
        rhs = st.is_balanced(A).proven and st.is_absorbing(A).proven
        # amended: the interval is also nondegenerate
        amended = lhs and (A.components[0].hi is INF
                           or A.components[0].hi > 0)
        assert amended == rhs, A.render()
        if lhs != rhs:
            unamended_violations.append(A)
    assert {v for v in unamended_violations} == {singleton}
    assert st.is_balanced(singleton).proven
    assert st.is_absorbing(singleton).refuted
    _report(3, "amended equivalence exact on 10^3 + 1 sets; the single "
               "unamended violation is {0}, reported once")


def test_criterion_04_open_balanced_absorbing_form():
    rng = random.Random(SEED + 4)
    for _ in range(1000):
        A = st.random_interval_union(rng)
        assert topology.open_balanced_absorbing_form(A).proven, A.render()
    _report(4, "open+balanced+absorbing <-> [0,a) form: 0 disagreements "
               "on 10^3 sets")


def _random_usual_open(rng):
    """Open every flag of a random union and force a 0-component."""
    raw = st.random_interval_union(rng)
    comps = [st.Interval(c.lo, c.lo == 0, c.hi, False)
             for c in raw.components]
    comps.append(st.Interval(ZERO, True, Rat(rng.randint(1, 9), 4), False))
    G = st.interval_union(comps)
    assert topology.is_usual_open(G)
    return G


def test_criterion_05_neighborhood_witnesses():
    rng = random.Random(SEED + 5)
    for _ in range(200):
        G = _random_usual_open(rng)
        # halving_nbhd raises if W + W escapes G; re-verify it here too
        W = topology.halving_nbhd(G)
        assert st.iu_subset(st.iu_minkowski(W, W), G), G.render()
        assert st.is_balanced(W).proven and st.is_absorbing(W).proven
    _report(5, "halving neighborhood W + W inside G, W balanced and "
               "absorbing, re-verified exactly on 200 random usual-open "
               "scenarios")


def test_criterion_06_boundedness():
    rng = random.Random(SEED + 6)
    for _ in range(1000):
        A = st.random_interval_union(rng)
        assert topology.definition_bounded_grid(A) == \
            topology.is_bounded_set(A).proven, A.render()

    laws = topology.check_bounded_laws(half_line(), 10_000, SEED)
    assert laws["bounded.finite"].proven and laws["bounded.compact"].proven

    bounded_pool = []
    while len(bounded_pool) < 500:
        A = st.random_interval_union(rng)
        if topology.is_bounded_set(A).proven:
            bounded_pool.append(A)
    lams = [l for l in sc.sample_scalars(rat(5), 12, SEED)]
    for i, A in enumerate(bounded_pool):
        B = bounded_pool[(i * 7 + 1) % len(bounded_pool)]
        assert topology.is_bounded_set(st.iu_minkowski(A, B)).proven
        C = st.scale_set(lams[i % len(lams)], A)
        assert C.is_empty() or topology.is_bounded_set(C).proven

    out = topology.is_bounded_set(iu((1, INF)))
    assert out.refuted and out.witness["lambda_n"] == "1/n"
    base = out.witness["_raw_base"]
    assert all((base + n) * Rat(1, n) >= 1 for n in range(1, 1001))
    _report(6, "definition grid agrees on 10^3 sets; finite/compact Proven; "
               "sum+scale closed on 500 pairs; [1,inf) falsified for n<=10^3")


def _cone_zero_sampler(seed, n):
    rng = random.Random(seed)
    return [(Rat(rng.randint(0, 40), rng.randint(1, 8)), (sc.S_ZERO,))
            for _ in range(n)]


def test_criterion_07_radial():
    for spec in ("halfline", "dict2"):
        out = setlaws.check_radial(make_instance(spec), 2000, SEED)
        assert out.proven and out.samples_tried >= 450, (spec, out)
    lat = setlaws.check_radial(make_instance("lattice2"), 2000, SEED)
    assert lat.refuted and "whole lattice" in lat.detail
    prod = setlaws.check_radial_product_and_hereditary(
        [half_line(), dict_plane()],
        [(cone_product(1), _cone_zero_sampler, lambda A: A)],
        800, SEED)
    assert prod.proven and prod.samples_tried >= 100
    _report(7, "per-pair separators Proven on ~500 halfline/dict2 pairs; "
               "lattice2 Refuted exactly; product+hereditary on 100+ pairs")


def test_criterion_08_local_base():
    family = topology.usual_base(8)
    records = []
    for seed in (SEED, 7, 1234):
        out = topology.check_local_base_conditions(family, 800, seed)
        assert out["i"].proven and out["ii"].proven and out["iii"].proven
        assert out["iv"].verdict == "Unfalsified"
        assert out["iv"].samples_tried >= 200
        assert out["v"].refuted
        w = {k: v for k, v in out["v"].witness.items()
             if not k.startswith("_")}
        records.append(w)
    assert records[0] == records[1] == records[2]
    assert records[0]["W"] == "[0,1)" and records[0]["x"] == "1" \
        and records[0]["alpha"] == "1"
    _report(8, "conditions (i)-(iii) Proven, (iv) Unfalsified on 200 pairs, "
               "(v) Refuted with the canonical (W=[0,1), x=1, alpha=1) "
               "witness, identical across seeds")


def test_criterion_09_audit():
    out = topology.audit_generator(iu((1, 2)))
    assert out.refuted and out.witness["t"] == "1/2"
    out = topology.audit_generator(iu((0, 1, True, True)))
    assert out.refuted and out.witness["t"] == "3/2"
    gens = [iu((0, 1)), iu((2, 5, False, False))]
    assert topology.finest_topology_audit(
        gens, [topology.audit_generator(G) for G in gens]).proven
    rng = random.Random(SEED + 9)
    for _ in range(1000):
        G = st.random_interval_union(rng)
        assert topology.audit_generator(G).refuted == \
            (not topology.is_usual_open(G)), G.render()
    _report(9, "{[1,2)} and {[0,1]} refuted with escape scalars 1/2 and "
               "3/2; 10^3-set fuzz agreement with isUsualOpen")


def test_criterion_10_transport():
    for name in ("doubling", "embed"):
        phi = MORPHISMS[name]()
        absorb = setlaws.check_absorbing_transport(phi, 500, SEED)
        assert absorb.proven and absorb.samples_tried >= 500, (name, absorb)
        rad = setlaws.check_radial_transport(phi, 2000, SEED)
        assert rad.proven and rad.samples_tried >= 450, (name, rad)
    _report(10, "doubling and embedding preserve absorbing verdicts on 500 "
                "sets and radial classes on ~500 pairs; zero mismatches")


def test_criterion_11_determinism():
    runner = CliRunner()
    args = ["all", "halfline", "--format", "jsonlines", "--seed", "42",
            "--findings-ok"]
    outs = []
    for _ in range(2):
        res = runner.invoke(cli_main, args)
        assert res.exit_code == 0
        recs = [json.loads(ln) for ln in res.output.strip().splitlines()]
        for r in recs:
            r.pop("elapsed")
        outs.append(json.dumps(recs, sort_keys=True))
    assert outs[0] == outs[1]
    _report(11, "two `all halfline` jsonlines runs byte-identical after "
                "removing the elapsed field")
