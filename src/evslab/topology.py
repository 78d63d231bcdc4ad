"""Neighborhood structure on the exact carriers.

Exact boundedness (an unbounded set is Refuted with a symbolic escaping
sequence), the five local-base
conditions for a candidate family at theta (condition (iii) builds a
verified halving neighborhood), the open-balanced-absorbing normal form,
and the finest-topology audit over candidate generator families.
Everything over interval unions is decided exactly; every returned
witness is re-verified as part of the construction.
"""

import random
from functools import partial
from typing import Sequence, Tuple

from . import scalars as sc
from . import sets as st
from ._backend import ONE, ZERO, Rat, draw_int, draw_rat, rat, rat_str
from .instances import _require_interval_support
from .outcome import (PAIR_CAP, CheckOutcome, check_law, proven, refuted,
                      rendered, subseed, unfalsified)
from .sets import INF, Interval, IntervalUnion, interval_union, iu

_CORPUS_PROVEN = "exact re-decision succeeded on the whole corpus"


# --------------------------------------------------------------- open sets

def is_usual_open(A: IntervalUnion) -> bool:
    """True iff every component has one of the open subspace forms
    (a,b), (a,oo), [0,b) or [0,oo)."""
    for c in A.components:
        if c.lo_closed and c.lo != 0:
            return False
        if c.hi is not INF and c.hi_closed:
            return False
    return True


def halving_nbhd(U: IntervalUnion) -> IntervalUnion:
    """W with W + W inside U: half the 0-component, verified exactly."""
    if not U.member(ZERO):
        raise ValueError("theta is not a member of the set")
    hi = U.components[0].hi
    if hi == 0:
        # [0,0) would be empty: no neighbourhood of theta halves {0}
        raise ValueError("the 0-component of the set is {0}")
    W = iu((0, INF if hi is INF else hi / 2))
    if not st.iu_subset(st.iu_minkowski(W, W), U):
        raise AssertionError("W + W escaped U")
    return W


# ------------------------------------------------------------- boundedness

def is_bounded_set(A, seed: int = 0) -> CheckOutcome:
    """Exact boundedness for interval unions and product slices; an
    unbounded set is Refuted with a symbolic escaping sequence.  ``seed``
    is only written into the outcome."""
    decide = st.carrier_operation(A, "bounded")
    st.require_nonempty(A)
    return decide(seed)


def definition_bounded_grid(A: IntervalUnion) -> bool:
    """Evaluate the definition directly: for each basic neighborhood
    [0,1/k) with k <= 6, construct alpha and verify a mu-grid keeps
    mu.A inside.  A sup of 0 or oo gets alpha = 1/(2k), so {0} passes and
    an unbounded set fails by the same inclusion test, not by reading its
    sup."""
    s, _ = A.sup()
    for k in range(1, 7):
        V = iu((0, Rat(1, k)))
        alpha = Rat(1, 2 * k) if s is INF or s == 0 else Rat(1, 2 * k) / s
        for mu in (alpha, alpha / 2, alpha / 3):
            if not st.iu_subset(st.iu_scale(mu, A), V):
                return False
    return True


def _sup(A: IntervalUnion):
    return A.sup()[0]


def check_bounded_laws(E, budget: int, seed: int) -> dict:
    """The boundedness laws on random interval unions.

    On [0,oo) a set is bounded exactly when its sup is finite, and each
    law follows from one line of sup arithmetic.  Every row of the table
    re-decides boundedness and checks that lemma on each case, with the
    law's hypotheses (compactness, a nonempty sum) as conjuncts, so a
    case that breaks any of them is Refuted with that case as its
    witness.  The pairwise rows take their partners from the first
    ``PAIR_CAP`` sets, which keeps them linear in the budget while every
    corpus set stays on the outer side.
    """
    _require_interval_support(E)
    n = max(4, budget // 10)
    rng = random.Random(subseed(seed, "bnd:gen"))
    corpus = [st.random_interval_union(rng) for _ in range(n)]
    bounded = [A for A in corpus if is_bounded_set(A).proven]
    finite_sets = []
    for _ in range(n):
        pts = [draw_rat(rng, 0, 40, 8) for _ in range(draw_int(rng, 1, 5))]
        finite_sets.append((iu(*[(p, p, True, True) for p in pts]), max(pts)))
    compacts = [_make_compact(A) for A in corpus]
    lams = sc.sample_scalars(rat(5), 8, subseed(seed, "bnd:lam"))
    every = "re-checked on every case"
    cross = f"{every}, partners capped at {PAIR_CAP}"
    rows = (
        ("defs-agree", ((A,) for A in corpus),
         lambda A: definition_bounded_grid(A) == is_bounded_set(A).proven,
         ("set",), "definition grid and sup characterization disagree",
         "bounded iff sup < inf; the definition grid agreed on every case"),
        ("finite", finite_sets,
         lambda A, top: is_bounded_set(A).proven and A.sup() == (top, True),
         ("set",), "finite set not bounded",
         f"sup of a finite set is its largest point; {every}"),
        ("compact", compacts,
         lambda K, top: is_compact(K) and is_bounded_set(K).proven
         and _sup(K) == top and K.member(top),
         ("set",), lambda K, _: ("compact set not bounded" if is_compact(K)
                                 else "set not compact"),
         f"sup of a compact set is its last endpoint, attained; {every}"),
        ("sum", ((A, B, st.iu_minkowski(A, B))
                 for A in bounded for B in bounded[:PAIR_CAP]),
         lambda A, B, C: not C.is_empty() and is_bounded_set(C).proven
         and _sup(C) == _sup(A) + _sup(B),
         ("A", "B"), "sum of bounded sets not bounded",
         f"sup(A+B) = sup A + sup B; {cross}"),
        ("scale", ((A, lam, st.scale_set(lam, A))
                   for A in bounded for lam in lams),
         lambda A, lam, C: not C.is_empty() and is_bounded_set(C).proven
         and _sup(C) == sc.modulus(lam) * _sup(A),
         ("A", "lambda"), "scaling of a bounded set not bounded",
         f"sup(lambda.A) = |lambda|.sup A; {every}"),
        ("subset", ((A, B, st.iu_intersect(A, B))
                    for A in bounded for B in corpus[:PAIR_CAP]),
         lambda A, B, C: C.is_empty() or (
             is_bounded_set(C).proven and _sup(C) <= _sup(A)),
         ("A", "B"), "subset of a bounded set not bounded",
         f"sup(A & B) <= sup A; {cross}"),
    )
    return {f"bounded.{row}": check_law(cases, holds, rendered(*keys), detail,
                                        seed, proven_detail)
            for row, cases, holds, keys, detail, proven_detail in rows}


def is_compact(A: IntervalUnion) -> bool:
    """Representation-level compactness: all components closed and
    bounded."""
    return all(c.lo_closed and c.hi is not INF and c.hi_closed
               for c in A.components)


def _make_compact(A: IntervalUnion) -> Tuple[IntervalUnion, Rat]:
    """The union of A's components made closed and bounded, and the
    largest right end among them, read before canonicalization."""
    pieces = [Interval(c.lo, True, c.lo + 3 if c.hi is INF else c.hi, True)
              for c in A.components]
    return interval_union(pieces), max(c.hi for c in pieces)


# ------------------------------------------------------------- local base

def usual_base(depth: int = 8) -> Tuple[IntervalUnion, ...]:
    """The standard candidate family [0, 1/n) for n = 1..depth."""
    return tuple(iu((0, Rat(1, n))) for n in range(1, depth + 1))


def _validate_family(family: Sequence[IntervalUnion]):
    if not family:
        raise ValueError("family must be non-empty")
    for U in family:
        if U.is_empty() or not U.member(ZERO):
            raise ValueError(
                f"family member {U.render()} does not contain theta")


def _least_member(family: Sequence[IntervalUnion]):
    """The member inside every member, or None.  A finite family has one
    exactly when every pair U, V has a member inside U & V (local-base
    condition (ii)): applied to a member inside the first k members and
    to the next member, (ii) gives a member inside the first k + 1.  One
    pass replaces the kept member by each member it is not inside, which
    ends on a least member if there is one; a second pass checks it."""
    least = family[0]
    for U in family[1:]:
        if not st.iu_subset(least, U):
            least = U
    return least if all(st.iu_subset(least, U) for U in family) else None


def _has_member_inside(family: Sequence[IntervalUnion], U: IntervalUnion,
                       V: IntervalUnion) -> bool:
    meet = st.iu_intersect(U, V)
    return any(st.iu_subset(W, meet) for W in family)


def _halves(U: IntervalUnion) -> bool:
    """True when ``halving_nbhd`` builds a verified W with W + W in U,
    False when U has no half; a failed self-check propagates."""
    try:
        halving_nbhd(U)
    except ValueError:
        return False
    return True


def check_local_base_conditions(family: Sequence[IntervalUnion],
                                budget: int, seed: int) -> dict:
    """The five local-base conditions for a candidate family at theta."""
    _validate_family(family)
    family = tuple(family)
    least = _least_member(family)
    law = partial(check_law, seed=seed, proven_detail=_CORPUS_PROVEN)
    out = {
        # (i) every member balanced and absorbing — exact deciders
        "i": law(
            ((U,) for U in family),
            lambda U: st.is_balanced(U).proven and st.is_absorbing(U).proven,
            rendered("U"), "member not balanced and absorbing"),
        # (ii) some member inside each pairwise intersection.  The least
        # member is inside every one; without it some pair fails, and an
        # exact search finds the first
        "ii": law(
            ((U, V) for U in family for V in family),
            lambda U, V: least is not None or _has_member_inside(
                family, U, V),
            rendered("U", "V"), "no member inside the intersection"),
        # (iii) halving: for each U a verified W with W + W inside U, the
        # halved 0-component, constructed and checked exactly, or else a
        # family member (a {0} 0-component has no half)
        "iii": law(
            ((U,) for U in family),
            lambda U: _halves(U) or any(
                st.iu_subset(st.iu_minkowski(W, W), U) for W in family),
            rendered("U"), "no W with W + W inside U"),
    }

    # (iv) order separation within the family over sampled pairs x > y.
    # Pairs are drawn on a grid whose step is the width of the narrowest
    # member, the family's separating resolution: pairs closer than that
    # cannot be split by translates of any member.  A {0} member has
    # width 0, which would make every grid pair coincide, so only
    # positive widths count.  Every member holds theta, so the up-set of
    # x + U is [x,oo) for each U, and the first member stands for all.
    widths = [U.components[0].hi for U in family
              if U.components[0].hi is not INF and U.components[0].hi > 0]
    step = min(widths, default=ONE)
    rng = random.Random(subseed(seed, "lb:iv"))
    pairs = []
    while len(pairs) < max(8, budget // 4):
        x = step * draw_int(rng, 0, 30)
        y = step * draw_int(rng, 0, 30)
        if x != y:
            pairs.append((max(x, y), min(x, y)))
    iv = check_law(
        ((x, y, st.iu_up(st.iu_translate(x, family[0]))) for x, y in pairs),
        lambda x, y, up: any(
            st.iu_intersect(up, st.iu_down(st.iu_translate(y, V))).is_empty()
            for V in family),
        lambda x, y, _: {"x": rat_str(x), "y": rat_str(y), "_raw_x": x,
                         "_raw_y": y},
        "no separating member pair in the family", seed)
    out["iv"] = iv if iv.refuted else unfalsified(
        iv.samples_tried, seed,
        "separating pair found for every sampled x > y")

    # (v) scalar-continuity condition against translated members, decided
    # for one canonical triple, so the Refuted record is identical for
    # every seed.
    out["v"] = _condition_v(family, seed)
    return out


_EPS_GRID = tuple(Rat(1, 2 ** k) for k in range(1, 13))


def _condition_v(family: Sequence[IntervalUnion],
                 seed: int) -> CheckOutcome:
    """For (W, x, alpha) = (first member, 1, 1) no eps > 0 and U in the
    family give B(alpha,eps).(x+U) inside alpha.x + W: for x > 0 any
    lambda in the disc with |lambda| < |alpha| sends x + 0 strictly below
    alpha.x, the minimum of the target.  The grid lambda = 1 - eps/2 is
    a self-check of that inequality that raises when it fails."""
    W = family[0]
    x = ONE
    alpha = sc.S_ONE
    target = st.iu_translate(sc.modulus(alpha) * x, W)
    lams = [sc.Scalar(ONE - eps / 2, ZERO) for eps in _EPS_GRID]
    if any(target.member(sc.modulus(lam) * x) for lam in lams):
        raise AssertionError("grid escape inside alpha.x + W")
    return refuted(
        {"W": W.render(), "x": rat_str(x),
         "alpha": sc.render_scalar(alpha),
         "lambda": sc.render_scalar(lams[0]),
         "escape_value": rat_str(sc.modulus(lams[0]) * x),
         "symbolic": "for every eps > 0 the disc contains lambda with "
                     "|lambda| < |alpha|, and |lambda|.x < |alpha|.x is "
                     "below min(alpha.x + W) whenever x > 0",
         "_raw": (W, x, alpha, list(_EPS_GRID))},
        len(_EPS_GRID), seed,
        "no eps on the grid works and the symbolic inequality rules out "
        "all eps; translate-based neighborhoods fail scalar continuity")


# ------------------------------------------- balanced+absorbing normal form

def open_balanced_absorbing_form(A: IntervalUnion) -> CheckOutcome:
    """Decides the equivalence: usual-open and balanced and absorbing
    holds exactly when A = [0,a) with a in (0, oo]."""
    lhs = (is_usual_open(A) and st.is_balanced(A).proven
           and st.is_absorbing(A).proven)
    rhs = (len(A.components) == 1
           and A.components[0].lo == 0 and A.components[0].lo_closed
           and not A.components[0].hi_closed
           and (A.components[0].hi is INF or A.components[0].hi > 0))
    if lhs != rhs:
        return refuted({"set": A.render(), "lhs": str(lhs), "rhs": str(rhs)},
                       1, 0, "normal-form equivalence failed")
    if lhs:
        a = A.components[0].hi
        return proven(f"form [0,{'inf' if a is INF else rat_str(a)}) "
                      f"confirmed on both sides", 1)
    return proven("both sides false", 1)


# ----------------------------------------------------------------- audit

def audit_generator(G: IntervalUnion) -> CheckOutcome:
    """Per-generator audit: the generator must be usual-open to sit in a
    topology compatible with the scalar action; violations ship an
    escape scalar t whose action crosses the offending boundary."""
    comps = G.components
    for idx, c in enumerate(comps):
        # t sends the closed endpoint x halfway to gap_end, the far side
        # of the gap next to it
        if c.lo_closed and c.lo != 0:
            x = c.lo
            gap_end = comps[idx - 1].hi if idx > 0 else ZERO
            detail = ("left-closed component away from theta: scaling x "
                      "by t < 1 lands in the gap below")
        elif c.hi is not INF and c.hi_closed:
            if c.hi == 0:
                return refuted(
                    {"component": c.render(), "x": "0",
                     "reason": "isolated theta"},
                    1, 0,
                    "degenerate component {0}: an open neighborhood of "
                    "theta compatible with the action must have the "
                    "form [0,a) with a > 0")
            x = c.hi
            gap_end = comps[idx + 1].lo if idx + 1 < len(comps) else 2 * x
            detail = ("right-closed bounded component: scaling the "
                      "endpoint by t > 1 lands in the gap above")
        else:
            continue
        t = (x + gap_end) / (2 * x)
        escape = t * x
        if G.member(escape):
            raise AssertionError("gap point unexpectedly inside")
        return refuted(
            {"component": c.render(), "x": rat_str(x), "t": rat_str(t),
             "escape": rat_str(escape), "_raw": (x, t)},
            1, 0, detail)
    return proven("all components have open subspace form", len(G.components))


def finest_topology_audit(generators: Sequence[IntervalUnion],
                          audits: Sequence[CheckOutcome]) -> CheckOutcome:
    """Family verdict from each generator's ``audit_generator`` outcome:
    certified usual-open (so the generated topology is
    coarsest-compatible) or Refuted at the first offending generator."""
    for G, outcome in zip(generators, audits, strict=True):
        if outcome.refuted:
            w = dict(outcome.witness)
            w["generator"] = G.render()
            return refuted(w, len(audits), 0, outcome.detail)
    return proven("every generator is usual-open; the generated topology "
                  "is contained in the usual subspace topology", len(audits))
