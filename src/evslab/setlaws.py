"""Closure laws for absorbing/balanced sets, radial separation, and
transport of set verdicts along order-isomorphisms.

Every corpus law, here and in ``topology``, is one ``outcome.check_law``
row: a lazy stream of cases, a predicate that must hold on each and a
``rendered`` witness of the case's sets.  The closure
drivers generate random exact sets, filter them through the exact
deciders, apply each construction and re-decide.  The radial checker
replays the separating constructions of the source material exactly on
the half line, the dictionary plane and the cone, and refutes radiality
on the subspace lattice from the exact absorbing characterisation.
"""

import random
from functools import partial
from typing import Optional, Sequence

from . import scalars as sc
from . import sets as st
from ._backend import ZERO, Rat, rat
from .core import EvsDescriptor, product_evs
from .instances import OrderIso
from .outcome import (PAIR_CAP, CheckOutcome, check_law, proven, refuted,
                      rendered, subseed, unfalsified)

_CLOSURE_PROVEN = "exact deciders re-verified every constructed set"


def has_interval_sets(E: EvsDescriptor) -> bool:
    """True when E's exact sets are interval unions: on the half line."""
    return E.element_kind == "halfline"


def _require_interval_support(E: EvsDescriptor):
    if not has_interval_sets(E):
        raise ValueError(
            f"law driver needs IntervalUnion sets, which {E.name} lacks")


def _random_corpus(budget: int, seed: int, pred) -> list:
    rng = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < budget and attempts < 50 * budget:
        attempts += 1
        A = st.random_interval_union(rng)
        if pred(A):
            out.append(A)
    return out


def check_absorbing_closure_laws(E: EvsDescriptor, budget: int,
                                 seed: int) -> dict:
    """Laws (i)-(v) for absorbing sets on random interval unions."""
    _require_interval_support(E)
    n = max(4, budget // 10)
    absorbing = _random_corpus(n, subseed(seed, "abs:gen"),
                               lambda A: st.is_absorbing(A).proven)
    anything = _random_corpus(n, subseed(seed, "abs:any"), lambda A: True)
    partners = absorbing[:PAIR_CAP]
    extras = anything[:PAIR_CAP]
    lams = [l for l in sc.sample_scalars(rat(3), 8, subseed(seed, "abs:lam"),
                                         sc.PYTHAGOREAN_ONLY)
            if not l.is_zero()]
    law = partial(check_law, seed=seed, proven_detail=_CLOSURE_PROVEN)
    return {
        # (i) theta membership
        "absorbing.i": law(
            ((A,) for A in absorbing), lambda A: A.contains_zero(),
            rendered("set"), "absorbing set without theta"),
        # (ii) finite intersections
        "absorbing.ii": law(
            ((A, B, st.iu_intersect(A, B))
             for A in absorbing for B in partners),
            lambda A, B, C: not C.is_empty() and st.is_absorbing(C).proven,
            rendered("A", "B", "A&B"),
            "intersection of absorbing sets not absorbing"),
        # (iii) supersets / unions
        "absorbing.iii": law(
            ((A, B, st.iu_union(A, B)) for A in absorbing for B in extras),
            lambda A, B, C: st.is_absorbing(C).proven,
            rendered("A", "B", "AuB"),
            "superset of an absorbing set not absorbing"),
        # (iv) up/down stability
        "absorbing.iv": law(
            ((A, img) for A in absorbing
             for img in (st.iu_up(A), st.iu_down(A))),
            lambda A, img: st.is_absorbing(img).proven,
            rendered("A", "image"),
            "up/down image of an absorbing set not absorbing"),
        # (v) nonzero scaling
        "absorbing.v": law(
            ((A, lam, st.scale_set(lam, A))
             for A in absorbing for lam in lams),
            lambda A, lam, C: st.is_absorbing(C).proven,
            rendered("A", "lambda", "lamA"),
            "nonzero scaling of an absorbing set not absorbing"),
    }


def check_balanced_closure_laws(E: EvsDescriptor, budget: int,
                                seed: int) -> dict:
    """Laws (i)-(v) for balanced sets, with |lambda| arbitrary in (v)."""
    _require_interval_support(E)
    n = max(4, budget // 10)
    balanced = _random_corpus(n, subseed(seed, "bal:gen"),
                              lambda A: st.is_balanced(A).proven)
    partners = balanced[:PAIR_CAP]
    lams = sc.sample_scalars(rat(4), 8, subseed(seed, "bal:lam"),
                             sc.PYTHAGOREAN_ONLY)
    law = partial(check_law, seed=seed, proven_detail=_CLOSURE_PROVEN)
    return {
        "balanced.i": law(
            ((A,) for A in balanced), lambda A: A.contains_zero(),
            rendered("set"), "balanced set without theta"),
        "balanced.ii": law(
            ((A, B, st.iu_intersect(A, B))
             for A in balanced for B in partners),
            lambda A, B, C: C.is_empty() or st.is_balanced(C).proven,
            rendered("A", "B", "A&B"),
            "intersection of balanced sets not balanced"),
        "balanced.iii": law(
            ((A, B, st.iu_union(A, B)) for A in balanced for B in partners),
            lambda A, B, C: st.is_balanced(C).proven,
            rendered("A", "B", "AuB"), "union of balanced sets not balanced"),
        "balanced.iv": law(
            ((A, img) for A in balanced
             for img in (st.iu_up(A), st.iu_down(A))),
            lambda A, img: st.is_balanced(img).proven,
            rendered("A", "image"),
            "up/down image of a balanced set not balanced"),
        "balanced.v": law(
            ((A, lam, st.scale_set(lam, A)) for A in balanced for lam in lams),
            lambda A, lam, C: not C.is_empty() and st.is_balanced(C).proven,
            rendered("A", "lambda", "lamA"),
            "scaling of a balanced set not balanced"),
    }


# ------------------------------------------------------------------ radial

def radial_separator(E: EvsDescriptor, x, y):
    """An exactly absorbing set containing exactly one of x != y.

    Implements the separating constructions for the half line, the
    dictionary plane, the cone product and product cylinders; raises
    ValueError for the subspace lattice, which is not radial.
    """
    if E.eq(x, y):
        raise ValueError("separation needs two distinct points")
    kind = E.element_kind
    if kind == "halfline":
        lo_pt, hi_pt = (x, y) if x < y else (y, x)
        r = (lo_pt + hi_pt) / 2
        return st.iu((0, r))
    if kind == "dict2":
        (x1, y1), (x2, y2) = x, y
        if x1 != x2:
            # keep the point with the smaller first coordinate
            keep = x if x1 < x2 else y
            r = (x1 + x2) / 2
            return st.box_union([st.box(r, keep[1] + 1)])
        # same first coordinate: cut between the y values
        cut = (y1 + y2) / 2
        return st.box_union([st.box(x1 + 1, cut)])
    if kind == "cone":
        return _cone_separator(E, x, y)
    if kind == "product":
        raise ValueError("use product_cylinder_separator for products")
    if kind == "lattice2":
        raise ValueError("the subspace lattice is not radial")
    raise ValueError(f"no exact separator construction for {E.name}")


def _cone_separator(E: EvsDescriptor, x, y):
    """Absorbing slice containing x but not y (or the other way around):
    a basic [0,s) x ball(t) avoiding one point, with the kept point
    adjoined if needed."""
    (r1, a1), (r2, a2) = x, y
    theta = E.zero

    def basic_avoiding(pt):
        r, a = pt
        if r > 0:
            return st.product_slice((st.iu((0, r)), st.ball(1)))
        # r = 0: pt = (0, a) with a != 0; shrink the ball below |a|
        m2 = max(sc.modulus_squared(v) for v in a)
        t = m2 / (m2 + 1)  # t^2 < m2, so the ball excludes a
        return st.product_slice((st.iu((0, 1)), st.ball(t)))

    if E.eq(y, theta):
        return basic_avoiding(x)  # contains theta = y, excludes x
    U = basic_avoiding(y)
    return U if U.member(x) else st.set_with_point(U, x)


def check_radial(E: EvsDescriptor, budget: int, seed: int) -> CheckOutcome:
    """Per-pair separation on sampled distinct pairs."""
    n = max(4, budget // 4)
    xs = E.sample(subseed(seed, "rad:x"), n)
    ys = E.sample(subseed(seed, "rad:y"), n)
    if E.element_kind == "lattice2":
        x, y = st.ZERO_SUBSPACE, st.FULL_SUBSPACE
        return refuted(
            {"x": E.render(x), "y": E.render(y), "_raw": (x, y)},
            len(xs), seed,
            "the only absorbing family is the whole lattice, which "
            "contains both points of every pair")
    tried = 0
    all_proven = True
    for x, y in zip(xs, ys):
        if E.eq(x, y):
            continue
        tried += 1
        try:
            A = radial_separator(E, x, y)
        except ValueError:
            all_proven = False
            continue
        inx, iny = st.set_member(A, x), st.set_member(A, y)
        if inx == iny:
            return refuted({"x": E.render(x), "y": E.render(y),
                            "set": A.render(), "_raw": (x, y, A)},
                           tried, seed, "separator failed to separate")
        if not st.is_absorbing(A).proven:
            return refuted({"x": E.render(x), "y": E.render(y),
                            "set": A.render(), "_raw": (x, y, A)},
                           tried, seed, "separator is not absorbing")
    if all_proven and tried:
        return proven(f"exact separators for all {tried} sampled pairs",
                      tried, seed)
    return unfalsified(tried, seed)


def product_cylinder_separator(parts: Sequence[EvsDescriptor], x, y):
    """The productive-proof construction: a cylinder that is the whole
    space in every coordinate except one, where a separator sits."""
    for i, (p, xi, yi) in enumerate(zip(parts, x, y)):
        if not p.eq(xi, yi):
            A_i = radial_separator(p, xi, yi)
            factors = [None] * len(parts)
            factors[i] = A_i
            return st.ProductCylinder(tuple(factors)), i
    raise ValueError("points are equal in every coordinate")


def check_radial_product_and_hereditary(
        parts: Sequence[EvsDescriptor],
        subevs_specs: Sequence[tuple],
        budget: int, seed: int) -> CheckOutcome:
    """Replay the productive and hereditary constructions exactly.

    ``subevs_specs`` is a list of (E, sample_y, trace) triples: ``sample_y``
    draws members of the subevs Y, ``trace`` maps a separator of E to its
    intersection with Y, and the check verifies membership and
    absorbency-within-Y on the sampled members.
    """
    tried = 0
    # productive part
    if parts:
        prod = product_evs(parts)
        xs = prod.sample(subseed(seed, "prod:x"), max(4, budget // 8))
        ys = prod.sample(subseed(seed, "prod:y"), max(4, budget // 8))
        for x, y in zip(xs, ys):
            if prod.eq(x, y):
                continue
            tried += 1
            cyl, i = product_cylinder_separator(parts, x, y)
            inx, iny = cyl.member(x), cyl.member(y)
            if inx == iny:
                return refuted(
                    {"x": prod.render(x), "y": prod.render(y),
                     "cylinder": cyl.render(), "_raw": (x, y, cyl)},
                    tried, seed, "cylinder failed to separate")
            if not st.is_absorbing(cyl.factors[i]).proven:
                return refuted(
                    {"factor": i, "set": cyl.factors[i].render(),
                     "_raw": (cyl,)},
                    tried, seed, "cylinder factor is not absorbing")
    # hereditary part
    for E, sample_y, trace in subevs_specs:
        pool = sample_y(subseed(seed, "her:z"), max(8, budget // 4))
        for x, y in zip(pool, pool[1:]):
            if E.eq(x, y):
                continue
            tried += 1
            A = radial_separator(E, x, y)
            AY = trace(A)
            inx, iny = st.set_member(AY, x), st.set_member(AY, y)
            if inx == iny:
                return refuted(
                    {"x": E.render(x), "y": E.render(y),
                     "set": AY.render(), "_raw": (x, y, AY)},
                    tried, seed, "trace on the subevs failed to separate")
            # absorbing within Y: mu-orbits of sampled members stay in AY
            for z in pool[: max(4, budget // 16)]:
                alpha = _absorb_bound(AY, E, z)
                if alpha is None:
                    return refuted(
                        {"z": E.render(z), "set": AY.render(),
                         "_raw": (z, AY)},
                        tried, seed, "no absorbing bound found within Y")
    if tried == 0:
        return unfalsified(0, seed, "no distinct sampled pairs")
    return proven(f"constructions re-verified on {tried} pairs", tried, seed)


def _absorb_bound(A, E: EvsDescriptor, z) -> Optional[object]:
    """Search a bound alpha whose sampled mu-grid keeps mu.z inside A."""
    for k in (1, 2, 4, 16, 64, 256, 1024):
        a = Rat(1, k)
        mus = [sc.Scalar(a / j, ZERO) for j in (1, 2, 3, 7)] + [sc.S_ZERO]
        if all(st.set_member(A, E.scale(mu, z)) for mu in mus):
            return a
    return None


# --------------------------------------------------------------- transport

def transport_set(phi: OrderIso, A):
    """Exact image of an endpoint-defined set under a shipped
    order-isomorphism."""
    if phi.inverse is None:
        raise ValueError(f"morphism {phi.name} lacks an inverse")
    if phi.transport is None or not (has_interval_sets(phi.domain)
                                     and isinstance(A, st.IntervalUnion)):
        raise ValueError(
            f"no exact transport for {phi.name} on {type(A).__name__}")
    return phi.transport(A)


def check_absorbing_transport(phi: OrderIso, budget: int,
                              seed: int) -> CheckOutcome:
    """A absorbing iff phi(A) absorbing, on random interval unions.  A
    map onto a proper subevs decides phi(A) within that subevs, through
    its ``image_view``."""
    rng = random.Random(subseed(seed, "transport"))
    tried = 0
    for _ in range(max(4, budget)):
        tried += 1
        A = st.random_interval_union(rng)
        before = st.is_absorbing(A).verdict
        image = transport_set(phi, A)
        after = st.is_absorbing(phi.image_view(image)).verdict
        if before != after:
            return refuted({"A": A.render(), "image": image.render(),
                            "before": before, "after": after,
                            "_raw": (A, image)},
                           tried, seed, "absorbing verdict not preserved")
    return proven("exact deciders agree on both sides for every sample",
                  tried, seed)


def check_radial_transport(phi: OrderIso, budget: int,
                           seed: int) -> CheckOutcome:
    """Radial verdict class is identical before and after transport."""
    E, F = phi.domain, phi.codomain
    n = max(4, budget // 4)
    xs = E.sample(subseed(seed, "rt:x"), n)
    ys = E.sample(subseed(seed, "rt:y"), n)
    tried = 0
    for x, y in zip(xs, ys):
        if E.eq(x, y):
            continue
        tried += 1
        A = radial_separator(E, x, y)
        fx, fy = phi.forward(x), phi.forward(y)
        B = radial_separator(F, fx, fy) if F.element_kind != "product" \
            else None
        okA = st.set_member(A, x) != st.set_member(A, y) and \
            st.is_absorbing(A).proven
        okB = B is not None and \
            st.set_member(B, fx) != st.set_member(B, fy) and \
            st.is_absorbing(B).proven
        if okA != okB:
            return refuted({"x": E.render(x), "y": E.render(y),
                            "_raw": (x, y)}, tried, seed,
                           "separability not preserved by transport")
    return proven(f"verdict class preserved on {tried} pairs", tried, seed)
