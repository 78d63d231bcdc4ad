"""Generic evs interface, the axiom suite and structural checkers.

An EvsDescriptor bundles one concrete exponential-vector-space instance:
its operations, order, exact primitive structure and a seeded sampler.
The checkers in this module quantify over sampled elements and scalars;
a Refuted verdict always carries a witness that re-evaluates to a
violation, and Proven is only reported for laws an instance has flagged
as exactly verified.
"""

import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import scalars as sc
from .outcome import (CheckOutcome, per_variable_budget, proven, refuted,
                      subseed, unfalsified)

AXIOM_IDS = (
    "A1.assoc", "A1.comm", "A1.id",
    "A2.add", "A2.scale",
    "A3.i", "A3.ii", "A3.iii", "A3.iv",
    "A4", "A5.fwd", "A5.bwd", "A6",
)


@dataclass
class EvsDescriptor:
    name: str
    element_kind: str
    zero: object
    add: Callable
    scale: Callable  # (Scalar, Element) -> Element
    leq: Callable
    is_primitive: Callable
    primitive_witness: Callable
    sample: Callable  # (seed, count) -> list of Element
    scalar_mode: str = sc.ANY_SCALAR
    exact_sets: tuple = ()
    render: Callable = staticmethod(repr)
    # exact primitive set (list of elements) where the instance has one
    primitive_set: Optional[Callable] = None
    # produce some y with x <= y, for comparable-pair sampling
    upward: Optional[Callable] = None  # (Element, random.Random) -> Element
    # axiom ids whose laws reduce to exact arithmetic identities for this
    # instance; checkAxioms reports Proven instead of Unfalsified there
    exactly_verified: frozenset = frozenset()

    def eq(self, a, b) -> bool:
        return a == b

    def comparable_pairs(self, seed: int, count: int):
        """Sampled pairs (x, y) with x <= y."""
        rng = random.Random(seed)
        xs = self.sample(subseed(seed, "cmp"), count)
        pairs = []
        for x in xs:
            pairs.append((self.primitive_witness(x), x))
            if self.upward is not None:
                y = self.upward(x, rng)
                if self.leq(x, y):
                    pairs.append((x, y))
            else:
                pairs.append((x, x))
            if len(pairs) >= count:
                break
        # opportunistic comparable pairs among distinct samples
        for i, x in enumerate(xs):
            for y in xs[i + 1:]:
                if self.leq(x, y):
                    pairs.append((x, y))
                elif self.leq(y, x):
                    pairs.append((y, x))
                if len(pairs) >= 2 * count:
                    return pairs[:2 * count]
        return pairs


def _scalar_tuples(E: EvsDescriptor, k: int, count: int, seed: int):
    return sc.sample_scalar_tuples(k, count, seed, E.scalar_mode)


def check_axioms(E: EvsDescriptor, budget: int, seed: int) -> dict:
    """Per-axiom verdicts for A1-A6 on sampled elements and scalars."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    out = {}
    for axiom_id, checker in _AXIOM_CHECKERS:
        s = subseed(seed, f"axioms:{axiom_id}:{E.name}")
        outcome = checker(E, budget, s)
        if outcome.verdict == "Unfalsified" and axiom_id in E.exactly_verified:
            outcome = proven(
                f"exact arithmetic identity for {E.name}",
                samples=outcome.samples_tried, seed=s)
        out[axiom_id] = outcome
    return out


def _wit(E, **kw):
    w = {}
    for key, val in kw.items():
        if isinstance(val, sc.Scalar):
            w[key] = sc.render_scalar(val)
            w["_raw_" + key] = val
        else:
            w[key] = E.render(val)
            w["_raw_" + key] = val
    return w


def _check_a1_assoc(E, budget, seed):
    n = per_variable_budget(budget, 3)
    xs = E.sample(subseed(seed, "x"), n)
    ys = E.sample(subseed(seed, "y"), n)
    zs = E.sample(subseed(seed, "z"), n)
    tried = 0
    for x in xs:
        for y in ys:
            for z in zs:
                tried += 1
                if not E.eq(E.add(E.add(x, y), z), E.add(x, E.add(y, z))):
                    return refuted(_wit(E, x=x, y=y, z=z), tried, seed,
                                   "(x+y)+z != x+(y+z)")
    return unfalsified(tried, seed)


def _check_a1_comm(E, budget, seed):
    n = per_variable_budget(budget, 2)
    xs = E.sample(subseed(seed, "x"), n)
    ys = E.sample(subseed(seed, "y"), n)
    tried = 0
    for x in xs:
        for y in ys:
            tried += 1
            if not E.eq(E.add(x, y), E.add(y, x)):
                return refuted(_wit(E, x=x, y=y), tried, seed, "x+y != y+x")
    return unfalsified(tried, seed)


def _check_a1_id(E, budget, seed):
    xs = E.sample(subseed(seed, "x"), per_variable_budget(budget, 1))
    tried = 0
    for x in xs:
        tried += 1
        if not E.eq(E.add(x, E.zero), x):
            return refuted(_wit(E, x=x), tried, seed, "x+theta != x")
    return unfalsified(tried, seed)


def _check_a2_add(E, budget, seed):
    n = per_variable_budget(budget, 2)
    pairs = E.comparable_pairs(subseed(seed, "pairs"), n)
    zs = E.sample(subseed(seed, "z"), n)
    tried = 0
    for x, y in pairs:
        for z in zs:
            tried += 1
            if not E.leq(E.add(x, z), E.add(y, z)):
                return refuted(_wit(E, x=x, y=y, z=z), tried, seed,
                               "x<=y but x+z !<= y+z")
    return unfalsified(tried, seed)


def _check_a2_scale(E, budget, seed):
    n = per_variable_budget(budget, 2)
    pairs = E.comparable_pairs(subseed(seed, "pairs"), n)
    alphas = [t[0] for t in _scalar_tuples(E, 1, n, subseed(seed, "alpha"))]
    tried = 0
    for x, y in pairs:
        for a in alphas:
            tried += 1
            if not E.leq(E.scale(a, x), E.scale(a, y)):
                return refuted(_wit(E, x=x, y=y, alpha=a), tried, seed,
                               "x<=y but a.x !<= a.y")
    return unfalsified(tried, seed)


def _check_a3_i(E, budget, seed):
    n = per_variable_budget(budget, 3)
    alphas = [t[0] for t in _scalar_tuples(E, 1, n, subseed(seed, "alpha"))]
    xs = E.sample(subseed(seed, "x"), n)
    ys = E.sample(subseed(seed, "y"), n)
    tried = 0
    for a in alphas:
        for x in xs:
            for y in ys:
                tried += 1
                lhs = E.scale(a, E.add(x, y))
                rhs = E.add(E.scale(a, x), E.scale(a, y))
                if not E.eq(lhs, rhs):
                    return refuted(_wit(E, alpha=a, x=x, y=y), tried, seed,
                                   "a.(x+y) != a.x + a.y")
    return unfalsified(tried, seed)


def _check_a3_ii(E, budget, seed):
    n = per_variable_budget(budget, 3)
    tuples = _scalar_tuples(E, 2, n * n, subseed(seed, "ab"))
    xs = E.sample(subseed(seed, "x"), n)
    tried = 0
    for a, b in tuples:
        for x in xs:
            tried += 1
            if not E.eq(E.scale(a, E.scale(b, x)), E.scale(a * b, x)):
                return refuted(_wit(E, alpha=a, beta=b, x=x), tried, seed,
                               "a.(b.x) != (ab).x")
    return unfalsified(tried, seed)


def _check_a3_iii(E, budget, seed):
    n = per_variable_budget(budget, 3)
    tuples = _scalar_tuples(E, 2, n * n, subseed(seed, "ab"))
    xs = E.sample(subseed(seed, "x"), n)
    tried = 0
    for a, b in tuples:
        for x in xs:
            tried += 1
            lhs = E.scale(a + b, x)
            rhs = E.add(E.scale(a, x), E.scale(b, x))
            if not E.leq(lhs, rhs):
                return refuted(_wit(E, alpha=a, beta=b, x=x), tried, seed,
                               "(a+b).x !<= a.x + b.x")
    return unfalsified(tried, seed)


def _check_a3_iv(E, budget, seed):
    xs = E.sample(subseed(seed, "x"), per_variable_budget(budget, 1))
    tried = 0
    for x in xs:
        tried += 1
        if not E.eq(E.scale(sc.S_ONE, x), x):
            return refuted(_wit(E, x=x), tried, seed, "1.x != x")
    return unfalsified(tried, seed)


def _check_a4(E, budget, seed):
    n = per_variable_budget(budget, 2)
    alphas = [t[0] for t in _scalar_tuples(E, 1, n, subseed(seed, "alpha"))]
    xs = E.sample(subseed(seed, "x"), n)
    tried = 0
    for a in alphas:
        for x in xs:
            tried += 1
            is_theta = E.eq(E.scale(a, x), E.zero)
            should = a.is_zero() or E.eq(x, E.zero)
            if is_theta != should:
                return refuted(_wit(E, alpha=a, x=x), tried, seed,
                               "a.x=theta fails iff (a=0 or x=theta)")
    return unfalsified(tried, seed)


def _check_a5(E, budget, seed, forward: bool):
    xs = E.sample(subseed(seed, "x"), per_variable_budget(budget, 1))
    tried = 0
    for x in xs:
        prim = E.is_primitive(x)
        if prim != forward:
            continue
        tried += 1
        inv_sum = E.add(x, E.scale(sc.S_MINUS_ONE, x))
        if forward and not E.eq(inv_sum, E.zero):
            return refuted(_wit(E, x=x), tried, seed,
                           "x primitive but x+(-1).x != theta")
        if not forward and E.eq(inv_sum, E.zero):
            return refuted(_wit(E, x=x), tried, seed,
                           "x not primitive but x+(-1).x = theta")
    return unfalsified(tried, seed)


def _check_a6(E, budget, seed):
    xs = E.sample(subseed(seed, "x"), per_variable_budget(budget, 1))
    tried = 0
    for x in xs:
        tried += 1
        p = E.primitive_witness(x)
        if not (E.is_primitive(p) and E.leq(p, x)):
            return refuted(_wit(E, x=x, p=p), tried, seed,
                           "primitive witness invalid")
    return unfalsified(tried, seed)


_AXIOM_CHECKERS = (
    ("A1.assoc", _check_a1_assoc),
    ("A1.comm", _check_a1_comm),
    ("A1.id", _check_a1_id),
    ("A2.add", _check_a2_add),
    ("A2.scale", _check_a2_scale),
    ("A3.i", _check_a3_i),
    ("A3.ii", _check_a3_ii),
    ("A3.iii", _check_a3_iii),
    ("A3.iv", _check_a3_iv),
    ("A4", _check_a4),
    ("A5.fwd", lambda E, b, s: _check_a5(E, b, s, True)),
    ("A5.bwd", lambda E, b, s: _check_a5(E, b, s, False)),
    ("A6", _check_a6),
)


def primitive_samples(E: EvsDescriptor, x, budget: int, seed: int):
    """Primitives p with p <= x; exact where the instance supplies them."""
    if E.primitive_set is not None:
        return list(E.primitive_set(x))
    found = [E.primitive_witness(x)]
    for p in E.sample(subseed(seed, "prim"), budget):
        if E.is_primitive(p) and E.leq(p, x):
            if not any(E.eq(p, q) for q in found):
                found.append(p)
    return found


def check_primitive_scaling(E: EvsDescriptor, budget: int,
                            seed: int) -> CheckOutcome:
    """P_{a.x} = a.P_x on sampled x and admissible a."""
    n = per_variable_budget(budget, 2)
    xs = E.sample(subseed(seed, "x"), n)
    alphas = [t[0] for t in _scalar_tuples(E, 1, n, subseed(seed, "alpha"))]
    tried = 0
    exact = E.primitive_set is not None
    for x in xs:
        px = primitive_samples(E, x, n, subseed(seed, "px"))
        for a in alphas:
            tried += 1
            ax = E.scale(a, x)
            pax = primitive_samples(E, ax, n, subseed(seed, "pax"))
            scaled = [E.scale(a, p) for p in px]
            fwd = all(any(E.eq(s, q) for q in pax) for s in scaled)
            bwd = all(any(E.eq(q, s) for s in scaled) for q in pax) if exact \
                else True
            if not (fwd and bwd):
                return refuted(_wit(E, x=x, alpha=a), tried, seed,
                               "P_{a.x} != a.P_x")
    if exact:
        return proven("exact primitive sets compared on all samples",
                      tried, seed)
    return unfalsified(tried, seed)


def check_order_morphism(f: Callable, E_X: EvsDescriptor, E_Y: EvsDescriptor,
                         budget: int, seed: int) -> CheckOutcome:
    """Additivity, homogeneity, monotonicity and the preimage conditions."""
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
                return refuted(_wit(E_X, x=x, y=y), tried, seed,
                               "f(x+y) != f(x)+f(y)")
    for x in xs:
        for a in alphas:
            tried += 1
            if not E_Y.eq(f(E_X.scale(a, x)), E_Y.scale(a, f(x))):
                return refuted(
                    {"x": E_X.render(x), "alpha": sc.render_scalar(a)},
                    tried, seed, "f(a.x) != a.f(x)")
    for x, y in E_X.comparable_pairs(subseed(seed, "pairs"), n):
        tried += 1
        if not E_Y.leq(f(x), f(y)):
            return refuted(_wit(E_X, x=x, y=y), tried, seed,
                           "x<=y but f(x) !<= f(y)")
    # preimage conditions on sampled pools
    pool = E_X.sample(subseed(seed, "pool"), 2 * n)
    images = [f(x) for x in pool]
    # the sampled preimage of each pool point's image, built once
    pre = [[x for x, fx in zip(pool, images) if E_Y.eq(fx, p)]
           for p in images]
    for i, p in enumerate(images):
        for j, q in enumerate(images):
            if i == j or not E_Y.leq(p, q):
                continue
            pre_p, pre_q = pre[i], pre[j]
            for x in pre_p:
                tried += 1
                if not any(E_X.leq(x, y) for y in pre_q):
                    return refuted(
                        {"p": E_Y.render(p), "q": E_Y.render(q),
                         "x": E_X.render(x)}, tried, seed,
                        "x in f^-1(p) not below any found member of f^-1(q)")
            for y in pre_q:
                tried += 1
                if not any(E_X.leq(x, y) for x in pre_p):
                    return refuted(
                        {"p": E_Y.render(p), "q": E_Y.render(q),
                         "y": E_X.render(y)}, tried, seed,
                        "y in f^-1(q) not above any found member of f^-1(p)")
    return unfalsified(tried, seed)


def check_subevs(E: EvsDescriptor, member_of_y: Callable, budget: int,
                 seed: int) -> CheckOutcome:
    """Closure a.x+y in Y, Y0 within X0, and primitives below each y."""
    n = per_variable_budget(budget, 3)
    pool = [x for x in E.sample(subseed(seed, "pool"), 6 * n * n)
            if member_of_y(x)]
    if not pool:
        return unfalsified(0, seed, "no sampled elements of Y")
    alphas = [t[0] for t in _scalar_tuples(E, 1, n, subseed(seed, "alpha"))]
    tried = 0
    for a in alphas:
        for x in pool[:n]:
            for y in pool[:n]:
                tried += 1
                z = E.add(E.scale(a, x), y)
                if not member_of_y(z):
                    return refuted(_wit(E, alpha=a, x=x, y=y, escaped=z),
                                   tried, seed, "a.x+y left Y")
    # minimality cross-check: an element of Y minimal among samples of Y
    # but strictly above some sampled Y element would violate Y0 <= X0
    for z in pool:
        tried += 1
        if E.is_primitive(z):
            continue
        below = [y for y in pool if not E.eq(y, z) and E.leq(y, z)]
        # z not primitive in X: some primitive of Y below z must exist
        # for condition (iii); search witness + sampled primitives
        candidates = [p for p in below if E.is_primitive(p)]
        w = E.primitive_witness(z)
        if member_of_y(w):
            candidates.append(w)
        if not candidates:
            return refuted(
                _wit(E, y=z), tried, seed,
                "no primitive of Y found below sampled y "
                "(witness not in Y, no sampled primitive below)")
    return unfalsified(tried, seed)


def product_evs(parts: Sequence[EvsDescriptor]) -> EvsDescriptor:
    """Finite product with componentwise operations and order."""
    parts = list(parts)
    if not parts:
        raise ValueError("product of no parts")
    mode = sc.PYTHAGOREAN_ONLY if any(
        p.scalar_mode == sc.PYTHAGOREAN_ONLY for p in parts) else sc.ANY_SCALAR

    def sample(seed, count):
        cols = [p.sample(subseed(seed, f"part{i}"), count)
                for i, p in enumerate(parts)]
        return [tuple(col[j] for col in cols) for j in range(count)]

    def upward(x, rng):
        return tuple(
            p.upward(xi, rng) if p.upward is not None else xi
            for p, xi in zip(parts, x))

    prim_set = None
    if all(p.primitive_set is not None for p in parts):
        def prim_set(x):
            from itertools import product as iproduct
            factor_sets = [p.primitive_set(xi) for p, xi in zip(parts, x)]
            return [tuple(t) for t in iproduct(*factor_sets)]

    return EvsDescriptor(
        name="product(" + ",".join(p.name for p in parts) + ")",
        element_kind="product",
        zero=tuple(p.zero for p in parts),
        add=lambda x, y: tuple(p.add(a, b) for p, a, b in zip(parts, x, y)),
        scale=lambda l, x: tuple(p.scale(l, a) for p, a in zip(parts, x)),
        leq=lambda x, y: all(p.leq(a, b) for p, a, b in zip(parts, x, y)),
        is_primitive=lambda x: all(
            p.is_primitive(a) for p, a in zip(parts, x)),
        primitive_witness=lambda x: tuple(
            p.primitive_witness(a) for p, a in zip(parts, x)),
        sample=sample,
        scalar_mode=mode,
        exact_sets=("ProductCylinder",),
        render=lambda x: "(" + ", ".join(
            p.render(a) for p, a in zip(parts, x)) + ")",
        primitive_set=prim_set,
        upward=upward,
    )
