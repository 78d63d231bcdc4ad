"""Generic evs interface, the axiom suite and structural checkers.

An EvsDescriptor bundles one concrete exponential-vector-space instance:
its operations, order, exact primitive structure and a seeded sampler.
The checkers in this module quantify over sampled elements and scalars.
The axioms A1-A6 and primitive scaling are rows over
``outcome.check_law``; a Refuted verdict always carries a witness, raw
entries included, that re-evaluates to a violation, and Proven is only
reported for laws an instance has flagged as exactly verified.
"""

import random
from dataclasses import dataclass
from itertools import product, starmap
from operator import add, mul
from typing import Callable, Sequence

from . import scalars as sc
from .outcome import (CheckOutcome, check_law, per_variable_budget, refuted,
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
    sample: Callable  # (seed, count) -> list of Element
    scalar_mode: str  # sc.ANY_SCALAR or sc.PYTHAGOREAN_ONLY
    render: Callable  # Element -> str
    # the exact P_x: the list of all primitives p <= x
    primitive_set: Callable
    # produce some y with x <= y, for comparable-pair sampling
    upward: Callable  # (Element, random.Random) -> Element
    # the one optional field: axiom ids whose laws reduce to exact
    # arithmetic identities for this instance; checkAxioms reports
    # Proven instead of Unfalsified there
    exactly_verified: frozenset = frozenset()

    def eq(self, a, b) -> bool:
        return a == b

    def comparable_pairs(self, seed: int, count: int):
        """Sampled pairs (x, y) with x <= y."""
        rng = random.Random(seed)
        xs = self.sample(subseed(seed, "cmp"), count)
        pairs = []
        for x in xs:
            pairs.append((self.primitive_set(x)[0], x))
            y = self.upward(x, rng)
            if self.leq(x, y):
                pairs.append((x, y))
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
    """Per-axiom verdicts for A1-A6 on sampled elements and scalars: each
    row of ``_axiom_laws`` is one ``check_law`` run under its own subseed,
    Proven where the instance flags the axiom as exactly verified."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    out = {}
    for axiom_id, arity, cases, holds, keys, detail in _axiom_laws(E):
        s = subseed(seed, f"axioms:{axiom_id}:{E.name}")
        out[axiom_id] = check_law(
            cases(per_variable_budget(budget, arity), s), holds,
            _wit(E, *keys), detail, s,
            f"exact arithmetic identity for {E.name}"
            if axiom_id in E.exactly_verified else None)
    return out


def _wit(E, *keys):
    """Witness function: a case's leading entries rendered under ``keys``,
    each also kept raw under ``_raw_<key>`` for re-evaluation."""
    def build(*case):
        w = {}
        for key, val in zip(keys, case):
            w[key] = (sc.render_scalar(val) if isinstance(val, sc.Scalar)
                      else E.render(val))
            w["_raw_" + key] = val
        return w
    return build


def _axiom_laws(E: EvsDescriptor) -> tuple:
    """The axiom suite, one row per id: ``(id, arity, cases(n, s), holds,
    keys, detail)``.  ``cases`` draws ``n`` samples per variable under
    the subseed ``s``; each draw is a list of tuples, built once, and a
    case joins one tuple of each draw in nested-loop order.

    A case carries its keyed entries first and then the objects its law
    builds from fewer than all of them, each built once for the entries
    it depends on: ``A1.assoc`` holds ``(x, y, z, x+y, y+z)``, ``A3.i``
    ``(a, x, y, x+y, a.x, a.y)``, ``A3.ii`` ``(a, b, x, ab)`` and
    ``A3.iii`` ``(a, b, x, a+b)``.  Witnesses read only the keyed
    entries, so they are those of the law without the hoisted ones."""
    def grid(*draws):
        def cases(n, s):
            joined, *rest = [d(n, s) for d in draws]
            for more in rest:
                joined = starmap(add, product(joined, more))
            return joined
        return cases

    def sample(n, s, var):
        return E.sample(subseed(s, var), n)

    def elements(var):
        return lambda n, s: [(x,) for x in sample(n, s, var)]

    def alphas(n, s):
        return _scalar_tuples(E, 1, n, subseed(s, "alpha"))

    def alpha_betas(n, s):
        return _scalar_tuples(E, 2, n * n, subseed(s, "ab"))

    def pairs(n, s):
        return E.comparable_pairs(subseed(s, "pairs"), n)

    def primitive(forward):
        return lambda n, s: ((x,) for x in sample(n, s, "x")
                             if E.is_primitive(x) == forward)

    def assoc_cases(n, s):
        xs, ys, zs = sample(n, s, "x"), sample(n, s, "y"), sample(n, s, "z")
        yzs = [[E.add(y, z) for z in zs] for y in ys]
        return ((x, y, z, xy, yz) for x in xs
                for y, yz_row in zip(ys, yzs) for xy in [E.add(x, y)]
                for z, yz in zip(zs, yz_row))

    def distributive_cases(n, s):
        lams = [t[0] for t in alphas(n, s)]
        xs, ys = sample(n, s, "x"), sample(n, s, "y")
        xys = [[E.add(x, y) for y in ys] for x in xs]
        return ((a, x, y, xy, ax, ay) for a in lams
                for ays in [[E.scale(a, y) for y in ys]]
                for x, xy_row in zip(xs, xys) for ax in [E.scale(a, x)]
                for y, xy, ay in zip(ys, xy_row, ays))

    def scalar_pair_cases(op):
        def cases(n, s):
            abcs = [(a, b, op(a, b)) for a, b in alpha_betas(n, s)]
            xs = sample(n, s, "x")
            return ((a, b, x, ab) for a, b, ab in abcs for x in xs)
        return cases

    def inverse_sum_is_theta(x):
        return E.eq(E.add(x, E.scale(sc.S_MINUS_ONE, x)), E.zero)

    xs, ys, zs = elements("x"), elements("y"), elements("z")
    return (
        ("A1.assoc", 3, assoc_cases,
         lambda x, y, z, xy, yz: E.eq(E.add(xy, z), E.add(x, yz)),
         ("x", "y", "z"), "(x+y)+z != x+(y+z)"),
        ("A1.comm", 2, grid(xs, ys),
         lambda x, y: E.eq(E.add(x, y), E.add(y, x)),
         ("x", "y"), "x+y != y+x"),
        ("A1.id", 1, grid(xs),
         lambda x: E.eq(E.add(x, E.zero), x), ("x",), "x+theta != x"),
        ("A2.add", 2, grid(pairs, zs),
         lambda x, y, z: E.leq(E.add(x, z), E.add(y, z)),
         ("x", "y", "z"), "x<=y but x+z !<= y+z"),
        ("A2.scale", 2, grid(pairs, alphas),
         lambda x, y, a: E.leq(E.scale(a, x), E.scale(a, y)),
         ("x", "y", "alpha"), "x<=y but a.x !<= a.y"),
        ("A3.i", 3, distributive_cases,
         lambda a, x, y, xy, ax, ay: E.eq(E.scale(a, xy), E.add(ax, ay)),
         ("alpha", "x", "y"), "a.(x+y) != a.x + a.y"),
        ("A3.ii", 3, scalar_pair_cases(mul),
         lambda a, b, x, ab: E.eq(E.scale(a, E.scale(b, x)), E.scale(ab, x)),
         ("alpha", "beta", "x"), "a.(b.x) != (ab).x"),
        ("A3.iii", 3, scalar_pair_cases(add),
         lambda a, b, x, a_b: E.leq(E.scale(a_b, x),
                                    E.add(E.scale(a, x), E.scale(b, x))),
         ("alpha", "beta", "x"), "(a+b).x !<= a.x + b.x"),
        ("A3.iv", 1, grid(xs),
         lambda x: E.eq(E.scale(sc.S_ONE, x), x), ("x",), "1.x != x"),
        ("A4", 2, grid(alphas, xs),
         lambda a, x: E.eq(E.scale(a, x), E.zero) == (
             a.is_zero() or E.eq(x, E.zero)),
         ("alpha", "x"), "a.x=theta fails iff (a=0 or x=theta)"),
        # A5 counts only the samples on its side of the primitive split
        ("A5.fwd", 1, primitive(True), inverse_sum_is_theta,
         ("x",), "x primitive but x+(-1).x != theta"),
        ("A5.bwd", 1, primitive(False),
         lambda x: not inverse_sum_is_theta(x),
         ("x",), "x not primitive but x+(-1).x = theta"),
        ("A6", 1, lambda n, s: ((x, E.primitive_set(x)[0])
                                for x in sample(n, s, "x")),
         lambda x, p: E.is_primitive(p) and E.leq(p, x),
         ("x", "p"), "primitive witness invalid"),
    )


def check_primitive_scaling(E: EvsDescriptor, budget: int,
                            seed: int) -> CheckOutcome:
    """P_{a.x} = a.P_x on sampled x and admissible a, comparing the
    exact primitive sets both ways."""
    n = per_variable_budget(budget, 2)
    xs = E.sample(subseed(seed, "x"), n)
    alphas = [t[0] for t in _scalar_tuples(E, 1, n, subseed(seed, "alpha"))]

    def holds(x, a, px):
        pax = E.primitive_set(E.scale(a, x))
        scaled = [E.scale(a, p) for p in px]
        fwd = all(any(E.eq(s, q) for q in pax) for s in scaled)
        bwd = all(any(E.eq(q, s) for s in scaled) for q in pax)
        return fwd and bwd

    # P_x is found once per x, when the walk reaches it
    return check_law(
        ((x, a, px) for x in xs for px in [E.primitive_set(x)]
         for a in alphas),
        holds, _wit(E, "x", "alpha"), "P_{a.x} != a.P_x", seed,
        "exact primitive sets compared on all samples")


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
    # f is called once per sample, not once per partner
    fxs = [f(x) for x in xs]
    fys = [f(y) for y in ys]
    tried = 0
    for x, fx in zip(xs, fxs):
        for y, fy in zip(ys, fys):
            tried += 1
            if not E_Y.eq(f(E_X.add(x, y)), E_Y.add(fx, fy)):
                return refuted(_wit(E_X, "x", "y")(x, y), tried, seed,
                               "f(x+y) != f(x)+f(y)")
    for x, fx in zip(xs, fxs):
        for a in alphas:
            tried += 1
            if not E_Y.eq(f(E_X.scale(a, x)), E_Y.scale(a, fx)):
                return refuted(_wit(E_X, "x", "alpha")(x, a), tried, seed,
                               "f(a.x) != a.f(x)")
    for x, y in E_X.comparable_pairs(subseed(seed, "pairs"), n):
        tried += 1
        if not E_Y.leq(f(x), f(y)):
            return refuted(_wit(E_X, "x", "y")(x, y), tried, seed,
                           "x<=y but f(x) !<= f(y)")
    # preimage conditions on sampled pools
    pool = E_X.sample(subseed(seed, "pool"), 2 * n)
    images = [f(x) for x in pool]
    # equal images form one class, whose sampled preimage is built once
    reps, pre, cls = [], [], []
    for x, fx in zip(pool, images):
        for c, r in enumerate(reps):
            if E_Y.eq(fx, r):
                break
        else:
            c = len(reps)
            reps.append(fx)
            pre.append([])
        pre[c].append(x)
        cls.append(c)
    # samples a pair of classes adds once it has passed, 0 if not ordered
    settled = {}
    for i, p in enumerate(images):
        for j, q in enumerate(images):
            if i == j:
                continue
            key = cls[i], cls[j]
            if key in settled:
                tried += settled[key]
                continue
            pre_p, pre_q = pre[key[0]], pre[key[1]]
            if not E_Y.leq(p, q):
                settled[key] = 0
                continue
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
            settled[key] = len(pre_p) + len(pre_q)
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
        return list(zip(*cols))

    def upward(x, rng):
        return tuple(p.upward(xi, rng) for p, xi in zip(parts, x))

    def leq(x, y):
        for p, a, b in zip(parts, x, y):
            if not p.leq(a, b):
                return False
        return True

    def primitive_set(x):
        factor_sets = [p.primitive_set(xi) for p, xi in zip(parts, x)]
        return [tuple(t) for t in product(*factor_sets)]

    return EvsDescriptor(
        name="product(" + ",".join(p.name for p in parts) + ")",
        element_kind="product",
        zero=tuple(p.zero for p in parts),
        add=lambda x, y: tuple([p.add(a, b) for p, a, b in zip(parts, x, y)]),
        scale=lambda l, x: tuple([p.scale(l, a) for p, a in zip(parts, x)]),
        leq=leq,
        is_primitive=lambda x: all(
            p.is_primitive(a) for p, a in zip(parts, x)),
        sample=sample,
        scalar_mode=mode,
        render=lambda x: "(" + ", ".join(
            p.render(a) for p, a in zip(parts, x)) + ")",
        primitive_set=primitive_set,
        upward=upward,
    )
