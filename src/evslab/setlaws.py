"""Closure laws for absorbing/balanced sets, radial separation, and
transport of set verdicts along order-isomorphisms.

Every corpus law, here and in ``topology``, is one ``outcome.check_law``
row: a lazy stream of cases, a predicate that must hold on each and a
``rendered`` witness of the case's sets.  The closure
drivers generate random exact sets, filter them through the exact
deciders, apply each construction and re-decide.  The radial, product,
hereditary and transport checks are ``check_law`` runs too, over
distinct sampled pairs, with one predicate, ``_separates``: the pair's
exact separator holds exactly one point and is exactly absorbing.  The
separators replay the constructions of the source material on the half
line, the dictionary plane and the cone; radiality on the subspace
lattice is refuted from the exact absorbing characterisation.  A trace
on a subevs absorbs there because its separator absorbs in the whole
space, a lemma, not a sampled grid.
"""

import random
from functools import partial
from typing import Callable, NamedTuple, Sequence

from . import scalars as sc
from ._backend import rat
from .core import EvsDescriptor, product_evs
from .instances import (FULL_SUBSPACE, ZERO_SUBSPACE, OrderIso,
                        _require_interval_support, has_interval_sets)
from .outcome import (PAIR_CAP, CheckOutcome, check_law, refuted, rendered,
                      subseed, unfalsified)

_CLOSURE_PROVEN = "exact deciders re-verified every constructed set"


# The laws and separators that build sets import ``sets`` when called,
# so that a radial check with no separator to build loads no set module.

def _random_corpus(budget: int, seed: int, pred) -> list:
    from . import sets as st

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
    return _closure_laws(E, budget, seed, "absorbing", "an", "abs", 3, True)


def check_balanced_closure_laws(E: EvsDescriptor, budget: int,
                                seed: int) -> dict:
    """Laws (i)-(v) for balanced sets, with |lambda| arbitrary in (v)."""
    return _closure_laws(E, budget, seed, "balanced", "a", "bal", 4, False)


def _closure_laws(E: EvsDescriptor, budget: int, seed: int, prop: str,
                  article: str, tag: str, radius: int, upward: bool) -> dict:
    """Rows ``<prop>.i``-``.v`` on random interval unions that
    ``sets.is_<prop>`` proves, looked up here so that a rebound decider
    is the one called: each holds theta (i), so their intersections,
    unions, up/down images and scalings (|lambda| <= ``radius``) must be
    nonempty and have ``prop`` (ii)-(v).  An ``upward`` property holds
    for every superset and nonzero scaling, so its (iii) joins a corpus
    set with any set and its (v) skips 0.  ``tag`` names the subseeds."""
    from . import sets as st

    _require_interval_support(E)
    decide = getattr(st, "is_" + prop)
    n = max(4, budget // 10)
    corpus = _random_corpus(n, subseed(seed, f"{tag}:gen"),
                            lambda A: decide(A).proven)
    partners = extras = corpus[:PAIR_CAP]
    lams = sc.sample_scalars(rat(radius), 8, subseed(seed, f"{tag}:lam"))
    one = f"{article} {prop} set"
    union, scaling = f"union of {prop} sets", f"scaling of {one}"
    if upward:
        extras = _random_corpus(min(n, PAIR_CAP), subseed(seed, f"{tag}:any"),
                                lambda A: True)
        lams = [lam for lam in lams if not lam.is_zero()]
        union, scaling = f"superset of {one}", f"nonzero {scaling}"
    rows = (
        ("ii", ((A, B, st.iu_intersect(A, B))
                for A in corpus for B in partners),
         ("A", "B", "A&B"), f"intersection of {prop} sets"),
        ("iii", ((A, B, st.iu_union(A, B)) for A in corpus for B in extras),
         ("A", "B", "AuB"), union),
        ("iv", ((A, img) for A in corpus
                for img in (st.iu_up(A), st.iu_down(A))),
         ("A", "image"), f"up/down image of {one}"),
        ("v", ((A, lam, st.scale_set(lam, A))
               for A in corpus for lam in lams),
         ("A", "lambda", "lamA"), scaling),
    )

    def has_prop(*case) -> bool:
        return not case[-1].is_empty() and decide(case[-1]).proven

    law = partial(check_law, seed=seed, proven_detail=_CLOSURE_PROVEN)
    return {
        f"{prop}.i": law(((A,) for A in corpus), lambda A: A.contains_zero(),
                         rendered("set"), f"{prop} set without theta"),
        **{f"{prop}.{row}": law(cases, has_prop, rendered(*keys),
                                f"{detail} not {prop}")
           for row, cases, keys, detail in rows},
    }


# ------------------------------------------------------------------ radial

def radial_separator(E: EvsDescriptor, x, y):
    """An exactly absorbing set containing exactly one of x != y.

    Implements the separating constructions for the half line, the
    dictionary plane and the cone product (``_SEPARATORS``); raises
    ValueError for any other kind, the subspace lattice (not radial) and
    products (see ``product_cylinder_separator``) included.
    """
    if E.eq(x, y):
        raise ValueError("separation needs two distinct points")
    kind = E.element_kind
    if kind == "product":
        raise ValueError("use product_cylinder_separator for products")
    if kind == "lattice2":
        raise ValueError("the subspace lattice is not radial")
    if kind not in _SEPARATORS:
        raise ValueError(f"no exact separator construction for {E.name}")
    return _SEPARATORS[kind](E, x, y)


def _halfline_separator(E: EvsDescriptor, x, y):
    from . import sets as st

    return st.iu((0, (x + y) / 2))


def _dict2_separator(E: EvsDescriptor, x, y):
    from . import sets as st

    (x1, y1), (x2, y2) = x, y
    if x1 != x2:
        # keep the point with the smaller first coordinate
        keep = x if x1 < x2 else y
        r = (x1 + x2) / 2
        return st.box_union([st.box(r, keep[1] + 1)])
    # same first coordinate: cut between the y values
    cut = (y1 + y2) / 2
    return st.box_union([st.box(x1 + 1, cut)])


def _cone_separator(E: EvsDescriptor, x, y):
    """Absorbing slice containing x but not y (or the other way around):
    a basic [0,s) x ball(t) avoiding one point, with the kept point
    adjoined if needed."""
    from . import sets as st

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


# the element kinds with an exact separator construction
_SEPARATORS = {
    "halfline": _halfline_separator,
    "dict2": _dict2_separator,
    "cone": _cone_separator,
}


def _distinct_pairs(E: EvsDescriptor, xs, ys) -> list:
    return [(x, y) for x, y in zip(xs, ys) if not E.eq(x, y)]


def _separates(A, x, y, base=None) -> bool:
    """A holds exactly one of x and y, and ``st.is_absorbing(A)`` is
    Proven.  A set built from a separator, a product cylinder over it or
    its trace on a subevs, passes that separator as ``base``: base's
    absorbency is decided, and the construction's lemma carries it to
    A."""
    from . import sets as st

    return (st.set_member(A, x) != st.set_member(A, y)
            and st.is_absorbing(A if base is None else base).proven)


class _Clauses(NamedTuple):
    """How a refuted separation case ``(A, x, y, ...)`` reads: the
    points' renderer, A's witness key and the detail of each clause of
    ``_separates``."""
    render: Callable
    key: str
    not_separated: str
    not_absorbing: str

    def witness(self, A, x, y, *_) -> dict:
        return {"x": self.render(x), "y": self.render(y),
                self.key: A.render(), "_raw": (x, y, A)}

    def detail(self, A, x, y, *_) -> str:
        from . import sets as st

        return self.not_separated if st.set_member(A, x) == \
            st.set_member(A, y) else self.not_absorbing


def check_radial(E: EvsDescriptor, budget: int, seed: int) -> CheckOutcome:
    """Per-pair separation on sampled distinct pairs.  A kind without a
    separator construction ends Unfalsified; the subspace lattice is
    Refuted from its exact absorbing characterisation."""
    n = max(4, budget // 4)
    if E.element_kind == "lattice2":
        x, y = ZERO_SUBSPACE, FULL_SUBSPACE
        return refuted(
            {"x": E.render(x), "y": E.render(y), "_raw": (x, y)}, n, seed,
            "the only absorbing family is the whole lattice, which "
            "contains both points of every pair")
    pairs = _distinct_pairs(E, E.sample(subseed(seed, "rad:x"), n),
                            E.sample(subseed(seed, "rad:y"), n))
    if E.element_kind not in _SEPARATORS or not pairs:
        return unfalsified(len(pairs), seed)
    how = _Clauses(E.render, "set", "separator failed to separate",
                   "separator is not absorbing")
    return check_law(
        ((radial_separator(E, x, y), x, y) for x, y in pairs), _separates,
        how.witness, how.detail, seed,
        f"exact separators for all {len(pairs)} sampled pairs")


def product_cylinder_separator(parts: Sequence[EvsDescriptor], x, y):
    """The productive-proof construction: a cylinder that is the whole
    space in every coordinate except one, where a separator sits."""
    from . import sets as st

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

    A product pair is separated by a cylinder over one factor's
    separator, and a cylinder absorbs iff its factor does.
    ``subevs_specs`` is a list of (E, sample_y, trace) triples:
    ``sample_y`` draws members of the subevs Y and ``trace`` maps a
    separator A of E to A & Y.  A pair of Y is separated by the trace
    of its separator in E, whose absorbency is decided exactly in E:
    Y is closed under the action, so an A that absorbs every z of E
    absorbs it within A & Y when z is in Y.
    """
    cases = []
    if parts:
        prod = product_evs(parts)
        n = max(4, budget // 8)
        pairs = _distinct_pairs(prod, prod.sample(subseed(seed, "prod:x"), n),
                                prod.sample(subseed(seed, "prod:y"), n))
        how = _Clauses(prod.render, "cylinder", "cylinder failed to separate",
                       "cylinder factor is not absorbing")
        for x, y in pairs:
            cyl, i = product_cylinder_separator(parts, x, y)
            cases.append((cyl, x, y, cyl.factors[i], how))
    for E, sample_y, trace in subevs_specs:
        pool = sample_y(subseed(seed, "her:z"), max(8, budget // 4))
        how = _Clauses(E.render, "set",
                       "trace on the subevs failed to separate",
                       "separator is not absorbing")
        for x, y in _distinct_pairs(E, pool, pool[1:]):
            A = radial_separator(E, x, y)
            cases.append((trace(A), x, y, A, how))
    if not cases:
        return unfalsified(0, seed, "no distinct sampled pairs")
    return check_law(
        cases, lambda A, x, y, base, how: _separates(A, x, y, base),
        lambda *case: case[-1].witness(*case),
        lambda *case: case[-1].detail(*case), seed,
        f"constructions re-verified on {len(cases)} pairs")


# --------------------------------------------------------------- transport

def transport_set(phi: OrderIso, A):
    """Exact image of an endpoint-defined set under a shipped
    order-isomorphism."""
    from . import sets as st

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
    from . import sets as st

    rng = random.Random(subseed(seed, "transport"))
    sets = (st.random_interval_union(rng) for _ in range(max(4, budget)))
    images = ((A, transport_set(phi, A)) for A in sets)
    return check_law(
        ((A, image, st.is_absorbing(A).verdict,
          st.is_absorbing(phi.image_view(image)).verdict)
         for A, image in images),
        lambda A, image, before, after: before == after,
        lambda A, image, before, after: {
            "A": A.render(), "image": image.render(), "before": before,
            "after": after, "_raw": (A, image)},
        "absorbing verdict not preserved", seed,
        "exact deciders agree on both sides for every sample")


def check_radial_transport(phi: OrderIso, budget: int,
                           seed: int) -> CheckOutcome:
    """Radial verdict class is identical before and after transport:
    each pair's separator separates exactly when the separator of its
    image does."""
    E, F = phi.domain, phi.codomain
    n = max(4, budget // 4)
    pairs = _distinct_pairs(E, E.sample(subseed(seed, "rt:x"), n),
                            E.sample(subseed(seed, "rt:y"), n))
    return check_law(
        ((x, y, phi.forward(x), phi.forward(y)) for x, y in pairs),
        lambda x, y, fx, fy: (
            _separates(radial_separator(E, x, y), x, y)
            == _separates(radial_separator(F, fx, fy), fx, fy)),
        lambda x, y, *_: {"x": E.render(x), "y": E.render(y),
                          "_raw": (x, y)},
        "separability not preserved by transport", seed,
        f"verdict class preserved on {len(pairs)} pairs")
