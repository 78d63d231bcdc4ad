"""The concrete evs instances shipped with the laboratory.

All carriers are exact: the half line over non-negative rationals, the
cone product [0,oo) x K^n with modulus action, the twisted product with
action fixing the radial coordinate, the dictionary-order plane and the
lattice of linear subspaces of Q^2 in canonical echelon form.
"""

import operator
import random
from dataclasses import dataclass
from typing import Callable, Optional

from . import scalars as sc
from ._backend import ONE, ZERO, draw_int, draw_rat, rat, rat_str
from .core import AXIOM_IDS, EvsDescriptor, product_evs


def _rand_nonneg_rat(rng: random.Random, height: int = 6):
    return draw_rat(rng, 0, height, height)


def _rand_scalar(rng: random.Random, height: int = 5) -> sc.Scalar:
    a, p = draw_int(rng, -height, height), draw_int(rng, 1, height)
    if rng.random() < 0.4:
        b, q = draw_int(rng, -height, height), draw_int(rng, 1, height)
    else:
        b, q = 0, 1
    return sc.from_ints(a, p, b, q)


def _render_vec(a) -> str:
    return "(" + ", ".join(sc.render_scalar(v) for v in a) + ")"


# ---------------------------------------------------------------- half line

def half_line() -> EvsDescriptor:
    """[0,oo) with addition, action |lam|.r and the numeric order."""

    def sample(seed, count):
        rng = random.Random(seed)
        out = [ZERO, ONE, rat(1, 2)][: max(0, min(3, count))]
        while len(out) < count:
            out.append(_rand_nonneg_rat(rng))
        return out[:count]

    return EvsDescriptor(
        name="halfline",
        element_kind="halfline",
        zero=ZERO,
        add=lambda x, y: x + y,
        scale=lambda lam, r: sc.modulus(lam) * r,
        leq=lambda x, y: x <= y,
        is_primitive=lambda r: r == 0,
        sample=sample,
        scalar_mode=sc.PYTHAGOREAN_ONLY,
        render=rat_str,
        primitive_set=lambda r: [ZERO],
        upward=lambda r, rng: r + _rand_nonneg_rat(rng),
        exactly_verified=frozenset(AXIOM_IDS),
    )


# ------------------------------------------------ cone and twisted products

def _vector_product(n: int, kind: str, scale: Callable,
                    scalar_mode: str) -> EvsDescriptor:
    """[0,oo) x K^n under ``scale``, ordered on r with a fixed."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    zero_vec = tuple(sc.S_ZERO for _ in range(n))

    def sample(seed, count):
        rng = random.Random(seed)
        out = [(ZERO, zero_vec)]
        while len(out) < count:
            vec = tuple([_rand_scalar(rng, 3) for _ in range(n)])
            out.append((_rand_nonneg_rat(rng), vec))
        return out[:count]

    return EvsDescriptor(
        name=f"{kind}:{n}",
        element_kind=kind,
        zero=(ZERO, zero_vec),
        add=lambda x, y: (x[0] + y[0],
                          tuple(map(operator.add, x[1], y[1]))),
        scale=scale,
        leq=lambda x, y: x[0] <= y[0] and x[1] == y[1],
        is_primitive=lambda x: x[0] == 0,
        sample=sample,
        scalar_mode=scalar_mode,
        render=lambda x: f"({rat_str(x[0])}, {_render_vec(x[1])})",
        primitive_set=lambda x: [(ZERO, x[1])],
        upward=lambda x, rng: (x[0] + _rand_nonneg_rat(rng), x[1]),
    )


def _cone_scale(lam, x):
    r, a = x
    return (sc.modulus(lam) * r, tuple(map(lam.__mul__, a)))


def cone_product(n: int) -> EvsDescriptor:
    """[0,oo) x K^n with action (|lam|.r, lam.a), order on r with a fixed."""
    return _vector_product(n, "cone", _cone_scale, sc.PYTHAGOREAN_ONLY)


def _twisted_scale(lam, x):
    r, a = x
    if lam.is_zero():
        return (ZERO, (sc.S_ZERO,) * len(a))
    return (r, tuple(map(lam.__mul__, a)))


def twisted_product(n: int) -> EvsDescriptor:
    """[0,oo) x K^n with action (r, lam.a) for lam != 0 and 0.x = theta."""
    return _vector_product(n, "twisted", _twisted_scale, sc.ANY_SCALAR)


# ------------------------------------------------------- dictionary plane

def dict_plane() -> EvsDescriptor:
    """[0,oo)^2 under dictionary order with action |lam|.(x, y)."""

    def leq(p, q):
        return p[0] < q[0] or (p[0] == q[0] and p[1] <= q[1])

    def scale(lam, p):
        m = sc.modulus(lam)
        return (m * p[0], m * p[1])

    def sample(seed, count):
        rng = random.Random(seed)
        out = [(ZERO, ZERO), (ONE, ZERO), (ZERO, ONE)][: max(0, min(3, count))]
        while len(out) < count:
            out.append((_rand_nonneg_rat(rng), _rand_nonneg_rat(rng)))
        return out[:count]

    def upward(p, rng):
        if rng.random() < 0.5:
            d = _rand_nonneg_rat(rng)
            if d > 0:
                # strictly larger first coordinate dominates any second
                return (p[0] + d, _rand_nonneg_rat(rng))
        return (p[0], p[1] + _rand_nonneg_rat(rng))

    return EvsDescriptor(
        name="dict2",
        element_kind="dict2",
        zero=(ZERO, ZERO),
        add=lambda p, q: (p[0] + q[0], p[1] + q[1]),
        scale=scale,
        leq=leq,
        is_primitive=lambda p: p == (ZERO, ZERO),
        sample=sample,
        scalar_mode=sc.PYTHAGOREAN_ONLY,
        render=lambda p: f"({rat_str(p[0])}, {rat_str(p[1])})",
        primitive_set=lambda p: [(ZERO, ZERO)],
        upward=upward,
        exactly_verified=frozenset(AXIOM_IDS),
    )


# -------------------------------------------------------- subspace lattice

ZERO_SUBSPACE = ()
FULL_SUBSPACE = ((ONE, ZERO), (ZERO, ONE))


def line(a, b):
    """Canonical representation of span{(a, b)} in Q^2."""
    a, b = rat(a), rat(b)
    if a == 0 and b == 0:
        return ZERO_SUBSPACE
    if a != 0:
        return ((ONE, b / a),)
    return ((ZERO, ONE),)


def span_join(y1, y2):
    """Canonical basis of span(y1 union y2) by rank over Q^2."""
    rows = [r for r in y1 + y2 if r != (ZERO, ZERO)]
    if not rows:
        return ZERO_SUBSPACE
    a, b = rows[0]
    for c, d in rows[1:]:
        if a * d - b * c != 0:
            return FULL_SUBSPACE
    return line(a, b)


def subspace_leq(y1, y2) -> bool:
    return span_join(y1, y2) == y2


def render_subspace(y) -> str:
    """``zero``, ``full`` or ``span(a,b)`` for a canonical subspace."""
    if y == ZERO_SUBSPACE:
        return "zero"
    if y == FULL_SUBSPACE:
        return "full"
    (a, b), = y
    return f"span({rat_str(a)},{rat_str(b)})"


def subspace_lattice() -> EvsDescriptor:
    """Linear subspaces of Q^2: join as addition, inclusion as order."""

    def scale(lam, y):
        if lam.is_zero():
            return ZERO_SUBSPACE
        return y

    def sample(seed, count):
        rng = random.Random(seed)
        out = [ZERO_SUBSPACE, FULL_SUBSPACE, line(1, 0), line(0, 1)]
        out = out[: max(0, min(4, count))]
        while len(out) < count:
            out.append(line(draw_int(rng, 1, 6), draw_rat(rng, -6, 6, 6)))
        return out[:count]

    return EvsDescriptor(
        name="lattice2",
        element_kind="lattice2",
        zero=ZERO_SUBSPACE,
        add=span_join,
        scale=scale,
        leq=subspace_leq,
        is_primitive=lambda y: y == ZERO_SUBSPACE,
        sample=sample,
        scalar_mode=sc.ANY_SCALAR,
        render=render_subspace,
        primitive_set=lambda y: [ZERO_SUBSPACE],
        upward=lambda y, rng: span_join(y, (
            FULL_SUBSPACE, line(1, 1), line(1, 0), y)[draw_int(rng, 0, 3)]),
    )


# ---------------------------------------------------------- planted faults

def half_line_fault_no_modulus() -> EvsDescriptor:
    """Corrupted half line whose action drops the modulus."""
    E = half_line()
    E.name = "halfline#no-modulus"
    E.scale = lambda lam, r: lam.re * r
    E.exactly_verified = frozenset()
    return E


def twisted_fault_no_zero_case() -> EvsDescriptor:
    """Corrupted twisted product whose action forgets 0.x = theta."""
    E = twisted_product(2)
    E.name = "twisted:2#no-zero-case"

    def scale(lam, x):
        r, a = x
        return (r, tuple(lam * v for v in a))

    E.scale = scale
    return E


def lattice_fault_no_canonicalization() -> EvsDescriptor:
    """Corrupted lattice whose join skips basis canonicalization."""
    E = subspace_lattice()
    E.name = "lattice2#no-canonicalization"

    def raw_join(y1, y2):
        # hands back the raw generator pair instead of the reduced
        # echelon basis, so equal subspaces get unequal representations
        rows = [r for r in y1 + y2 if r != (ZERO, ZERO)]
        if not rows:
            return ZERO_SUBSPACE
        a, b = rows[0]
        for c, d in rows[1:]:
            if a * d - b * c != 0:
                return (rows[0], (c, d))
        return line(a, b)

    E.add = raw_join
    return E


PLANTED_FAULTS: dict = {
    "halfline#no-modulus": half_line_fault_no_modulus,
    "twisted:2#no-zero-case": twisted_fault_no_zero_case,
    "lattice2#no-canonicalization": lattice_fault_no_canonicalization,
}


# ------------------------------------------------------------- morphisms

@dataclass
class OrderIso:
    """A shipped order-isomorphism with exact inverse and set transport."""

    name: str
    domain: EvsDescriptor
    codomain: EvsDescriptor
    forward: Callable
    inverse: Optional[Callable] = None
    # exact image of a set of the domain's carrier, or None
    transport: Optional[Callable] = None
    # a transported set as a set of the domain's carrier, for a map onto
    # a proper subevs of the codomain, where verdicts are read in the image
    image_view: Callable = lambda B: B


def doubling_map() -> OrderIso:
    from . import sets as st

    H = half_line()
    return OrderIso("doubling", H, half_line(),
                    forward=lambda r: 2 * r, inverse=lambda r: r / 2,
                    transport=lambda A: st.iu_scale(rat(2), A))


def halfline_to_cone() -> OrderIso:
    """Embedding r -> (r, 0) of the half line onto the cone's zero-vector
    subevs (an order-isomorphism onto its image)."""
    from . import sets as st

    H = half_line()
    C = cone_product(1)
    return OrderIso(
        "embed", H, C,
        forward=lambda r: (r, (sc.S_ZERO,)),
        inverse=lambda x: x[0],
        transport=lambda A: st.product_slice(
            *[(st.IntervalUnion((c,)), st.finite_vectors((sc.S_ZERO,)))
              for c in A.components]),
        image_view=lambda B: st.interval_union(
            [c for iupart, _ in B.pieces for c in iupart.components]))


def shift_map() -> OrderIso:
    """Planted fault: r -> r+1 is not additive."""
    H = half_line()
    return OrderIso("shift", H, half_line(), forward=lambda r: r + 1)


def square_map() -> OrderIso:
    """Planted fault: r -> r^2 is not additive."""
    H = half_line()
    return OrderIso("square", H, half_line(), forward=lambda r: r * r)


MORPHISMS = {
    "doubling": doubling_map,
    "embed": halfline_to_cone,
    "shift": shift_map,
    "square": square_map,
}


# -------------------------------------------------------------- registry

def make_instance(spec: str) -> EvsDescriptor:
    """Build a descriptor from a CLI instance spec.

    ``halfline``, ``cone:n``, ``twisted:n``, ``dict2``, ``lattice2`` and
    ``product:(spec,spec,...)``.
    """
    spec = spec.strip()
    if spec in PLANTED_FAULTS:
        return PLANTED_FAULTS[spec]()
    if spec == "halfline":
        return half_line()
    if spec == "dict2":
        return dict_plane()
    if spec == "lattice2":
        return subspace_lattice()
    if spec.startswith("cone:"):
        return cone_product(_dimension(spec))
    if spec.startswith("twisted:"):
        return twisted_product(_dimension(spec))
    if spec.startswith("product:"):
        inner = spec.split(":", 1)[1].strip()
        parts = []
        if inner.startswith("(") and inner.endswith(")"):
            parts = _split_product(inner[1:-1])
        if not parts:
            raise ValueError(f"bad instance spec {spec!r}: expected "
                             "product:(<spec>,<spec>,...)")
        return product_evs([make_instance(p) for p in parts])
    raise ValueError(f"unknown instance {spec!r}")


def _split_product(body: str):
    parts, depth, cur = [], 0, ""
    for ch in body:
        if ch == "," and depth == 0:
            parts.append(cur)
            cur = ""
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        cur += ch
    if cur.strip():
        parts.append(cur)
    return [p.strip() for p in parts]


def _dimension(spec: str) -> int:
    """The n of a ``cone:<n>`` or ``twisted:<n>`` spec."""
    kind, _, body = spec.partition(":")
    try:
        n = int(body)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"bad instance spec {spec!r}: expected {kind}:<n> "
                         "with an integer n >= 1")
    return n
