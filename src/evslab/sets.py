"""Exact representable subsets and their deciders.

Four exact carriers (interval unions on the half line, anchored box
unions on the dictionary plane, finite/cofinite subspace families,
product slices on the cone) plus product cylinders.  Every carrier has
``member`` and ``render``; where it has one, it also owns its exact
image ``scale(lam)``, its one-point superset ``with_point(x)`` and the
deciders ``balanced()``, ``absorbing()`` and ``bounded(seed)``.  The
deciders never sample: a Proven or Refuted verdict follows from the
representation by an exact argument, and ``ProductSlice.balanced``,
which has no criterion yet, answers Unfalsified where its endpoint
scan finds no violation.  Only interval unions carry a set algebra
(intersection, union, Minkowski sum, translation, up/down images).

An ``IntervalUnion`` is kept canonical: its components are nonempty,
sorted by left end, pairwise disjoint and never touching in a way that
would merge them, and every endpoint is >= 0.  ``interval_union`` builds
that form from any list of pieces, and every ``iu_*`` operation returns
it.  The operations rely on it in their inputs: ``iu_intersect``,
``iu_union`` and ``iu_subset`` are single sorted merges,
``iu_scale`` (by t > 0) and ``iu_translate`` map each component
through an order isomorphism of the line, which keeps the form, and
``contains_zero`` and ``sup`` read only the first and the last
component.

The carriers are frozen records on one slotted base, ``_Frozen``: a
carrier's fields are its ``__slots__``, its ``__init__`` writes each
once, and assigning or deleting any name raises AttributeError.  ``==``
(NotImplemented against another class), ``hash``, ``repr``, ``copy``
and ``pickle`` all read the tuple of fields, as a frozen dataclass's
do; no code is generated when the module loads.  The kernel builds its
``Interval`` and ``IntervalUnion`` objects with the module builders
``_iv`` and ``_iu``, not the public constructors: one round of the
``laws`` benchmark builds close to 300,000 of them.  The builders make
the object with ``object.__new__`` and write each slot through its
descriptor, as ``_backend._new`` and ``scalars._new`` do.  Only the
kernel calls them, on values it has already checked.

The exact deciders return their ``detail`` sentence and their witness
as functions (see ``outcome.CheckOutcome``), so a caller that reads
only the verdict pays for no rendering.

The module functions ``set_member``, ``set_with_point``, ``scale_set``,
``is_balanced`` and ``is_absorbing`` (and ``topology.is_bounded_set``)
look the operation up on the carrier and raise TypeError where it has
none; the law drivers call these functions, never the methods.
``is_balanced`` and ``is_bounded_set`` then raise ValueError on an
empty set through ``require_nonempty``, the one statement of that
rule, so the ``balanced`` and ``bounded`` methods never see one.
"""

import random
from operator import attrgetter
from typing import Sequence, Tuple

from . import scalars as sc
from ._backend import ONE, ZERO, Rat, draw_int, draw_rat, rat, rat_str
from .instances import FULL_SUBSPACE, ZERO_SUBSPACE, line, render_subspace
from .outcome import CheckOutcome, proven, refuted, unfalsified

INF = None  # right endpoint marker for unbounded intervals


def _fmt_hi(hi) -> str:
    return "inf" if hi is INF else rat_str(hi)


_setattr = object.__setattr__  # past _Frozen.__setattr__


class _Frozen:
    """Base of the frozen carriers: the fields are the ``__slots__``."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self.__slots__, self._fields())) + ")"

    def __reduce__(self):
        return type(self), self._fields()


class Interval(_Frozen):
    """One component [lo, hi] with open/closed flags; hi=None means +oo."""

    __slots__ = ("lo", "lo_closed", "hi", "hi_closed")

    def __init__(self, lo: object, lo_closed: bool, hi: object,
                 hi_closed: bool):
        _setattr(self, "lo", lo)
        _setattr(self, "lo_closed", lo_closed)
        _setattr(self, "hi", hi)
        _setattr(self, "hi_closed", hi_closed)

    def is_empty(self) -> bool:
        if self.hi is INF:
            return False
        if self.lo > self.hi:
            return True
        if self.lo == self.hi:
            return not (self.lo_closed and self.hi_closed)
        return False

    def member(self, x) -> bool:
        if x < self.lo or (x == self.lo and not self.lo_closed):
            return False
        if self.hi is INF:
            return True
        return x < self.hi or (x == self.hi and self.hi_closed)

    def rep_point(self):
        """Some element of the interval."""
        if self.is_empty():
            raise ValueError("empty interval")
        if self.lo_closed:
            return self.lo
        if self.hi is INF:
            return self.lo + 1
        return (self.lo + self.hi) / 2

    def render(self) -> str:
        lb = "[" if self.lo_closed else "("
        rb = "]" if self.hi_closed else ")"
        return f"{lb}{rat_str(self.lo)},{_fmt_hi(self.hi)}{rb}"


def ival(lo, hi, lo_closed=True, hi_closed=False) -> Interval:
    lo = rat(lo)
    hi = None if hi is INF else rat(hi)
    return _iv(lo, lo_closed, hi, hi_closed)


class IntervalUnion(_Frozen):
    """Canonical finite union of disjoint non-mergeable intervals in [0,oo)."""

    __slots__ = ("components",)

    def __init__(self, components: Tuple[Interval, ...]):
        _setattr(self, "components", components)

    def member(self, x) -> bool:
        return any(c.member(x) for c in self.components)

    def is_empty(self) -> bool:
        return not self.components

    def sup(self):
        """(value-or-INF, attained) of the supremum; raises if empty."""
        if self.is_empty():
            raise ValueError("empty set has no sup")
        last = self.components[-1]
        if last.hi is INF:
            return INF, False
        return last.hi, last.hi_closed

    def contains_zero(self) -> bool:
        # endpoints are >= 0, so only the first component can hold 0
        comps = self.components
        return bool(comps) and comps[0].lo == 0 and comps[0].lo_closed

    def render(self) -> str:
        if not self.components:
            return "{}"
        return " U ".join(c.render() for c in self.components)

    def scale(self, lam: sc.Scalar) -> "IntervalUnion":
        return iu_scale(sc.modulus(lam), self)

    def with_point(self, x) -> "IntervalUnion":
        return iu_union(self, iu((x, x, True, True)))

    def balanced(self) -> CheckOutcome:
        comps = self.components
        if len(comps) == 1 and comps[0].lo == 0 and comps[0].lo_closed:
            return proven("single interval anchored at 0 (star-shaped)")
        # a scaling that lands in a gap (or at 0 when 0 is missing)
        if not self.contains_zero():
            def to_zero():
                x = comps[0].rep_point()
                return {"x": rat_str(x), "alpha": "0", "escape": "0",
                        "_raw": (x, ZERO)}
            return refuted(to_zero, detail="0.x = theta is outside A")
        # 0 in A, so more than one component: scale a later point into
        # the gap
        def into_gap():
            gap = _first_gap(self)
            x = comps[1].rep_point()
            t = gap / x
            return {"x": rat_str(x), "alpha": rat_str(t),
                    "escape": rat_str(gap), "_raw": (x, t)}
        return refuted(into_gap, detail="scaling by |alpha|<1 leaves A")

    def absorbing(self) -> CheckOutcome:
        if not self.is_empty() and self.contains_zero():
            c0 = self.components[0]
            if c0.hi is INF or c0.hi > 0:
                return proven(lambda: "contains the nondegenerate "
                                      f"0-component {c0.render()}")
            # 0-component is the degenerate {0}
            g = self.components[1].lo if len(self.components) > 1 else ONE
            return refuted(lambda: {"x": "1", "escape_below": rat_str(g),
                                    "_raw": (ONE, g)},
                           detail="any mu in (0, escape_below) sends x=1 "
                                  "outside A, so no alpha > 0 works")
        return refuted({"x": "1", "alpha": "0", "_raw": (ONE, ZERO)},
                       detail="theta = 0.x is outside A")

    def bounded(self, seed: int) -> CheckOutcome:
        s, _ = self.sup()
        if s is not INF:
            bound = s + 1
            if not iu_subset(self, _iu((_iv(ZERO, True, bound, False),))):
                raise AssertionError("set escaped [0, sup + 1)")
            return proven(lambda: f"contained in [0,{rat_str(bound)}) = "
                                  f"{rat_str(bound)}.[0,1)", seed=seed)
        last = self.components[-1]
        base = last.lo if last.lo_closed else last.lo + 1
        return refuted(
            lambda: {"x_n": f"{rat_str(base)} + n", "lambda_n": "1/n",
                     "limit": "lambda_n.x_n -> 1, never below 1/2",
                     "_raw_base": base},
            seed=seed,
            detail="unbounded tail: the sequence x_n = base + n with "
                   "lambda_n = 1/n keeps lambda_n.x_n >= 1")


def _first_gap(A: IntervalUnion):
    """A rational point strictly between the first two components."""
    c0, c1 = A.components[0], A.components[1]
    if c0.hi == c1.lo:  # both open at the touching point
        return c0.hi
    return (c0.hi + c1.lo) / 2


_object_new = object.__new__  # bound once: a lookup on the type is slow
_set_lo, _set_lo_closed, _set_hi, _set_hi_closed = (
    Interval.lo.__set__, Interval.lo_closed.__set__, Interval.hi.__set__,
    Interval.hi_closed.__set__)
_set_components = IntervalUnion.components.__set__


def _iv(lo, lo_closed, hi, hi_closed) -> Interval:
    """``Interval(lo, lo_closed, hi, hi_closed)`` without ``__init__``."""
    c = _object_new(Interval)
    _set_lo(c, lo)
    _set_lo_closed(c, lo_closed)
    _set_hi(c, hi)
    _set_hi_closed(c, hi_closed)
    return c


def _iu(components: tuple) -> IntervalUnion:
    """``IntervalUnion(components)`` without ``__init__``; ``components``
    must already be canonical."""
    u = _object_new(IntervalUnion)
    _set_components(u, components)
    return u


EMPTY_IU = _iu(())


def interval_union(intervals: Sequence[Interval]) -> IntervalUnion:
    """Canonicalize: drop empties, sort, merge overlapping/adjacent."""
    pieces = [c for c in intervals
              if c.hi is INF or c.lo < c.hi
              or (c.lo == c.hi and c.lo_closed and c.hi_closed)]
    if not pieces:
        return EMPTY_IU
    if len(pieces) > 1:
        # two stable sorts: by lo, closed left ends first among equal lo
        pieces.sort(key=attrgetter("lo_closed"), reverse=True)
        pieces.sort(key=attrgetter("lo"))
    _require_nonnegative(pieces[0].lo)
    merged = []
    for c in pieces:
        _push_merged(merged, c)
    return _iu(tuple(merged))


def _require_nonnegative(lo):
    if lo < 0:
        raise ValueError(f"negative endpoint {rat_str(lo)}")


def _push_merged(merged: list, c: Interval):
    """Append ``c``, which starts no earlier than the last component of
    ``merged``, merging the two when they overlap or touch.  The last
    component is kept, not rebuilt, when the merge leaves its end as it
    is."""
    if merged:
        p = merged[-1]
        if p.hi is INF or c.lo < p.hi or (
                c.lo == p.hi and (p.hi_closed or c.lo_closed)):
            hi, hi_closed = _max_hi(p, c)
            if hi is not p.hi or hi_closed is not p.hi_closed:
                merged[-1] = _iv(p.lo, p.lo_closed, hi, hi_closed)
            return
    merged.append(c)


def _max_hi(a: Interval, b: Interval):
    if a.hi is INF or b.hi is INF:
        return INF, False
    if a.hi > b.hi:
        return a.hi, a.hi_closed
    if b.hi > a.hi:
        return b.hi, b.hi_closed
    return a.hi, a.hi_closed or b.hi_closed


def iu(*pieces) -> IntervalUnion:
    """Convenience constructor from (lo, hi[, lo_closed, hi_closed]) tuples."""
    return interval_union([ival(*p) for p in pieces])


def iu_intersect(a: IntervalUnion, b: IntervalUnion) -> IntervalUnion:
    """Exact a & b of canonical unions by one sorted merge.

    Each piece lies in one component of ``a`` and one of ``b``, and two
    pieces are always separated by a gap of ``a`` or of ``b``, so the
    pieces come out sorted, disjoint and non-mergeable: canonical."""
    ac, bc = a.components, b.components
    out = []
    i = j = 0
    while i < len(ac) and j < len(bc):
        c, d = ac[i], bc[j]
        if c.lo > d.lo:
            lo, lc = c.lo, c.lo_closed
        elif d.lo > c.lo:
            lo, lc = d.lo, d.lo_closed
        else:
            lo, lc = c.lo, c.lo_closed and d.lo_closed
        # the component that ends first is done
        if c.hi is INF or (d.hi is not INF and d.hi < c.hi):
            hi, hc = d.hi, d.hi_closed
            j += 1
        elif d.hi is INF or c.hi < d.hi:
            hi, hc = c.hi, c.hi_closed
            i += 1
        else:
            # same end point: both next components lie beyond it, so
            # neither can meet the other's current one
            hi, hc = c.hi, c.hi_closed and d.hi_closed
            i += 1
            j += 1
        if hi is INF or lo < hi or (lo == hi and lc and hc):
            out.append(_iv(lo, lc, hi, hc))
    return _iu(tuple(out))


def iu_union(a: IntervalUnion, b: IntervalUnion) -> IntervalUnion:
    """Exact a | b of canonical unions by one sorted merge: the
    components of both are taken in order of their left ends (closed
    before open at a tie) and each is merged into the last one kept."""
    ac, bc = a.components, b.components
    out = []
    i = j = 0
    while i < len(ac) and j < len(bc):
        c, d = ac[i], bc[j]
        if c.lo < d.lo or (c.lo == d.lo and c.lo_closed):
            _push_merged(out, c)
            i += 1
        else:
            _push_merged(out, d)
            j += 1
    for c in ac[i:] + bc[j:]:
        _push_merged(out, c)
    return _iu(tuple(out))


def iu_subset(a: IntervalUnion, b: IntervalUnion) -> bool:
    """a <= b for canonical unions, in one pass over both.

    ``b``'s components are its connected components, so each component
    of ``a`` must lie in the first component of ``b`` that does not end
    before it."""
    bc = b.components
    j = 0
    for c in a.components:
        while j < len(bc) and not _edge_leq(c.hi, c.hi_closed,
                                            bc[j].hi, bc[j].hi_closed):
            j += 1
        if j == len(bc):
            return False
        d = bc[j]
        if c.lo < d.lo or (c.lo == d.lo and c.lo_closed
                           and not d.lo_closed):
            return False
    return True


def iu_scale(t, a: IntervalUnion) -> IntervalUnion:
    """Exact image under x -> t.x for a rational factor t >= 0."""
    t = rat(t)
    if t < 0:
        raise ValueError("scale factor must be >= 0 (use the modulus)")
    if t == 0:
        return iu((0, 0, True, True)) if not a.is_empty() else EMPTY_IU
    # r -> t.r is an order isomorphism of [0,oo): the image is canonical
    return _iu(tuple(
        _iv(c.lo * t, c.lo_closed,
            INF if c.hi is INF else c.hi * t, c.hi_closed)
        for c in a.components))


def iu_translate(x, a: IntervalUnion) -> IntervalUnion:
    """Exact image under r -> x + r; ValueError when it leaves [0,oo)."""
    x = rat(x)
    if a.components:
        _require_nonnegative(a.components[0].lo + x)
    # r -> x + r is an order isomorphism: the image is canonical
    return _iu(tuple(
        _iv(c.lo + x, c.lo_closed,
            INF if c.hi is INF else c.hi + x, c.hi_closed)
        for c in a.components))


def iu_minkowski(a: IntervalUnion, b: IntervalUnion) -> IntervalUnion:
    """Exact {x + y}: pairwise interval sums, closed only when both are."""
    out = []
    for c in a.components:
        for d in b.components:
            hi = INF if (c.hi is INF or d.hi is INF) else c.hi + d.hi
            out.append(_iv(c.lo + d.lo, c.lo_closed and d.lo_closed,
                           hi, c.hi_closed and d.hi_closed))
    return interval_union(out)


def iu_up(a: IntervalUnion) -> IntervalUnion:
    """Up-set in the half line: [inf A, oo) with the inherited flag."""
    if a.is_empty():
        return EMPTY_IU
    first = a.components[0]
    return interval_union([_iv(first.lo, first.lo_closed, INF, False)])


def iu_down(a: IntervalUnion) -> IntervalUnion:
    """Down-set in the half line: [0, sup A] with the inherited flag."""
    if a.is_empty():
        return EMPTY_IU
    hi, attained = a.sup()
    return interval_union([_iv(ZERO, True, hi, attained)])


# ------------------------------------------------------------ dict2 boxes

class Box(_Frozen):
    """Anchored box [0, a) x [0, b) with optionally closed right edges.

    ``a``/``b`` may be INF.  A zero extent with a closed edge denotes the
    degenerate slice {0} in that coordinate.
    """

    __slots__ = ("a", "a_closed", "b", "b_closed")

    def __init__(self, a: object, a_closed: bool, b: object, b_closed: bool):
        _setattr(self, "a", a)
        _setattr(self, "a_closed", a_closed)
        _setattr(self, "b", b)
        _setattr(self, "b_closed", b_closed)

    def x_iv(self) -> Interval:
        return _iv(ZERO, True, self.a, self.a_closed)

    def y_iv(self) -> Interval:
        return _iv(ZERO, True, self.b, self.b_closed)

    def is_empty(self) -> bool:
        return self.x_iv().is_empty() or self.y_iv().is_empty()

    def member(self, p) -> bool:
        return self.x_iv().member(p[0]) and self.y_iv().member(p[1])

    def covers(self, other: "Box") -> bool:
        return _edge_leq(other.a, other.a_closed, self.a, self.a_closed) and \
            _edge_leq(other.b, other.b_closed, self.b, self.b_closed)

    def render(self) -> str:
        xa = "]" if self.a_closed else ")"
        xb = "]" if self.b_closed else ")"
        return f"[0,{_fmt_hi(self.a)}{xa}x[0,{_fmt_hi(self.b)}{xb}"


def _edge_leq(e1, c1, e2, c2) -> bool:
    if e2 is INF:
        return True
    if e1 is INF:
        return False
    return e1 < e2 or (e1 == e2 and (not c1 or c2))


def box(a, b, b_closed=False) -> Box:
    a = INF if a is INF else rat(a)
    b = INF if b is INF else rat(b)
    return Box(a, False, b, b_closed)


class AnchoredBoxUnion(_Frozen):
    """Antichain of maximal anchored boxes over the dictionary plane."""

    __slots__ = ("boxes",)

    def __init__(self, boxes: Tuple[Box, ...]):
        _setattr(self, "boxes", boxes)

    def member(self, p) -> bool:
        return any(bx.member(p) for bx in self.boxes)

    def is_empty(self) -> bool:
        return not self.boxes

    def render(self) -> str:
        if not self.boxes:
            return "{}"
        return " U ".join(bx.render() for bx in self.boxes)

    def scale(self, lam: sc.Scalar) -> "AnchoredBoxUnion":
        t = sc.modulus(lam)
        if t == 0:  # every point goes to the origin
            return box_union([Box(ZERO, True, ZERO, True)] if self.boxes
                             else [])
        return box_union([
            Box(INF if b.a is INF else b.a * t, b.a_closed,
                INF if b.b is INF else b.b * t, b.b_closed)
            for b in self.boxes])

    def balanced(self) -> CheckOutcome:
        return proven("anchored box unions are closed under diagonal shrink")

    def absorbing(self) -> CheckOutcome:
        for b in self.boxes:
            a_pos = b.a is INF or b.a > 0
            b_pos = b.b is INF or b.b > 0
            if a_pos and b_pos:
                return proven(lambda: f"contains the origin box {b.render()}")
        if self.is_empty():
            return refuted({"x": "(1, 1)", "alpha": "0",
                            "_raw": ((ONE, ONE),)},
                           detail="theta is outside the empty union")
        return refuted({"x": "(1, 1)", "_raw": ((ONE, ONE),)},
                       detail="every box has a degenerate extent: mu.(1,1) "
                              "= (|mu|,|mu|) escapes for every mu != 0")


def box_union(boxes: Sequence[Box]) -> AnchoredBoxUnion:
    live = [Box(b.a, b.a_closed and b.a is not INF,
                b.b, b.b_closed and b.b is not INF)
            for b in boxes if not b.is_empty()]
    maximal = []
    for b in live:
        if any(o.covers(b) and o != b for o in live if o is not b):
            continue
        if b not in maximal:
            maximal.append(b)
    maximal.sort(key=lambda b: (b.a is INF, b.a if b.a is not INF else ZERO,
                                b.b is INF, b.b if b.b is not INF else ZERO))
    return AnchoredBoxUnion(tuple(maximal))


# --------------------------------------------------------- lattice family

FINITE = "Finite"
COFINITE = "Cofinite"


class LatticeFamily(_Frozen):
    """Finite or cofinite family of subspaces of Q^2."""

    __slots__ = ("mode", "members")

    # ``members`` is the family (Finite) or its complement (Cofinite)
    def __init__(self, mode: str, members: frozenset):
        _setattr(self, "mode", mode)
        _setattr(self, "members", members)

    def member(self, y) -> bool:
        if self.mode == FINITE:
            return y in self.members
        return y not in self.members

    def is_empty(self) -> bool:
        return self.mode == FINITE and not self.members

    def is_all(self) -> bool:
        return self.mode == COFINITE and not self.members

    def render(self) -> str:
        names = sorted(render_subspace(y) for y in self.members)
        inner = ",".join(names)
        if self.mode == FINITE:
            return "{" + inner + "}"
        return "ALL" if not names else "ALL\\{" + inner + "}"

    def scale(self, lam: sc.Scalar) -> "LatticeFamily":
        """Y -> lam.Y is the identity for lam != 0 and sends every Y to
        zero for lam = 0."""
        if lam.is_zero() and not self.is_empty():
            return LatticeFamily(FINITE, frozenset((ZERO_SUBSPACE,)))
        return self

    def balanced(self) -> CheckOutcome:
        if self.member(ZERO_SUBSPACE):
            return proven(
                "alpha.Y = Y for alpha != 0 and 0.Y = zero is in A")
        y = some_subspace(self, inside=True)
        return refuted(lambda: {"x": render_subspace(y), "alpha": "0",
                                "escape": "zero", "_raw": (y, ZERO)},
                       detail="0.Y = zero subspace is outside A")

    def absorbing(self) -> CheckOutcome:
        if self.is_all():
            return proven("the family is the whole lattice")
        y = some_subspace(self, inside=False)
        return refuted(lambda: {"x": render_subspace(y), "_raw": (y,)},
                       detail="mu.Y = Y stays outside A for every mu != 0")


ALL_SUBSPACES = LatticeFamily(COFINITE, frozenset())


def some_subspace(fam: LatticeFamily, inside: bool):
    """A subspace in the family (``inside``) or outside it, or None where
    there is none: the least listed one by name where the side is the
    listed set, else the first of zero, full, span(1,0), span(1,1), ...
    on that side."""
    if fam.mode == (FINITE if inside else COFINITE):
        return min(fam.members, key=str, default=None)
    for y in (ZERO_SUBSPACE, FULL_SUBSPACE):
        if fam.member(y) == inside:
            return y
    k = 0
    while True:
        cand = line(1, k)
        if fam.member(cand) == inside:
            return cand
        k += 1


# ---------------------------------------------------------- product slice

BALL = "ball"
FINITE_VECTORS = "finite"


class VectorRegion(_Frozen):
    """Finite vector set or a closed max-modulus ball of rational radius."""

    __slots__ = ("kind", "vectors", "radius")

    def __init__(self, kind: str, vectors: tuple = (), radius: object = None):
        _setattr(self, "kind", kind)
        _setattr(self, "vectors", vectors)
        _setattr(self, "radius", radius)

    def member(self, a) -> bool:
        if self.kind == FINITE_VECTORS:
            return a in self.vectors
        r2 = self.radius * self.radius
        return all(sc.modulus_squared(v) <= r2 for v in a)

    def is_empty(self) -> bool:
        return self.kind == FINITE_VECTORS and not self.vectors

    def render(self) -> str:
        if self.kind == FINITE_VECTORS:
            return "{" + ";".join(
                "(" + ",".join(sc.render_scalar(v) for v in a) + ")"
                for a in self.vectors) + "}"
        return f"ball({rat_str(self.radius)})"


def finite_vectors(*vecs) -> VectorRegion:
    return VectorRegion(FINITE_VECTORS, tuple(vecs))


def ball(radius) -> VectorRegion:
    radius = rat(radius)
    if radius < 0:
        raise ValueError("ball radius must be >= 0")
    return VectorRegion(BALL, radius=radius)


class ProductSlice(_Frozen):
    """Finite union of (IntervalUnion x VectorRegion) pieces on the cone."""

    __slots__ = ("pieces",)

    def __init__(self, pieces: Tuple[Tuple[IntervalUnion, VectorRegion],
                                     ...]):
        _setattr(self, "pieces", pieces)

    def member(self, x) -> bool:
        r, a = x
        return any(iupart.member(r) and reg.member(a)
                   for iupart, reg in self.pieces)

    def _nonempty_pieces(self) -> list:
        """The pieces whose radial part and vector region are both
        nonempty; a piece with either one empty contributes no point."""
        return [(iupart, reg) for iupart, reg in self.pieces
                if not (iupart.is_empty() or reg.is_empty())]

    def is_empty(self) -> bool:
        return not self._nonempty_pieces()

    def render(self) -> str:
        return " U ".join(f"{iupart.render()}x{reg.render()}"
                          for iupart, reg in self.pieces) or "{}"

    def with_point(self, x) -> "ProductSlice":
        r, a = x
        return ProductSlice(self.pieces + (
            (iu((r, r, True, True)), finite_vectors(a)),))

    def balanced(self) -> CheckOutcome:
        """Proven when every piece is [0,s)-style x ball.  Refuted when
        theta is outside A, since 0.x = theta for every x in A: theta
        is in A iff some piece has 0 in its radial part and a ball
        (which holds the zero vector of every dimension) or a listed
        zero vector.  The witness x is a point of the first piece, with
        vector ``None`` in ``_raw`` and ``0`` in ``x`` when that piece
        is a ball.  Otherwise Unfalsified."""
        pieces = self._nonempty_pieces()
        if all(reg.kind == BALL and iupart.balanced().proven
               for iupart, reg in pieces):
            return proven("every piece is [0,s)-style x ball")
        if not any(iupart.contains_zero() and (reg.kind == BALL or any(
                all(c.is_zero() for c in v) for v in reg.vectors))
                for iupart, reg in pieces):
            iupart, reg = pieces[0]
            r = iupart.components[0].rep_point()
            a, shown = ((reg.vectors[0], "...") if reg.kind == FINITE_VECTORS
                        else (None, "0"))
            return refuted(lambda: {"x": f"({rat_str(r)}, {shown})",
                                    "alpha": "0", "_raw": ((r, a), ZERO)},
                           detail="0.x = theta is outside A")
        return unfalsified(len(pieces), 0,
                           "no exact criterion; no violation found on "
                           "endpoints")

    def absorbing(self) -> CheckOutcome:
        """Exact on cone:n, where mu.(r, a) = (|mu| r, mu a): the slice
        is absorbing iff the union U of the radial parts of its pieces
        whose region is ball(t) with t > 0 has a nondegenerate
        0-component closed at 0, the rule of ``IntervalUnion.absorbing``
        applied to U.

        Sufficiency.  Say U holds [0, s) with s > 0, and let t_min be
        the least radius of those balls.  For x = (r, a) take alpha > 0
        below s/r (if r > 0) and below t_min/|a| (if a != 0; |a| is the
        largest modulus of a coordinate).  For |mu| <= alpha, |mu| r is
        in [0, s), so in the radial part of a piece with region ball(t),
        t >= t_min >= |mu| |a|; so mu.x is in that piece.

        Necessity.  Take x = (0, e1) if 0 is not in U, and x = (1, e1)
        if the 0-component of U is {0}, where e1 = (1, 0, ..., 0).  Let
        g be 1 in the first case and the left end of U's second
        component (or 1) in the second.  For real mu in (0, g) the
        radial coordinate of mu.x is outside U, so only a piece whose
        region is ball(0) or a finite vector set can hold mu.x.  Since
        mu e1 != 0, ball(0) never does, and a finite set holds mu e1
        only for mu equal to the first coordinate of one of its vectors.
        Lowering g to each such coordinate that is a positive real, every
        real mu in (0, g) sends x outside A, so no alpha > 0 works; the
        witness carries g as ``escape_below``."""
        pieces = self._nonempty_pieces()
        U = interval_union([c for iupart, reg in pieces
                            if reg.kind == BALL and reg.radius > 0
                            for c in iupart.components])
        on_U = U.absorbing()
        if on_U.proven:
            return proven(lambda: "the union of the radial parts of its "
                                  f"ball(t > 0) pieces {on_U.detail}")
        if U.contains_zero():  # its 0-component is {0}
            r, where = ONE, "meet [0, escape_below) only in 0"
            g = U.components[1].lo if len(U.components) > 1 else ONE
        else:
            r, where, g = ZERO, "miss 0", ONE
        for _, reg in pieces:
            if reg.kind == FINITE_VECTORS:
                for v in reg.vectors:
                    if v[0].im == 0 and v[0].re > 0 and \
                            all(c.is_zero() for c in v[1:]):
                        g = min(g, v[0].re)
        return refuted(
            lambda: {"x": f"({rat_str(r)}, e1)", "escape_below": rat_str(g),
                     "_raw": (r, g)},
            detail=f"the radial parts of its ball(t > 0) pieces {where}: "
                   "any real mu in (0, escape_below) sends x outside A "
                   "(e1 = (1, 0, ..., 0)), so no alpha > 0 works")

    def bounded(self, seed: int) -> CheckOutcome:
        sups = []
        for iupart, reg in self._nonempty_pieces():
            s, _ = iupart.sup()
            if s is INF:
                last = iupart.components[-1]
                base = last.lo if last.lo_closed else last.lo + 1
                vec = reg.vectors[0] if reg.kind == FINITE_VECTORS else None
                return refuted(
                    lambda: {"x_n": f"({rat_str(base)} + n, v)",
                             "lambda_n": "1/n", "_raw_base": base,
                             "_raw_vec": vec},
                    seed=seed,
                    detail="unbounded radial part: lambda_n.x_n keeps "
                           "radial coordinate >= 1")
            sups.append(s)
            if reg.kind == BALL:
                sups.append(reg.radius)
            else:
                for v in reg.vectors:
                    sups.append(max((sc.modulus_squared(c) for c in v),
                                    default=ZERO) + 1)
        bound = max(sups, default=ZERO) + 1
        return proven(
            lambda: f"contained in {rat_str(bound)}.([0,1) x ball(1)) up to "
                    f"radius rescaling", seed=seed)


def product_slice(*pieces) -> ProductSlice:
    return ProductSlice(tuple(pieces))


# ------------------------------------------------------------- cylinders

class ProductCylinder(_Frozen):
    """Per-factor sets over a product evs; None marks the whole factor."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple):
        _setattr(self, "factors", factors)

    def member(self, x) -> bool:
        return all(f is None or set_member(f, xi)
                   for f, xi in zip(self.factors, x))

    def render(self) -> str:
        return " x ".join("ALL" if f is None else f.render()
                          for f in self.factors)


# ------------------------------------------------------ carrier protocol

CARRIERS = (IntervalUnion, AnchoredBoxUnion, LatticeFamily, ProductSlice,
            ProductCylinder)


def carrier_operation(A, name: str,
                      missing: str = "unsupported set kind {kind}"):
    """A's operation ``name``, bound to A.  TypeError, with ``missing``
    formatted over ``A`` and ``kind`` (A's type name), when A is not a
    set carrier or its carrier has no such operation."""
    op = getattr(A, name, None) if isinstance(A, CARRIERS) else None
    if op is None:
        raise TypeError(missing.format(A=A, kind=type(A).__name__))
    return op


def set_member(A, x) -> bool:
    return carrier_operation(A, "member", "not a set representation: {A!r}")(x)


def set_with_point(A, x):
    """A with one extra point adjoined (superset construction)."""
    return carrier_operation(A, "with_point",
                             "cannot adjoin a point to {kind}")(x)


def scale_set(lam: sc.Scalar, A):
    """Exact image of A under x -> lam.x on the owning instance."""
    return carrier_operation(A, "scale")(lam)


def require_nonempty(A):
    """ValueError for an empty set, which ``is_balanced`` and
    ``topology.is_bounded_set`` reject after the carrier lookup."""
    if A.is_empty():
        raise ValueError("empty set")


def is_balanced(A) -> CheckOutcome:
    """Balancedness, decided exactly from the representation (product
    slices may answer Unfalsified).  Rejects the empty set."""
    decide = carrier_operation(A, "balanced")
    require_nonempty(A)
    return decide()


def is_absorbing(A) -> CheckOutcome:
    """Absorbency, decided exactly from the representation."""
    return carrier_operation(A, "absorbing")()


# ------------------------------------------------------- random generators

def random_interval_union(rng: random.Random) -> IntervalUnion:
    """Small random interval unions with frequent boundary cases."""
    n = draw_int(rng, 1, 3)
    pieces = []
    for i in range(n):
        if i == 0 and rng.random() < 0.55:
            lo = ZERO
            lo_closed = rng.random() < 0.8
        else:
            lo = draw_rat(rng, 0, 8, 8)
            lo_closed = rng.random() < 0.5
        if rng.random() < 0.1:
            hi, hi_closed = INF, False
        else:
            width = draw_rat(rng, 0, 8, 8)
            hi = lo + width
            hi_closed = rng.random() < 0.5
        pieces.append(_iv(lo, lo_closed, hi, hi_closed))
    u = interval_union(pieces)
    if u.is_empty():
        return iu((0, 1))
    return u


def random_box_union(rng: random.Random) -> AnchoredBoxUnion:
    boxes = []
    for _ in range(draw_int(rng, 1, 3)):
        a = draw_rat(rng, 0, 6, 6)
        b = draw_rat(rng, 0, 6, 6)
        boxes.append(Box(INF if rng.random() < 0.05 else a,
                         rng.random() < 0.4,
                         INF if rng.random() < 0.05 else b,
                         rng.random() < 0.4))
    u = box_union(boxes)
    if u.is_empty():
        return box_union([box(1, 1)])
    return u


# ------------------------------------------------------ brute-grid oracles

def brute_balanced_violation(A: IntervalUnion):
    """Independent definition-driven search for (x, t) with x in A,
    0 <= t <= 1 and t.x outside A.  Candidate scalars come from a coarse
    grid plus endpoint/gap ratios, which is complete for interval unions.
    """
    xs = [c.rep_point() for c in A.components]
    endpoints = [c.lo for c in A.components] + \
        [c.hi for c in A.components if c.hi is not INF]
    gaps = []
    for c, d in zip(A.components, A.components[1:]):
        gaps.append(_gap_point(c, d))
    for x in xs:
        cands = {Rat(j, 16) for j in range(17)}
        if x > 0:
            for e in endpoints + gaps:
                t = e / x
                if 0 <= t <= 1:
                    cands.add(t)
                for eps in (Rat(1, 64), Rat(1, 4096)):
                    for s in (t - eps, t + eps):
                        if 0 <= s <= 1:
                            cands.add(s)
        for t in sorted(cands):
            if not A.member(t * x):
                return x, t
    return None


def _gap_point(c: Interval, d: Interval):
    if c.hi == d.lo:
        return c.hi
    return (c.hi + d.lo) / 2


def brute_absorbing_verdict(A: IntervalUnion) -> bool:
    """Evaluate the absorbency definition over candidate grids: for each
    grid x, search a candidate alpha whose whole mu-grid stays inside."""
    xs = [ONE, rat(3), Rat(1, 2)] + [c.rep_point() for c in A.components]
    endpoints = [e for c in A.components
                 for e in (c.lo, c.hi) if e is not INF and e > 0]
    for x in xs:
        if x == 0:
            continue
        alpha_cands = {Rat(1, k) for k in (1, 2, 4, 8)}
        for e in endpoints:
            alpha_cands.add(e / (2 * x))
        ok_for_x = False
        for a in sorted(alpha_cands, reverse=True):
            if a <= 0:
                continue
            mus = {ZERO, a, a / 2, a / 3}
            for e in endpoints:
                for g in (e / 2, e):
                    if 0 < g / x <= a:
                        mus.add(g / x)
                    if 0 < (g / x) / 2 <= a:
                        mus.add((g / x) / 2)
            if all(A.member(mu * x) for mu in mus):
                ok_for_x = True
                break
        if not ok_for_x:
            return False
    return True
