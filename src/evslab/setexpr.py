"""Parser for the textual set-expression grammar.

Half-line sets are unions of interval pieces ``[0,1/2) U (3/4,2]``,
dictionary-plane sets are unions of anchored boxes ``[0,1)x[0,2]`` and
lattice families are ``ALL``, ``ALL\\{...}`` or ``{...}`` with subspaces
written ``span(p/q,r/s)``, ``zero`` or ``full``.  Parsing is total on
the grammar with byte-offset error reporting, and rendered canonical
sets parse back to equal values.
"""

import re

from . import sets as st
from ._backend import rat_parse
from .instances import ASCII_SPACE, FULL_SUBSPACE, ZERO_SUBSPACE, line

_RAT_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


class SetExprError(ValueError):
    """Parse or domain failure, carrying the byte offset of the error."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while (self.pos < len(self.text)
               and self.text[self.pos] in ASCII_SPACE):
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, token: str):
        self.skip_ws()
        if not self.text.startswith(token, self.pos):
            raise SetExprError(f"expected {token!r}", self.pos)
        self.pos += len(token)

    def try_take(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def rational(self):
        self.skip_ws()
        m = _RAT_RE.match(self.text, self.pos)
        if not m:
            raise SetExprError("expected a rational p/q", self.pos)
        start = self.pos
        self.pos = m.end()
        try:
            return rat_parse(m.group()), start
        except ZeroDivisionError:
            raise SetExprError("zero denominator", start) from None

    def done(self):
        self.skip_ws()
        if self.pos < len(self.text):
            raise SetExprError(
                f"unexpected trailing input {self.text[self.pos:]!r}",
                self.pos)


def _parse_piece(cur: _Cursor) -> st.Interval:
    cur.skip_ws()
    start = cur.pos
    if cur.try_take("["):
        lo_closed = True
    elif cur.try_take("("):
        lo_closed = False
    else:
        raise SetExprError("expected '[' or '(' starting a piece", cur.pos)
    lo, lo_at = cur.rational()
    if lo < 0:
        raise SetExprError("left endpoint must be >= 0", lo_at)
    cur.take(",")
    cur.skip_ws()
    if cur.try_take("inf"):
        hi, hi_at = st.INF, cur.pos
    else:
        hi, hi_at = cur.rational()
        if hi < 0:
            raise SetExprError("right endpoint must be >= 0", hi_at)
    if cur.try_take("]"):
        hi_closed = True
    elif cur.try_take(")"):
        hi_closed = False
    else:
        raise SetExprError("expected ']' or ')' closing a piece", cur.pos)
    if hi is st.INF and hi_closed:
        raise SetExprError("an unbounded piece cannot be right-closed",
                           start)
    return st.Interval(lo, lo_closed, hi, hi_closed)


def _parse_interval_union(cur: _Cursor) -> st.IntervalUnion:
    pieces = [_parse_piece(cur)]
    while cur.try_take("U"):
        pieces.append(_parse_piece(cur))
    return st.interval_union(pieces)


def _parse_box(cur: _Cursor) -> st.Box:
    start = cur.pos
    px = _parse_piece(cur)
    cur.take("x")
    py = _parse_piece(cur)
    for p in (px, py):
        if p.lo != 0 or not p.lo_closed:
            raise SetExprError(
                "box pieces must be anchored [0, ...) at the origin", start)
    return st.Box(px.hi, px.hi_closed, py.hi, py.hi_closed)


def _parse_box_union(cur: _Cursor) -> st.AnchoredBoxUnion:
    boxes = [_parse_box(cur)]
    while cur.try_take("U"):
        boxes.append(_parse_box(cur))
    return st.box_union(boxes)


def _parse_subspace(cur: _Cursor):
    cur.skip_ws()
    if cur.try_take("zero"):
        return ZERO_SUBSPACE
    if cur.try_take("full"):
        return FULL_SUBSPACE
    if cur.try_take("span("):
        a, _ = cur.rational()
        cur.take(",")
        b, _ = cur.rational()
        cur.take(")")
        return line(a, b)
    raise SetExprError("expected 'zero', 'full' or 'span(p/q,r/s)'",
                       cur.pos)


def _parse_subspace_set(cur: _Cursor) -> frozenset:
    cur.take("{")
    members = []
    if cur.peek() != "}":
        members.append(_parse_subspace(cur))
        while cur.try_take(","):
            members.append(_parse_subspace(cur))
    cur.take("}")
    return frozenset(members)


def _parse_lattice_family(cur: _Cursor) -> st.LatticeFamily:
    if cur.try_take("ALL"):
        if cur.try_take("\\"):
            return st.LatticeFamily(st.COFINITE, _parse_subspace_set(cur))
        return st.ALL_SUBSPACES
    return st.LatticeFamily(st.FINITE, _parse_subspace_set(cur))


PARSERS = {
    "halfline": _parse_interval_union,
    "dict2": _parse_box_union,
    "lattice2": _parse_lattice_family,
}


def parse_set_expression(text: str, kind: str = "halfline"):
    """Parse a set expression for the given instance kind, returning the
    canonical representation."""
    if kind not in PARSERS:
        raise ValueError(f"no set grammar for instance kind {kind!r}")
    cur = _Cursor(text)
    value = PARSERS[kind](cur)
    cur.done()
    return value
