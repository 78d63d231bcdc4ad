"""Rational arithmetic backend.

The whole library computes with exact rationals of type ``Rat``.  Two
backends provide it:

* ``gmpy2.mpq`` -- compiled; used when gmpy2 imports;
* ``_PureRat``, a pure-Python subclass of ``fractions.Fraction`` -- used
  otherwise.

``_PureRat`` is a ``Fraction`` in every respect (``isinstance``,
``numbers.Rational``, ``hash``, ``str``, ``repr``, pickling and every
operator it does not override).  It adds monomorphic fast paths for the
operations the library runs in its loops: ``+ - * /`` (both ways), unary
``-``, ``abs`` and ``== < <= > >=`` when the other operand is a
``_PureRat`` or an ``int``, the two-``int`` constructor, and ``Rat(q)``
returning a ``_PureRat`` ``q`` itself.  They read the
``_numerator``/``_denominator`` slots directly and keep every result in
lowest terms with a positive denominator, which ``==`` and
:func:`rat_str` rely on.  Any other operand goes to ``Fraction``, whose
results are plain ``Fraction`` values that compare, hash and print alike.

The backend is chosen once, when this module is imported, from the
environment variable ``EVSLAB_BACKEND``:

* unset or empty -- gmpy2 if it imports, else ``_PureRat``;
* ``gmpy2`` -- gmpy2, or ``ImportError`` when it is missing;
* ``pure`` -- ``_PureRat``;
* anything else -- ``RuntimeError``.

``BACKEND`` names the backend in use (``"gmpy2"`` or ``"pure"``).
"""

import math
import os
from fractions import Fraction


class _PureRat(Fraction):
    """Exact rational: a ``Fraction`` with fast paths for ``Rat``/``int``."""

    __slots__ = ()
    __hash__ = Fraction.__hash__  # overriding __eq__ would unset it

    def __new__(cls, numerator=0, denominator=None):
        if type(numerator) is int:
            if denominator is None:
                return _new(numerator, 1)
            if type(denominator) is int and denominator:
                g = math.gcd(numerator, denominator)
                if denominator < 0:
                    g = -g
                return _new(numerator // g, denominator // g)
        elif type(numerator) is _PureRat and denominator in (None, 1):
            return numerator  # immutable, so no copy is needed
        return Fraction.__new__(cls, numerator, denominator)

    def __repr__(self):
        return f"Fraction({self._numerator}, {self._denominator})"

    def __add__(a, b):
        if type(b) is _PureRat:
            n = a._numerator * b._denominator + b._numerator * a._denominator
            d = a._denominator * b._denominator
            g = math.gcd(n, d)
            return _new(n // g, d // g)
        if type(b) is int:
            return _new(a._numerator + b * a._denominator, a._denominator)
        return Fraction.__add__(a, b)

    def __radd__(b, a):
        if type(a) is int:
            return _new(a * b._denominator + b._numerator, b._denominator)
        return Fraction.__radd__(b, a)

    def __sub__(a, b):
        if type(b) is _PureRat:
            n = a._numerator * b._denominator - b._numerator * a._denominator
            d = a._denominator * b._denominator
            g = math.gcd(n, d)
            return _new(n // g, d // g)
        if type(b) is int:
            return _new(a._numerator - b * a._denominator, a._denominator)
        return Fraction.__sub__(a, b)

    def __rsub__(b, a):
        if type(a) is int:
            return _new(a * b._denominator - b._numerator, b._denominator)
        return Fraction.__rsub__(b, a)

    def __mul__(a, b):
        if type(b) is _PureRat:
            n = a._numerator * b._numerator
            d = a._denominator * b._denominator
            g = math.gcd(n, d)
            return _new(n // g, d // g)
        if type(b) is int:
            g = math.gcd(b, a._denominator)
            return _new(a._numerator * (b // g), a._denominator // g)
        return Fraction.__mul__(a, b)

    def __rmul__(b, a):
        if type(a) is int:
            g = math.gcd(a, b._denominator)
            return _new(b._numerator * (a // g), b._denominator // g)
        return Fraction.__rmul__(b, a)

    def __truediv__(a, b):
        if type(b) is _PureRat and b._numerator:
            n = a._numerator * b._denominator
            d = a._denominator * b._numerator
            g = math.gcd(n, d)
            if d < 0:
                g = -g
            return _new(n // g, d // g)
        if type(b) is int and b:
            g = math.gcd(a._numerator, b)
            if b < 0:
                g = -g
            return _new(a._numerator // g, a._denominator * (b // g))
        return Fraction.__truediv__(a, b)

    def __rtruediv__(b, a):
        if type(a) is int and b._numerator:
            nb = b._numerator
            g = math.gcd(a, nb)
            if nb < 0:
                g = -g
            return _new((a // g) * b._denominator, nb // g)
        return Fraction.__rtruediv__(b, a)

    def __neg__(a):
        return _new(-a._numerator, a._denominator)

    def __abs__(a):
        return _new(abs(a._numerator), a._denominator)

    def __eq__(a, b):
        if type(b) is _PureRat:
            return (a._numerator == b._numerator
                    and a._denominator == b._denominator)
        if type(b) is int:
            return a._numerator == b and a._denominator == 1
        return Fraction.__eq__(a, b)

    def __lt__(a, b):
        if type(b) is _PureRat:
            return (a._numerator * b._denominator
                    < b._numerator * a._denominator)
        if type(b) is int:
            return a._numerator < b * a._denominator
        return Fraction.__lt__(a, b)

    def __le__(a, b):
        if type(b) is _PureRat:
            return (a._numerator * b._denominator
                    <= b._numerator * a._denominator)
        if type(b) is int:
            return a._numerator <= b * a._denominator
        return Fraction.__le__(a, b)

    def __gt__(a, b):
        if type(b) is _PureRat:
            return (a._numerator * b._denominator
                    > b._numerator * a._denominator)
        if type(b) is int:
            return a._numerator > b * a._denominator
        return Fraction.__gt__(a, b)

    def __ge__(a, b):
        if type(b) is _PureRat:
            return (a._numerator * b._denominator
                    >= b._numerator * a._denominator)
        if type(b) is int:
            return a._numerator >= b * a._denominator
        return Fraction.__ge__(a, b)


_object_new = object.__new__  # bound once: a lookup on the type is slow


def _new(n, d):
    """A pure ``Rat`` from ``n/d`` already in lowest terms with ``d > 0``."""
    q = _object_new(_PureRat)
    q._numerator = n
    q._denominator = d
    return q


_forced = os.environ.get("EVSLAB_BACKEND", "").lower()

if _forced in ("", "gmpy2"):
    try:
        from gmpy2 import mpq as Rat  # type: ignore

        BACKEND = "gmpy2"
    except ImportError:
        if _forced == "gmpy2":
            raise
        Rat = _PureRat
        BACKEND = "pure"
elif _forced == "pure":
    Rat = _PureRat
    BACKEND = "pure"
else:
    raise RuntimeError(f"unknown EVSLAB_BACKEND={_forced!r}")


def rat(num, den=1):
    """Exact rational from integers (or pass a Rat through unchanged)."""
    return Rat(num, den)


def draw_int(rng, lo: int, hi: int) -> int:
    """``rng.randint(lo, hi)``: the same value, leaving ``rng`` in the same
    state.  It runs the ``getrandbits(k)`` rejection loop of
    ``random.Random._randbelow`` without ``randrange``'s other argument
    checks, so ``lo`` and ``hi`` must be ints; ``lo > hi`` raises
    ``ValueError`` as ``randint`` does.  ``tests/test_backend.py`` pins the
    equality on twin streams, so a change to ``randrange`` fails there
    by name."""
    n = hi - lo + 1
    if n <= 0:
        raise ValueError(f"empty range for draw_int({lo}, {hi})")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return lo + r


def draw_rat(rng, lo: int, hi: int, den_hi: int):
    """``Rat(rng.randint(lo, hi), rng.randint(1, den_hi))``, drawn in
    that order through :func:`draw_int`."""
    p = draw_int(rng, lo, hi)
    return Rat(p, draw_int(rng, 1, den_hi))


ZERO = rat(0)
ONE = rat(1)


def rat_str(q) -> str:
    """Render as ``p`` or ``p/q`` (no spaces); inverse of :func:`rat_parse`."""
    n, d = q.numerator, q.denominator
    if d == 1:
        return str(int(n))
    return f"{int(n)}/{int(d)}"


def rat_parse(text: str):
    """Parse ``p`` or ``p/q`` into an exact rational."""
    text = text.strip()
    if "/" in text:
        p, q = text.split("/", 1)
        return Rat(int(p), int(q))
    return Rat(int(text))


def rat_sqrt(q):
    """Exact square root of a non-negative rational, or None if irrational."""
    if q < 0:
        return None
    n, d = int(q.numerator), int(q.denominator)
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn != n or rd * rd != d:
        return None
    return Rat(rn, rd)
