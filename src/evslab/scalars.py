"""Exact scalar fields: rationals and Gaussian rationals.

These stand in for the real and complex fields.  Modulus is never taken
as a number; every ``|.|`` comparison is decided through the squared
modulus, which is always rational.  Scalars whose modulus happens to be
rational ("Pythagorean" scalars, e.g. (3+4i)/5) are the only ones
admitted by instances whose action multiplies a radial coordinate by
the modulus.

A ``Scalar`` is stored as one integer triple ``(a, b, d)`` standing for
``(a + b*i)/d``, in canonical form: ``d > 0`` and ``gcd(a, b, d) = 1``,
so zero is ``(0, 0, 1)``.  Two scalars are equal exactly when their
triples are, and ``+ - *`` work on the integers and end in one
three-argument ``gcd``; ``re`` and ``im`` are rationals built on demand.
The integers are plain Python ints under either rational backend.
Each ``Scalar`` computes its exact modulus (or finds it irrational) once
and caches it in a slot, because the checkers reuse one sampled scalar
pool across their nested loops; :func:`modulus` reads that slot directly.
"""

import math
import random

from ._backend import (ZERO, Rat, draw_int, draw_rat, rat, rat_parse,
                       rat_sqrt, rat_str)

ANY_SCALAR = "AnyScalar"
PYTHAGOREAN_ONLY = "PythagoreanOnly"

_UNSET = object()  # modulus cache slot before the first read


class Scalar:
    """A Gaussian rational re + im*i (im = 0 in the real field).

    ``Scalar(re, im)`` takes two rationals; equality, ``hash`` and
    ``repr`` are those of the pair ``(re, im)``.
    """

    __slots__ = ("_a", "_b", "_d", "_modulus")

    def __new__(cls, re, im):
        return from_ints(int(re.numerator), int(re.denominator),
                         int(im.numerator), int(im.denominator))

    def __reduce__(self):
        # copy and pickle must rebuild through __new__, which takes the pair
        return Scalar, (self.re, self.im)

    @property
    def re(self):
        return Rat(self._a, self._d)

    @property
    def im(self):
        return Rat(self._b, self._d)

    def __eq__(self, other):
        if other.__class__ is not Scalar:
            return NotImplemented
        return (self._a == other._a and self._b == other._b
                and self._d == other._d)

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"Scalar(re={self.re!r}, im={self.im!r})"

    def __add__(self, other: "Scalar") -> "Scalar":
        d, f = self._d, other._d
        return _reduced(self._a * f + other._a * d,
                        self._b * f + other._b * d, d * f)

    def __sub__(self, other: "Scalar") -> "Scalar":
        d, f = self._d, other._d
        return _reduced(self._a * f - other._a * d,
                        self._b * f - other._b * d, d * f)

    def __mul__(self, other: "Scalar") -> "Scalar":
        a, b, c, e = self._a, self._b, other._a, other._b
        return _reduced(a * c - b * e, a * e + b * c, self._d * other._d)

    def __neg__(self) -> "Scalar":
        return _new(-self._a, -self._b, self._d)

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def render(self) -> str:
        return render_scalar(self)

    @property
    def exact_modulus(self):
        """|self| as a rational, or None if it is irrational; computed once."""
        m = self._modulus
        if m is _UNSET:
            m = self._modulus = rat_sqrt(modulus_squared(self))
        return m


_object_new = object.__new__  # bound once: a lookup on the type is slow


def _new(a, b, d):
    """The ``Scalar`` ``(a + b*i)/d``, already in canonical form."""
    s = _object_new(Scalar)
    s._a = a
    s._b = b
    s._d = d
    s._modulus = _UNSET
    return s


def _reduced(a, b, d):
    """The ``Scalar`` ``(a + b*i)/d`` for any ``d > 0``."""
    g = math.gcd(a, b, d)
    if g == 1:
        return _new(a, b, d)
    return _new(a // g, b // g, d // g)


def from_ints(a, p, b, q) -> Scalar:
    """The scalar a/p + (b/q)*i, for ints with p, q > 0."""
    return _reduced(a * q, b * p, p * q)


def scalar(re, im=0) -> Scalar:
    return Scalar(rat(re), rat(im))


S_ZERO = scalar(0)
S_ONE = scalar(1)
S_MINUS_ONE = scalar(-1)
S_I = scalar(0, 1)


def modulus_squared(lam: Scalar):
    """|lam|^2 = re^2 + im^2, exact."""
    a, b, d = lam._a, lam._b, lam._d
    return Rat(a * a + b * b, d * d)


def modulus(lam: Scalar):
    """Exact |lam| as a rational; raises for non-Pythagorean scalars."""
    m = lam._modulus
    if m is _UNSET:
        m = lam.exact_modulus
    if m is None:
        raise ValueError(f"scalar {render_scalar(lam)} has irrational modulus")
    return m


def render_scalar(lam: Scalar) -> str:
    """Literal syntax ``p/q`` or ``p/q+r/si`` (no spaces)."""
    if lam.im == 0:
        return rat_str(lam.re)
    im = rat_str(lam.im)
    sign = "+" if lam.im >= 0 else "-"
    if lam.im < 0:
        im = rat_str(-lam.im)
    return f"{rat_str(lam.re)}{sign}{im}i"


def parse_scalar(text: str) -> Scalar:
    """Parse the scalar literal syntax, e.g. ``3/5+4/5i`` or ``-2/3``."""
    text = text.strip()
    if text.endswith("i"):
        body = text[:-1]
        # split at the sign of the imaginary part (not the leading sign)
        for pos in range(len(body) - 1, 0, -1):
            if body[pos] in "+-" and body[pos - 1] not in "+-/":
                re_part, im_part = body[:pos], body[pos] + body[pos + 1 :]
                break
        else:
            re_part, im_part = "0", body
        if im_part in ("", "+"):
            im_part = "1"
        elif im_part == "-":
            im_part = "-1"
        return Scalar(rat_parse(re_part), rat_parse(im_part))
    return Scalar(rat_parse(text), ZERO)


# Unit-modulus Pythagorean scalars used as building blocks for complex
# samples: rational multiples of these keep the modulus rational.
PYTHAGOREAN_UNITS = (
    S_ONE,
    S_MINUS_ONE,
    S_I,
    scalar(0, -1),
    Scalar(rat(3, 5), rat(4, 5)),
    Scalar(rat(3, 5), rat(-4, 5)),
    Scalar(rat(-3, 5), rat(4, 5)),
    Scalar(rat(5, 13), rat(12, 13)),
    Scalar(rat(8, 17), rat(15, 17)),
)


def _random_rat(rng: random.Random, height: int = 6):
    return draw_rat(rng, -height, height, height)


def _random_unit(rng: random.Random) -> Scalar:
    """``rng.choice(PYTHAGOREAN_UNITS)``, drawn through ``draw_int``."""
    return PYTHAGOREAN_UNITS[draw_int(rng, 0, len(PYTHAGOREAN_UNITS) - 1)]


def sample_scalars(radius_bound, count: int, seed: int):
    """Deterministic list of Pythagorean scalars with |lam| <= radius_bound.

    After the fixed scalars 0, +-radius_bound and radius_bound.(3+4i)/5
    come products q.u of a rational 0 <= q <= radius_bound and a drawn
    unit u of ``PYTHAGOREAN_UNITS``, so every modulus is rational.
    """
    radius_bound = rat(radius_bound)
    if radius_bound <= 0:
        raise ValueError("radiusBound must be > 0")
    rng = random.Random(seed)
    fixed = (S_ZERO, S_ONE, S_MINUS_ONE, Scalar(rat(3, 5), rat(4, 5)))
    out = [scale_unit(u, radius_bound) for u in fixed[:count]]
    while len(out) < count:
        q = abs(_random_rat(rng))
        if q > radius_bound:
            q = radius_bound * q.denominator / (q.denominator + q.numerator)
        out.append(scale_unit(_random_unit(rng), q))
    return out


def scale_unit(u: Scalar, q) -> Scalar:
    """The scalar q*u for a rational q."""
    n, m = int(q.numerator), int(q.denominator)
    return _reduced(u._a * n, u._b * n, u._d * m)


def sample_scalar_tuples(k: int, count: int, seed: int, mode: str):
    """Tuples of k scalars for law checking.

    In PythagoreanOnly mode every tuple lies on a single Pythagorean ray
    (rational multiples of one unit), so sums and products of tuple
    members stay Pythagorean and remain admissible for modulus-acting
    instances.
    """
    rng = random.Random(seed)
    specials = [S_ZERO, S_ONE, S_MINUS_ONE]
    if mode == ANY_SCALAR:
        specials.append(S_I)
    # deterministic boundary tuples first; nothing is drawn before the cut
    out = [tuple([lam] * k) for lam in specials]
    out.append(tuple(specials[i % len(specials)] for i in range(k)))
    out = out[:count]
    while len(out) < count:
        if mode == PYTHAGOREAN_ONLY:
            u = _random_unit(rng)
            tup = tuple(scale_unit(u, _random_rat(rng, 5)) for _ in range(k))
        else:
            tup = tuple(
                Scalar(_random_rat(rng, 5), _random_rat(rng, 5))
                if rng.random() < 0.4
                else Scalar(_random_rat(rng, 5), ZERO)
                for _ in range(k)
            )
        out.append(tup)
    return out
