"""Verdict algebra shared by every checker.

A check ends in one of three states: Proven (exact decision procedure),
Refuted (with a witness that re-evaluates to a violation) or Unfalsified
(sampling found nothing).  Proven never comes from sampling.
"""

import hashlib
from typing import Callable, Iterable, Optional, Union

PROVEN = "Proven"
REFUTED = "Refuted"
UNFALSIFIED = "Unfalsified"


class CheckOutcome:
    """One check's verdict, its witness (a dict, required when Refuted),
    the number of samples tried, the seed and a ``detail`` sentence.

    ``witness`` and ``detail`` may each be given as a zero-argument
    function instead of a value.  It runs once, on the first read of the
    attribute, and its result replaces it; a caller that reads only
    ``verdict``, ``proven`` or ``refuted`` never runs it.  A Refuted
    witness function that returns None raises ValueError when read.
    Equality and ``repr`` read both, so they match the outcome built from
    the values.
    """

    __slots__ = ("verdict", "_witness", "samples_tried", "seed", "_detail")
    __hash__ = None

    def __init__(self, verdict: str,
                 witness: Union[None, dict, Callable[[], dict]] = None,
                 samples_tried: int = 0, seed: int = 0,
                 detail: Union[str, Callable[[], str]] = ""):
        if verdict not in (PROVEN, REFUTED, UNFALSIFIED):
            raise ValueError(f"bad verdict {verdict!r}")
        if verdict == REFUTED and witness is None:
            raise ValueError("Refuted outcome requires a witness")
        self.verdict = verdict
        self._witness = witness
        self.samples_tried = samples_tried
        self.seed = seed
        self._detail = detail

    @property
    def witness(self) -> Optional[dict]:
        w = self._witness
        if callable(w):
            w = w()
            if w is None and self.verdict == REFUTED:
                raise ValueError("Refuted outcome requires a witness")
            self._witness = w
        return w

    @property
    def detail(self) -> str:
        d = self._detail
        if callable(d):
            d = self._detail = d()
        return d

    @property
    def refuted(self) -> bool:
        return self.verdict == REFUTED

    @property
    def proven(self) -> bool:
        return self.verdict == PROVEN

    def _fields(self) -> tuple:
        return (self.verdict, self.witness, self.samples_tried, self.seed,
                self.detail)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return (f"CheckOutcome(verdict={self.verdict!r}, "
                f"witness={self.witness!r}, "
                f"samples_tried={self.samples_tried!r}, "
                f"seed={self.seed!r}, detail={self.detail!r})")


def proven(detail: Union[str, Callable[[], str]], samples: int = 0,
           seed: int = 0) -> CheckOutcome:
    return CheckOutcome(PROVEN, None, samples, seed, detail)


def refuted(witness: Union[dict, Callable[[], dict]], samples: int = 0,
            seed: int = 0,
            detail: Union[str, Callable[[], str]] = "") -> CheckOutcome:
    return CheckOutcome(REFUTED, witness, samples, seed, detail)


def unfalsified(samples: int, seed: int, detail: str = "") -> CheckOutcome:
    return CheckOutcome(UNFALSIFIED, None, samples, seed, detail)


# partner-set cap for the pairwise laws: keeps a driver linear in its
# corpus size while every generated set still appears on the outer side
PAIR_CAP = 40


def check_law(cases: Iterable[tuple], holds: Callable[..., bool],
              witness: Callable[..., dict],
              detail: Union[str, Callable[..., str]], seed: int,
              proven_detail: Optional[str] = None) -> CheckOutcome:
    """Refuted at the first case where ``holds(*case)`` is false, with
    ``witness(*case)`` as its witness and ``detail``, or ``detail(*case)``
    when it is a function, as its detail.  When it holds on every case the
    run ends Proven with ``proven_detail``, or Unfalsified when that is
    None.  ``samples_tried`` counts the cases evaluated.

    ``holds`` looks its deciders up when the law runs, so a rebound
    module global (a tracer, a test double) is seen; an object the law
    constructs is built once, as an entry of its case.
    """
    tried = 0
    for case in cases:
        tried += 1
        if not holds(*case):
            return refuted(witness(*case), tried, seed,
                           detail(*case) if callable(detail) else detail)
    if proven_detail is None:
        return unfalsified(tried, seed)
    return proven(proven_detail, tried, seed)


def rendered(*keys: str) -> Callable[..., dict]:
    """Witness function: a case's leading entries rendered under ``keys``."""
    return lambda *case: {k: v.render() for k, v in zip(keys, case)}


def subseed(seed: int, check_id: str) -> int:
    """Named per-check substream: adding checks never perturbs others."""
    digest = hashlib.sha256(f"{seed}:{check_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def per_variable_budget(budget: int, k: int) -> int:
    """Samples per universally quantified variable of a k-variable law."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    n = round(budget ** (1.0 / k))
    while n ** k < budget:
        n += 1
    return max(n, 2)
