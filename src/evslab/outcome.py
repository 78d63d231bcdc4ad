"""Verdict algebra shared by every checker.

A check ends in one of three states: Proven (exact decision procedure),
Refuted (with a witness that re-evaluates to a violation) or Unfalsified
(sampling found nothing).  Proven never comes from sampling.
"""

import hashlib
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

PROVEN = "Proven"
REFUTED = "Refuted"
UNFALSIFIED = "Unfalsified"


@dataclass
class CheckOutcome:
    verdict: str
    witness: Optional[dict] = None
    samples_tried: int = 0
    seed: int = 0
    detail: str = ""

    def __post_init__(self):
        if self.verdict not in (PROVEN, REFUTED, UNFALSIFIED):
            raise ValueError(f"bad verdict {self.verdict!r}")
        if self.verdict == REFUTED and self.witness is None:
            raise ValueError("Refuted outcome requires a witness")

    @property
    def refuted(self) -> bool:
        return self.verdict == REFUTED

    @property
    def proven(self) -> bool:
        return self.verdict == PROVEN

    def to_dict(self) -> dict:
        d = {"verdict": self.verdict, "samplesTried": self.samples_tried,
             "seed": self.seed}
        if self.witness is not None:
            d["witness"] = self.witness
        if self.detail:
            d["detail"] = self.detail
        return d


def proven(detail: str = "", samples: int = 0, seed: int = 0) -> CheckOutcome:
    return CheckOutcome(PROVEN, None, samples, seed, detail)


def refuted(witness: dict, samples: int = 0, seed: int = 0,
            detail: str = "") -> CheckOutcome:
    return CheckOutcome(REFUTED, witness, samples, seed, detail)


def unfalsified(samples: int, seed: int, detail: str = "") -> CheckOutcome:
    return CheckOutcome(UNFALSIFIED, None, samples, seed, detail)


def check_law(cases: Iterable[tuple], holds: Callable[..., bool],
              witness: Callable[..., dict], detail: str, seed: int,
              proven_detail: Optional[str] = None) -> CheckOutcome:
    """Refuted at the first case where ``holds(*case)`` is false, with
    ``witness(*case)`` as its witness.  When it holds on every case the
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
            return refuted(witness(*case), tried, seed, detail)
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
