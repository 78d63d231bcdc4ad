import sys

import pytest

from evslab import make_instance
from evslab.outcome import (PROVEN, REFUTED, UNFALSIFIED, CheckOutcome,
                            check_law, proven, refuted, unfalsified)
from evslab.setlaws import check_absorbing_closure_laws
from evslab.topology import check_bounded_laws


def _counted(value, calls):
    def fn():
        calls.append(value)
        return value
    return fn


@pytest.mark.parametrize("verdict,witness,detail", [
    (PROVEN, None, "exact argument"),
    (REFUTED, {"x": "1", "_raw": (1,)}, "x escapes"),
    (UNFALSIFIED, None, ""),
])
def test_lazy_outcome_matches_the_eager_one(verdict, witness, detail):
    eager = CheckOutcome(verdict, witness, 3, 5, detail)
    calls = []
    lazy = CheckOutcome(verdict,
                        None if witness is None else _counted(witness, calls),
                        3, 5, _counted(detail, calls))
    assert (lazy.verdict, lazy.proven, lazy.refuted) == \
        (verdict, verdict == PROVEN, verdict == REFUTED)
    assert calls == []  # reading the verdict runs no function
    assert lazy == eager and eager == lazy
    assert repr(lazy) == repr(eager)
    assert (lazy.witness, lazy.detail) == (witness, detail)
    assert sorted(calls, key=repr) == sorted(
        [v for v in (witness, detail) if v is not None], key=repr)


def test_outcome_repr_and_equality_keep_the_field_form():
    o = refuted(lambda: {"x": "1"}, 2, 7, lambda: "d")
    assert repr(o) == ("CheckOutcome(verdict='Refuted', witness={'x': '1'}, "
                       "samples_tried=2, seed=7, detail='d')")
    assert o == refuted({"x": "1"}, 2, 7, "d")
    assert o != refuted({"x": "2"}, 2, 7, "d")
    assert proven("p") != unfalsified(0, 0, "p")
    assert proven("p") != "p"


def test_refuted_witness_function_returning_none_raises_on_read():
    with pytest.raises(ValueError):
        refuted(None)
    o = refuted(lambda: None)
    assert o.refuted
    with pytest.raises(ValueError):
        o.witness
    with pytest.raises(ValueError):
        repr(o)


@pytest.fixture
def rat_str_calls(monkeypatch):
    """Count rat_str calls through every evslab module's reference."""
    calls = []
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "evslab" and hasattr(mod, "rat_str"):
            orig = mod.rat_str

            def counted(q, _orig=orig):
                calls.append(q)
                return _orig(q)
            monkeypatch.setattr(mod, "rat_str", counted)
    return calls


def test_law_runs_render_nothing_they_do_not_report(rat_str_calls):
    H = make_instance("halfline")
    bounded = check_bounded_laws(H, 300, 7)
    closure = check_absorbing_closure_laws(H, 300, 7)
    assert all(o.proven for o in (*bounded.values(), *closure.values()))
    assert rat_str_calls == []


def test_law_detail_may_depend_on_the_refuting_case():
    def law(detail):
        return check_law([(1, 2), (3, 3), (5, 4)], lambda a, b: a < b,
                         lambda a, b: {"a": a, "b": b}, detail, 7)

    assert law(lambda a, b: "equal" if a == b else "greater") == \
        refuted({"a": 3, "b": 3}, 2, 7, "equal")
    assert law("not less").detail == "not less"
