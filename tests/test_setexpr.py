import random

import pytest

from evslab import sets as st
from evslab._backend import Rat, rat
from evslab.instances import FULL_SUBSPACE, ZERO_SUBSPACE, line
from evslab.setexpr import SetExprError, parse_set_expression
from evslab.sets import INF, iu


def test_parse_interval_union_examples():
    assert parse_set_expression("[0,1/2) U (3/4,2]") == \
        iu((0, Rat(1, 2)), (Rat(3, 4), 2, False, True))
    assert parse_set_expression("[0,inf)") == iu((0, INF))
    assert parse_set_expression(" [ 0 , 1 ) ") == iu((0, 1))


def test_parse_canonicalizes():
    assert parse_set_expression("[0,1) U [1,2)") == iu((0, 2))


def test_render_parse_round_trip_halfline():
    rng = random.Random(17)
    for _ in range(300):
        A = st.random_interval_union(rng)
        assert parse_set_expression(A.render()) == A


def test_render_parse_round_trip_dict2():
    rng = random.Random(18)
    for _ in range(200):
        A = st.random_box_union(rng)
        assert parse_set_expression(A.render(), "dict2") == A


def test_parse_box_union():
    u = parse_set_expression("[0,1)x[0,2] U [0,3)x[0,1)", "dict2")
    assert u == st.box_union([st.box(1, 2, b_closed=True), st.box(3, 1)])


def test_parse_lattice_family():
    fam = parse_set_expression("{zero,span(1,2),full}", "lattice2")
    assert fam.member(ZERO_SUBSPACE)
    assert fam.member(line(1, 2))
    assert fam.member(FULL_SUBSPACE)
    assert not fam.member(line(1, 0))
    assert parse_set_expression("ALL", "lattice2").is_all()
    cof = parse_set_expression("ALL\\{span(1,0)}", "lattice2")
    assert not cof.member(line(1, 0)) and cof.member(line(0, 1))
    assert cof.render() == "ALL\\{span(1,0)}"
    for value in (fam, cof):
        assert parse_set_expression(value.render(), "lattice2") == value


def test_error_offsets():
    with pytest.raises(SetExprError) as e:
        parse_set_expression("[0,1) U (2,1")
    assert e.value.offset == 12  # the missing closing bracket
    with pytest.raises(SetExprError) as e:
        parse_set_expression("[-1,2)")
    assert e.value.offset == 1  # the negative endpoint
    for text, kind, message, offset in [
            ("[0 1)", "halfline", "expected ','", 3),
            ("[0,1) U 2,3)", "halfline",
             "expected '[' or '(' starting a piece", 8),
            ("[0,-1)", "halfline", "right endpoint must be >= 0", 3),
            ("{zero,line}", "lattice2",
             "expected 'zero', 'full' or 'span(p/q,r/s)'", 6)]:
        with pytest.raises(SetExprError) as e:
            parse_set_expression(text, kind)
        assert (str(e.value), e.value.offset) == \
            (f"{message} (at offset {offset})", offset)


def test_domain_errors():
    with pytest.raises(SetExprError):
        parse_set_expression("[0,inf]")  # inf cannot be right-closed
    with pytest.raises(SetExprError):
        parse_set_expression("[1,2)x[0,3)", "dict2")  # box not anchored
    with pytest.raises(SetExprError):
        parse_set_expression("[0,1) [0,2)")  # trailing input
    with pytest.raises(SetExprError, match="zero denominator"):
        parse_set_expression("[1/0,2)")  # no rational p/0
    with pytest.raises(ValueError):
        parse_set_expression("[0,1)", "cone:1")  # no grammar for the cone
