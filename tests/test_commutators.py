"""Commutator expressions: parsing, weight, evaluation, inverse pushing."""

from __future__ import annotations

import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gropes import (
    Comm,
    Gen,
    GroupWord,
    IDENTITY,
    Inv,
    ParseError,
    Prod,
    boundary_word,
    commutator,
    evaluate,
    generator,
    grope_from_expression,
    parse_expression,
    parse_word,
    push_inverses,
    weight,
)
from gropes import commutators
from gropes.commutators import MAX_NESTING, MAX_WORD_LENGTH

# A recursive strategy over expression trees.
exprs = st.recursive(
    st.integers(min_value=1, max_value=4).map(Gen),
    lambda inner: st.one_of(
        inner.map(Inv),
        st.tuples(inner, inner).map(lambda p: Comm(*p)),
        st.lists(inner, min_size=1, max_size=3).map(lambda fs: Prod(tuple(fs))),
    ),
    max_leaves=8,
)


# ---------------------------------------------------------------------------
# weight


def test_weight_rules():
    x, y, z = Gen(1), Gen(2), Gen(3)
    assert weight(x) == 1
    assert weight(Comm(x, y)) == 2
    assert weight(Comm(Comm(x, y), z)) == 3
    assert weight(Prod((Comm(x, y), z))) == 1  # min of factor weights
    assert weight(Prod((Comm(x, y), Comm(x, z)))) == 2
    assert weight(Inv(Comm(x, y))) == 2


@given(exprs)
def test_weight_positive(e):
    assert weight(e) >= 1


@given(exprs)
def test_weight_inverse_invariant(e):
    assert weight(Inv(e)) == weight(e)


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_commutator():
    e = Comm(Gen(1), Gen(2))
    assert evaluate(e).letters == (1, 2, -1, -2)


def test_evaluate_product_and_inverse():
    e = Prod((Gen(1), Inv(Gen(2))))
    assert evaluate(e).letters == (1, -2)


@given(exprs)
def test_evaluate_inverse_law(e):
    assert evaluate(Inv(e)) == evaluate(e).inverse()


@given(exprs, exprs)
def test_evaluate_comm_matches_word_commutator(a, b):
    assert evaluate(Comm(a, b)) == commutator(evaluate(a), evaluate(b))


@given(exprs)
def test_push_inverses_preserves_value(e):
    assert evaluate(push_inverses(e)) == evaluate(e)


@given(exprs)
def test_push_inverses_leaves_only_leaf_inverses(e):
    def ok(node):
        if isinstance(node, Inv):
            return isinstance(node.operand, Gen)
        if isinstance(node, Comm):
            return ok(node.left) and ok(node.right)
        if isinstance(node, Prod):
            return all(ok(f) for f in node.factors)
        return isinstance(node, Gen)

    assert ok(push_inverses(e))


def test_push_inverses_swaps_commutator():
    e = Inv(Comm(Gen(1), Gen(2)))
    assert push_inverses(e) == Comm(Gen(2), Gen(1))


# ---------------------------------------------------------------------------
# parsing expressions


def test_parse_simple_commutator():
    e = parse_expression("[x1,x2]")
    assert e == Comm(Gen(1), Gen(2))


def test_parse_nested_and_product():
    e = parse_expression("[[x1,x2],x3]*x2")
    assert e == Prod((Comm(Comm(Gen(1), Gen(2)), Gen(3)), Gen(2)))


def test_parse_whitespace_insensitive():
    assert parse_expression("[ x1 , x2 ]") == parse_expression("[x1,x2]")


def test_parse_juxtaposition_is_product():
    assert parse_expression("x1 x2") == parse_expression("x1*x2")
    assert parse_expression("[x1,x2][x1,x3]") == parse_expression("[x1,x2]*[x1,x3]")


def test_parse_exponents_expand():
    assert parse_expression("x1^2") == Prod((Gen(1), Gen(1)))
    assert parse_expression("x1^-1") == Inv(Gen(1))
    assert parse_expression("x1^-2") == Prod((Inv(Gen(1)), Inv(Gen(1))))
    assert parse_expression("[x1,x2]^-1") == Inv(Comm(Gen(1), Gen(2)))


def test_parse_parentheses_group():
    assert parse_expression("(x1*x2)^-1") == Inv(Prod((Gen(1), Gen(2))))


@pytest.mark.parametrize(
    "bad",
    ["", "1", "x0", "x", "[x1]", "[x1,x2", "x1^0", "x1^", "[,x2]", "]", "(x1", "x1)"],
)
def test_parse_expression_rejects(bad):
    with pytest.raises(ParseError):
        parse_expression(bad)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_expression("x1^0")
    assert "position 2" in str(exc.value)


# ---------------------------------------------------------------------------
# parsing words


def test_parse_word_identity():
    assert parse_word("1") == IDENTITY
    assert parse_word("x1*1*x2").letters == (1, 2)


def test_parse_word_basic():
    assert parse_word("x1*x2^-1").letters == (1, -2)
    assert parse_word(" x3 ").letters == (3,)


def test_nesting_bound_counts_brackets_and_parentheses_together():
    half = MAX_NESTING // 2
    mixed = "[x1," * half + "(" * (MAX_NESTING - half) + "x2" + ")" * (MAX_NESTING - half)
    expr = parse_expression(mixed + "]" * half)
    assert weight(expr) == half + 1
    chain = parse_expression("[x1," * MAX_NESTING + "x2" + "]" * MAX_NESTING)
    assert weight(chain) == MAX_NESTING + 1
    for deeper in ("(" + mixed + "]" * half + ")", "[x1," + mixed + "]" * (half + 1)):
        with pytest.raises(ParseError, match="nest deeper"):
            parse_expression(deeper)


def test_parse_word_rejects_brackets():
    with pytest.raises(ParseError):
        parse_word("[x1,x2]")


def test_large_exponents_are_linear():
    """A short label with a big exponent must not stall the parser."""
    x, y = generator(1), generator(2)
    start = time.perf_counter()
    assert parse_word("x1^20000").letters == (1,) * 20000
    assert parse_word("x1^20000*x2*x2^-1*x1^-20000") == IDENTITY
    assert parse_word("x2^-10000*x1^-10000") == (x**10000 * y**10000).inverse()
    c = commutator(x, y)
    assert evaluate(parse_expression("[x1,x2]^-5000")) == c**-5000
    assert (c**20000).letters == c.letters * 20000
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"large powers took {elapsed:.2f}s, budget 2s"


def test_word_length_bound_is_predicted_from_the_expression(monkeypatch):
    """Sizes are tested through a lowered bound; nothing large is built."""
    monkeypatch.setattr(commutators, "MAX_WORD_LENGTH", 22)
    assert parse_word("x1^22") == generator(1) ** 22
    assert evaluate(parse_expression("[x1,[x1,[x1,x2]]]")).letters  # 2(1 + 10) = 22
    assert len(evaluate(parse_expression("(x2^2*x1^-3)^-2*[x1,x2]^3")).letters) <= 22
    refused = [
        lambda: parse_word("x1^23"),  # the power itself
        lambda: parse_word("x1^-12*x2^11"),  # the whole word
        lambda: parse_expression("(x1^6)^4"),  # a power of a power
        lambda: parse_expression("[x1,x2]^-6"),  # Comm 2(l + r), then |n| times
        lambda: evaluate(parse_expression("[x1,[x1,[x1,[x1,x2]]]]")),  # 46
    ]
    for attempt in refused:
        with pytest.raises(ParseError, match="exceeds the bound of 22"):
            attempt()
    # A deep chain is a small tree: it parses, and only its word is refused.
    chain = parse_expression("[x1," * MAX_NESTING + "x2" + "]" * MAX_NESTING)
    assert weight(chain) == MAX_NESTING + 1
    with pytest.raises(ParseError, match="exceeds the bound"):
        evaluate(chain)


def test_word_length_bound_clears_real_inputs():
    # depth_words asks for weight 3-8, and the right-nested chain is the
    # longest bracketing of a weight; generated kernels label with generators.
    chain = parse_expression("[x1," * 7 + "x2" + "]" * 7)
    assert weight(chain) == 8
    body, _ = grope_from_expression(chain)
    assert len(boundary_word(body).letters) == 382  # fresh generators: nothing cancels
    assert MAX_WORD_LENGTH >= 1000 * 382
    assert parse_word("x1^20000").letters == (1,) * 20000


def test_a_power_of_the_identity_is_the_identity():
    assert parse_word("1^3") == IDENTITY


def test_word_str_forms():
    assert str(IDENTITY) == "1"
    assert str(generator(1) * generator(1) * generator(2) ** -1) == "x1^2*x2^-1"


@given(st.lists(st.integers(min_value=-4, max_value=4).filter(bool), max_size=10))
def test_word_str_round_trips(raw):
    w = GroupWord(raw)
    assert parse_word(str(w)) == w
