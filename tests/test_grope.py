"""Grope trees: construction, class, traversal, boundary words."""

from __future__ import annotations

import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gropes.commutators as commutators_module
from gropes import (
    IDENTITY,
    Grope,
    ParseError,
    Stage,
    Tip,
    ValidationError,
    boundary_word,
    class_of,
    commutator,
    default_assignment,
    evaluate,
    generator,
    grope_from_expression,
    iter_stages,
    parse_expression,
    path_doc,
    random_grope,
    stage_at,
    tips,
    validate_grope,
    weight,
)

from gropes.grope import _slots
from gropes.splitting import _thaw

from conftest import dyadic_tower, is_dyadic, words


# ---------------------------------------------------------------------------
# construction


def test_stage_needs_genus():
    with pytest.raises(ValidationError):
        Stage(())


def test_pair_needs_two_slots():
    with pytest.raises(ValidationError):
        Stage(((Tip("t1"),),))


def test_minimal_grope():
    g = Grope(Stage(((Tip("t1"), Tip("t2")),)))
    assert class_of(g) == 2
    assert tips(g) == ["t1", "t2"]
    assert is_dyadic(g)
    assert not g.closed


def test_closed_flag():
    g = Grope(Stage(((Tip("t1"), Tip("t2")),)), closed=True)
    assert g.closed


def _chain(depth: int, last: str = "t0", wide: bool = False) -> Stage:
    """Stages nested depth deep along the beta slots; wide gives the first stage a second pair."""
    slot: Tip | Stage = Tip(last)
    for k in range(depth):
        slot = Stage(((Tip(f"u{k}"), slot),))
    pairs = slot.pairs + (((Tip("w1"), Tip("w2")),) if wide else ())
    return Stage(pairs)


def test_stage_equality_is_structural_at_any_depth():
    """Far deeper than the recursion limit, == reads as the dataclass's would."""
    deep = 5000
    a, b = _chain(deep), _chain(deep)
    assert a is not b and a == b and not a != b
    assert a != _chain(deep, last="t1")  # the deepest tip differs
    assert a != _chain(deep, wide=True)  # the first stage's genus differs
    assert Grope(a) == Grope(b) != Grope(b, closed=True)
    shallow = Stage(((Tip("t1"), Tip("t2")),))
    assert shallow != Stage(((Tip("t1"), shallow),))  # a tip against a stage
    assert shallow != (("t1", "t2"),) and shallow != shallow.pairs
    assert shallow == Stage(((Tip("t1"), Tip("t2")),))


def test_a_stage_far_deeper_than_the_recursion_limit_hashes():
    deep = _chain(5000)
    assert hash(deep) == hash(deep)
    assert {deep: 1}[deep] == 1


def test_equal_stages_built_separately_hash_equal():
    for depth in (1, commutators_module.MAX_NESTING, 5000):
        a, b = _chain(depth, wide=True), _chain(depth, wide=True)
        assert a is not b and a == b and hash(a) == hash(b)
        assert hash(Grope(a)) == hash(Grope(b))
    shared = Stage(((Tip("t1"), Tip("t2")),))
    twice = Stage(((shared, shared),))  # built through the API, a stage may be shared
    assert hash(twice) == hash(Stage(((Stage(shared.pairs), Stage(shared.pairs)),)))
    assert len({_chain(50), _chain(50), _chain(50, last="t1")}) == 2
    stages = [stage for _, stage in iter_stages(random_grope(random.Random(1), 6, genus=2))]
    assert len({hash(stage) for stage in stages}) == len(stages) > 10


# ---------------------------------------------------------------------------
# class


def test_class_sums_along_pairs():
    # Stage over (class-2 subtree, tip): class = 2 + 1.
    g, _ = grope_from_expression(parse_expression("[[x1,x2],x3]"))
    assert class_of(g) == 3


def test_class_is_min_over_pairs():
    deep = Stage(((Tip("t1"), Tip("t2")),))
    g = Grope(Stage(((deep, Tip("t3")), (Tip("t4"), Tip("t5")))))
    assert class_of(g) == 2  # second pair only reaches 1 + 1


def test_class_of_a_stage_far_deeper_than_the_recursion_limit():
    """Each level of the chain adds its tip's 1; a second pair of two tips caps the class at 2."""
    assert class_of(_chain(5000)) == class_of(Grope(_chain(5000))) == 5001
    assert class_of(_chain(5000, wide=True)) == 2
    assert class_of(Tip("t1")) == 1


def test_class_of_a_stage_shared_at_two_depths():
    """A stage reached first from the root and again from deeper down is valued before both."""
    shared = Stage(((Tip("t1"), Tip("t2")),))  # class 2
    deeper = Stage(((shared, Tip("t3")),))  # class 3
    assert class_of(Stage(((shared, deeper),))) == 5
    assert class_of(Stage(((deeper, shared),))) == 5


def test_dyadic_tower_class():
    for k in range(2, 9):
        g, _ = dyadic_tower(k)
        assert class_of(g) == k
        assert is_dyadic(g)


def test_cap_count_law_small():
    """Dyadic class-k gropes have exactly k tips."""
    for k in range(2, 9):
        g, _ = dyadic_tower(k)
        assert len(tips(g)) == k


def test_genus_two_not_dyadic():
    g = Grope(Stage(((Tip("a1"), Tip("a2")), (Tip("b1"), Tip("b2")))))
    assert not is_dyadic(g)
    assert len(tips(g)) == 4


# ---------------------------------------------------------------------------
# traversal and surgery on the tree


def test_iter_stages_prefix_paths():
    g, _ = grope_from_expression(parse_expression("[[x1,x2],x3]"))
    paths = [p for p, _ in iter_stages(g)]
    assert paths == [(), ((0, 0),)]


def test_stage_at_round_trip():
    g, _ = grope_from_expression(parse_expression("[[[x1,x2],x3],x4]"))
    for path, stage in iter_stages(g):
        assert stage_at(g, path) is stage


def test_stage_at_rejects_bad_paths():
    g, _ = grope_from_expression(parse_expression("[[x1,x2],x3]"))
    with pytest.raises(ValidationError):
        stage_at(g, ((5, 0),))
    with pytest.raises(ValidationError):
        stage_at(g, ((0, 1),))  # that slot holds a tip


def test_path_doc_names_sides():
    assert path_doc(((0, 0), (1, 1))) == [[0, "alpha"], [1, "beta"]]


# The recursive walkers that _slots replaced, kept as oracles.


def _oracle_iter_stages(root: Stage) -> list:
    out = []

    def walk(stage, path):
        out.append((path, stage))
        for j, (a, b) in enumerate(stage.pairs):
            if isinstance(a, Stage):
                walk(a, path + ((j, 0),))
            if isinstance(b, Stage):
                walk(b, path + ((j, 1),))

    walk(root, ())
    return out


def _oracle_tips(root: Stage) -> list[str]:
    out = []

    def walk(stage):
        for a, b in stage.pairs:
            for slot in (a, b):
                if isinstance(slot, Tip):
                    out.append(slot.tip_id)
                else:
                    walk(slot)

    walk(root)
    return out


@st.composite
def stage_trees(draw) -> Stage:
    """Stages of genus 1-3, up to 3 levels deep, whose slots are often both stages."""
    fresh = itertools.count(1)

    def slot(depth: int):
        if depth == 0 or draw(st.booleans()):
            return Tip(f"t{next(fresh)}")
        return stage(depth - 1)

    def stage(depth: int) -> Stage:
        return Stage(tuple((slot(depth), slot(depth)) for _ in range(draw(st.integers(1, 3)))))

    return stage(3)


walker_roots = st.one_of(
    stage_trees(),
    st.builds(
        lambda seed, c, genus: random_grope(random.Random(seed), c, genus=genus).root,
        st.integers(0, 10**6),
        st.integers(2, 6),
        st.integers(1, 3),
    ),
)


@settings(max_examples=200, deadline=None)
@given(walker_roots, st.data())
def test_slots_is_the_traversal_order(root, data):
    assert list(iter_stages(root)) == _oracle_iter_stages(root)
    assert tips(root) == _oracle_tips(root)

    full = list(_slots(root))
    assert [p for p, _ in full] == sorted(p for p, _ in full)  # lexicographic order of paths
    assert all(stage_at(root, p[:-1]).pairs[p[-1][0]][p[-1][1]] is slot for p, slot in full)
    # A first-stage pair to start from, or one past the genus.
    start = data.draw(st.integers(0, len(root.pairs)))
    assert list(_slots(root, start)) == [(p, s) for p, s in full if p[0][0] >= start]
    for bound in range(6):
        assert list(_slots(root, start, bound)) == [
            (p, s) for p, s in _slots(root, start) if len(p) <= bound
        ]


@pytest.mark.parametrize("side", [0, 1], ids=["alpha", "beta"])
@settings(max_examples=100, deadline=None)
@given(walker_roots, stage_trees(), st.data())
def test_slots_walks_on_through_a_splice(side, root, spliced, data):
    """Pairs spliced in place of the pair just yielded are walked from the next slot on."""
    live, new_pairs = _thaw(root), _thaw(spliced)
    full = list(_slots(live))
    at = data.draw(st.sampled_from([p for p, _ in full if p[-1][1] == side]))
    parent, j = stage_at(live, at[:-1]), at[-1][0]
    # A stage is yielded at the depth bound, which the walk does not enter.
    bound = len(at) if type(parent[j][side]) is list else math.inf
    walk = _slots(live, max_depth=bound)
    for path, _ in walk:
        if path == at:
            break
    parent[j : j + 1] = new_pairs
    rest = list(walk)
    after = [(p, s) for p, s in _slots(live, max_depth=bound) if p > at and p[: len(at)] != at]
    assert rest == after


# ---------------------------------------------------------------------------
# boundary words


def test_boundary_of_genus_one():
    g = Grope(Stage(((Tip("t1"), Tip("t2")),)))
    assert boundary_word(g).letters == (1, 2, -1, -2)


def test_boundary_of_genus_two_multiplies_pairs():
    g = Grope(Stage(((Tip("a1"), Tip("a2")), (Tip("b1"), Tip("b2")))))
    assert boundary_word(g).letters == (1, 2, -1, -2, 3, 4, -3, -4)


def test_boundary_nested_substitutes_subtree_boundary():
    g, asg = grope_from_expression(parse_expression("[[x1,x2],x3]"))
    expected = evaluate(parse_expression("[[x1,x2],x3]"))
    assert boundary_word(g, asg) == expected


def test_boundary_requires_total_assignment():
    g = Grope(Stage(((Tip("t1"), Tip("t2")),)))
    with pytest.raises(ValidationError):
        boundary_word(g, {"t1": generator(1)})


@given(st.lists(st.tuples(words, words), min_size=1, max_size=6), st.booleans())
def test_boundary_matches_a_pairwise_commutator_fold(pairs, nest):
    """One reduction per stage gives the word of folding [u, v] pair by pair."""
    tips_ = [(Tip(f"a{j}"), Tip(f"b{j}")) for j in range(len(pairs))]
    asg = {}
    for (ta, tb), (u, v) in zip(tips_, pairs):
        asg[ta.tip_id], asg[tb.tip_id] = u, v
    stage = Stage(tuple(tips_))
    expected = IDENTITY
    for u, v in pairs:
        expected = expected * commutator(u, v)
    if nest:
        # The same stage glued on the alpha curve of a genus-1 root, next to x9.
        stage = Stage(((stage, Tip("z")),))
        asg["z"] = generator(9)
        expected = commutator(expected, generator(9))
    assert boundary_word(stage, asg) == expected


def test_boundary_word_is_linear_in_stage_width():
    """A genus-8000 stage used to take about 25 s: each pair re-reduced the whole word."""
    n = 8000
    g = Grope(Stage(tuple((Tip(f"a{j}"), Tip(f"b{j}")) for j in range(n))))
    # Pairs [x1, x2] and [x2, x1] alternate and cancel.
    cancelling = {f"{side}{j}": generator(1 + (j + (side == "b")) % 2) for j in range(n) for side in "ab"}
    start = time.perf_counter()
    fresh = boundary_word(g)
    assert boundary_word(g, cancelling) == IDENTITY
    elapsed = time.perf_counter() - start
    assert fresh.letters == tuple(
        x for j in range(n) for x in (2 * j + 1, 2 * j + 2, -(2 * j + 1), -(2 * j + 2))
    )
    assert elapsed < 2.0, f"genus-{n} boundary words took {elapsed:.2f}s, budget 2s"


def test_boundary_word_refuses_from_the_predicted_length(monkeypatch):
    """A tip counts its word's letters and a pair twice the sum of its two sides."""
    g = Grope(Stage(((Stage(((Tip("t1"), Tip("t2")),)), Tip("t3")),)))
    asg = {"t1": generator(1) * generator(2), "t2": generator(3), "t3": generator(1)}
    # [[x1 x2, x3], x1] spells 2 * (2 * (2 + 1) + 1) = 14 letters before reduction.
    monkeypatch.setattr(commutators_module, "MAX_WORD_LENGTH", 14)
    assert len(boundary_word(g, asg)) == 14
    monkeypatch.setattr(commutators_module, "MAX_WORD_LENGTH", 13)
    with pytest.raises(ParseError, match="exceeds the bound of 13 letters"):
        boundary_word(g, asg)


def test_boundary_word_measures_a_shared_stage_once():
    """60 levels of (s, s) alias one stage: 2^60 paths, 61 nodes."""
    stage = Stage(((Tip("a"), Tip("b")),))
    for _ in range(60):
        stage = Stage(((stage, stage),))
    start = time.perf_counter()
    with pytest.raises(ParseError, match="exceeds the bound"):
        boundary_word(stage, {"a": generator(1), "b": generator(2)})
    assert boundary_word(stage, {"a": IDENTITY, "b": IDENTITY}) == IDENTITY
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"


def test_boundary_word_measures_a_shared_stage_before_assigning():
    """The default assignment walks every path, so the length is measured first."""
    stage = Stage(((Tip("a"), Tip("b")),))
    for _ in range(40):
        stage = Stage(((stage, stage),))
    start = time.perf_counter()
    with pytest.raises(ParseError, match="exceeds the bound"):
        boundary_word(stage)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"


def test_default_assignment_in_tip_order():
    g, _ = grope_from_expression(parse_expression("[[x1,x2],x3]"))
    asg = default_assignment(g)
    assert [str(asg[t]) for t in tips(g)] == ["x1", "x2", "x3"]


# ---------------------------------------------------------------------------
# building from expressions


@pytest.mark.parametrize(
    "text",
    ["[x1,x2]", "[[x1,x2],x3]", "[x1,[x2,x3]]", "[[x1,x2],[x3,x4]]", "[x1,x2]*[x1,x3]"],
)
def test_grope_from_expression_class_is_weight(text):
    expr = parse_expression(text)
    g, asg = grope_from_expression(expr)
    assert class_of(g) == weight(expr)
    assert boundary_word(g, asg) == evaluate(expr)


def test_grope_from_expression_fresh_tips():
    g, asg = grope_from_expression(parse_expression("[x1,x1]"))
    assert tips(g) == ["t1", "t2"]
    assert [str(asg[t]) for t in tips(g)] == ["x1", "x1"]


def test_grope_from_expression_inverse_assignment():
    g, asg = grope_from_expression(parse_expression("[x1^-1,x2]"))
    assert str(asg["t1"]) == "x1^-1"


@pytest.mark.parametrize("text", ["x1", "x1*x2", "[x1,x2]*x3"])
def test_grope_from_expression_rejects_weight_one(text):
    with pytest.raises(ValidationError):
        grope_from_expression(parse_expression(text))


# ---------------------------------------------------------------------------
# validation


def test_validate_clean_grope():
    g, _ = grope_from_expression(parse_expression("[[x1,x2],x3]"))
    assert validate_grope(g) == []


def test_validate_duplicate_tips():
    g = Grope(Stage(((Tip("t1"), Tip("t1")),)))
    assert any("duplicate tip" in p for p in validate_grope(g))


def test_validate_aliased_subtree():
    shared = Stage(((Tip("u1"), Tip("u2")),))
    g = Grope(Stage(((shared, shared),)))
    assert any("alias" in p for p in validate_grope(g))


# ---------------------------------------------------------------------------
# exhaustive shapes: every dyadic class-k tree has k tips


def _dyadic_shapes(k: int, fresh: itertools.count):
    """All dyadic (genus-1 everywhere) trees of class exactly k."""
    if k == 1:
        yield Tip(f"t{next(fresh)}")
        return
    for a in range(1, k):
        for left in _dyadic_shapes(a, fresh):
            for right in _dyadic_shapes(k - a, fresh):
                yield Stage(((left, right),))


def count_dyadic_shapes(k: int) -> int:
    return sum(1 for _ in _dyadic_shapes(k, itertools.count(1)))


def test_cap_count_all_shapes_up_to_six():
    for k in range(2, 7):
        n = 0
        for root in _dyadic_shapes(k, itertools.count(1)):
            g = Grope(root)
            assert class_of(g) == k
            assert len(tips(g)) == k
            assert is_dyadic(g)
            n += 1
        # Catalan numbers count the shapes: 1, 2, 5, 14, 42.
        assert n == [1, 2, 5, 14, 42][k - 2]
