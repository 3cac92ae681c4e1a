"""Free-group words, their expansion, and lower-central-series depth."""

from __future__ import annotations

import itertools
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gropes import (
    DEFAULT_CUTOFF,
    Depth,
    GroupWord,
    GrowthLimitError,
    IDENTITY,
    ValidationError,
    commutator,
    generator,
    lcs_depth,
    unoriented_key,
)

import gropes.words as words_module
from gropes.words import _PRIME, _essential, _expand, _multilinear, _witness

from conftest import raw_letter_lists, words
from magnus_oracle import (
    commutator_letters,
    depth_oracle,
    left_normed_letters,
    letter_series,
    magnus_oracle,
    poly_mul,
    reduce_letters,
)


# ---------------------------------------------------------------------------
# reduction


def test_reduce_cancels_adjacent_inverses():
    assert GroupWord([1, -1]) == IDENTITY
    assert GroupWord([1, 2, -2, 1]).letters == (1, 1)
    assert GroupWord([1, 2, -1, -2]).letters == (1, 2, -1, -2)


def test_reduce_cascades():
    # x y y^-1 x^-1 collapses completely, in two waves.
    assert GroupWord([1, 2, -2, -1]) == IDENTITY
    assert GroupWord([3, 1, 2, -2, -1, -3, 4]).letters == (4,)


def test_constructor_reduces():
    assert GroupWord((1, -1, 2)).letters == (2,)
    assert GroupWord(()) == IDENTITY
    with pytest.raises(ValidationError):
        GroupWord((0,))


@given(raw_letter_lists)
def test_reduce_matches_oracle(raw):
    assert GroupWord(raw).letters == tuple(reduce_letters(raw))


@given(raw_letter_lists)
def test_reduce_idempotent(raw):
    w = GroupWord(raw)
    assert GroupWord(w.letters) == w


@given(raw_letter_lists)
def test_reduced_invariant_no_adjacent_cancellation(raw):
    ls = GroupWord(raw).letters
    assert all(a != -b for a, b in zip(ls, ls[1:]))


# ---------------------------------------------------------------------------
# group laws


@given(words, words)
def test_multiply_reduces(a, b):
    ab = a * b
    assert ab.letters == GroupWord(a.letters + b.letters).letters


@given(words)
def test_identity_laws(w):
    assert IDENTITY * w == w
    assert w * IDENTITY == w


@given(words)
def test_inverse_law(w):
    assert w * w.inverse() == IDENTITY
    assert w.inverse() * w == IDENTITY


@given(words, words, words)
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


def test_invert_reverses_and_flips():
    assert GroupWord((1, 2)).inverse().letters == (-2, -1)


def test_word_operators():
    x, y = generator(1), generator(2)
    assert (x * y).letters == (1, 2)
    assert (x**-1).letters == (-1,)
    assert (x**3).letters == (1, 1, 1)
    assert (x**0) == IDENTITY
    assert x.inverse() == x**-1


def test_commutator_definition():
    x, y = generator(1), generator(2)
    assert commutator(x, y).letters == (1, 2, -1, -2)
    assert commutator(x, x) == IDENTITY


@given(words, words)
def test_commutator_inverse_swaps(a, b):
    assert commutator(a, b).inverse() == commutator(b, a)


# ---------------------------------------------------------------------------
# unoriented keys


@given(words)
def test_unoriented_key_orientation_free(w):
    assert unoriented_key(w) == unoriented_key(w.inverse())


@given(words)
def test_unoriented_key_is_min(w):
    assert unoriented_key(w) == min(w.letters, w.inverse().letters)


def test_unoriented_key_identity():
    assert unoriented_key(IDENTITY) == ()


# ---------------------------------------------------------------------------
# the expansion oracle
#
# tests/magnus_oracle.py multiplies letter series out by brute force.  These
# tests check it against series worked by hand and against the group laws,
# so that the package's expansion and depth can be checked against it.


def test_series_truncates_over_cutoff_terms():
    assert letter_series(-1, 2) == {(): 1, (1,): -1, (1, 1): 1}
    assert poly_mul({(): 1, (1, 2): 1}, {(): 1, (3,): 1}, 2) == {(): 1, (1, 2): 1, (3,): 1}


def test_series_drops_zero_coefficients():
    # (1 + X1)(1 - X1 + X1^2) = 1 + X1^3: degrees 1 and 2 cancel.
    assert poly_mul({(): 1, (1,): 1}, {(): 1, (1,): -1, (1, 1): 1}, 3) == {(): 1, (1, 1, 1): 1}


def test_series_product_truncates():
    a = {(): 1, (1,): 1}
    b = {(): 1, (2,): 1}
    ab = poly_mul(a, b, 2)
    # (1+X1)(1+X2) = 1 + X1 + X2 + X1X2
    assert ab == {(): 1, (1,): 1, (2,): 1, (1, 2): 1}
    # X1X2 * X1X2 would have degree 4 > 2: dropped entirely.
    sq = poly_mul(ab, ab, 2)
    assert all(len(m) <= 2 for m in sq)


def test_magnus_identity():
    assert magnus_oracle(IDENTITY.letters, 4) == {(): 1}


def test_magnus_single_generator():
    assert magnus_oracle(generator(1).letters, 3) == {(): 1, (1,): 1}


def test_magnus_inverse_alternates():
    # 1/(1+X) = 1 - X + X^2 - X^3
    assert magnus_oracle((-1,), 3) == {(): 1, (1,): -1, (1, 1): 1, (1, 1, 1): -1}


def test_magnus_frozen_commutator_example():
    letters = commutator(generator(1), generator(2)).letters
    assert magnus_oracle(letters, 2) == {(): 1, (1, 2): 1, (2, 1): -1}


@given(words, words)
@settings(max_examples=60)
def test_magnus_homomorphism(a, b):
    cutoff = 4
    lhs = magnus_oracle((a * b).letters, cutoff)
    rhs = poly_mul(magnus_oracle(a.letters, cutoff), magnus_oracle(b.letters, cutoff), cutoff)
    assert lhs == rhs


@given(words)
@settings(max_examples=60)
def test_magnus_inverse_is_series_inverse(w):
    cutoff = 4
    a, b = magnus_oracle(w.letters, cutoff), magnus_oracle(w.inverse().letters, cutoff)
    assert poly_mul(a, b, cutoff) == {(): 1}


# ---------------------------------------------------------------------------
# graded expansion


def _is_lyndon(word):
    """Strictly smaller than each of its proper rotations."""
    return all(word < word[i:] + word[:i] for i in range(1, len(word)))


def _lyndon_prefix(mono):
    """Brute force: m is a prefix of a Lyndon word iff m + (a larger letter,) is Lyndon."""
    return not mono or _is_lyndon(mono + (max(mono) + 1,))


def _assert_expansion_matches_oracle(letters, cutoff):
    """_expand holds the oracle's coefficients on every Lyndon prefix, one level per degree."""
    levels = _expand(tuple(letters), cutoff)
    assert levels[0] == {(): 1}
    assert all(len(m) == k and c for k, level in enumerate(levels) for m, c in level.items())
    merged = {m: c for level in levels for m, c in level.items()}
    oracle = magnus_oracle(letters, cutoff)
    assert merged == {m: c for m, c in oracle.items() if _lyndon_prefix(m)}


@given(raw_letter_lists, st.integers(min_value=1, max_value=4))
def test_magnus_matches_oracle(raw, cutoff):
    _assert_expansion_matches_oracle(GroupWord(raw).letters, cutoff)


# Words of few generators and long runs of inverses, so coefficients pile up
# on repeated monomials and cancel in the expansion.
inverse_heavy_letters = st.lists(
    st.tuples(st.integers(min_value=1, max_value=3), st.sampled_from((-3, -2, -1, -1, 1, 2))),
    max_size=5,
).map(lambda runs: [gen if exp > 0 else -gen for gen, exp in runs for _ in range(abs(exp))])


@given(inverse_heavy_letters, st.integers(min_value=1, max_value=6))
@settings(max_examples=150)
def test_magnus_matches_oracle_on_inverse_heavy_words(raw, cutoff):
    _assert_expansion_matches_oracle(GroupWord(raw).letters, cutoff)


@given(inverse_heavy_letters, st.integers(min_value=1, max_value=6))
@settings(max_examples=100)
def test_graded_expansion_of_unreduced_letters_matches_oracle(raw, cutoff):
    """x x^-1 pairs left in place must cancel to the last coefficient.

    Keeping only a prefix-closed set of monomials is exact on it, so this
    holds with the pairs in place too.
    """
    _assert_expansion_matches_oracle(raw, cutoff)


def test_lyndon_prefix_rule_on_every_short_word():
    """The period test keeps exactly the Lyndon-word prefixes over {1, 2, 3}, up to length 7.

    A positive word's own letters are its only degree-len embedding, so the
    word is a top-degree monomial of its expansion with coefficient 1 unless
    pruning dropped it.
    """
    for n in range(1, 8):
        for u in itertools.product((1, 2, 3), repeat=n):
            assert (u in _expand(u, n)[n]) == _lyndon_prefix(u), u


def test_magnus_at_a_huge_cutoff_stays_small_for_positive_words():
    """Levels stop at the word's length when no letter is an inverse."""
    start = time.perf_counter()
    assert _expand((1,), 10**7) == [{(): 1}, {(1,): 1}]
    assert _expand((1, 1, 1), 10**7) == [{(): 1}, {(1,): 3}, {(1, 1): 3}, {(1, 1, 1): 1}]
    assert lcs_depth(generator(2) ** 40, 10**7) == Depth.exact(1)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5, f"took {elapsed:.2f}s"


def _random_reduced(rng, n, rank=3):
    alphabet = tuple(range(1, rank + 1)) + tuple(range(-1, -rank - 1, -1))
    letters = []
    while len(letters) < n:
        x = rng.choice(alphabet)
        if not letters or letters[-1] != -x:
            letters.append(x)
    return GroupWord(tuple(letters))


def test_depth_of_long_shallow_words_at_a_huge_cutoff_is_fast():
    """The witness certifies a shallow depth in O(len) whatever the cutoff.

    With this seed the long word's exponent sums are nonzero (depth 1), and
    u's are not proportional to those of x1*x2 (depth 2).
    """
    rng = random.Random(20261018)
    long_word = _random_reduced(rng, 200_000)
    u = _random_reduced(rng, 50_000)
    for w, depth in ((long_word, 1), (commutator(u, generator(1) * generator(2)), 2)):
        start = time.perf_counter()
        assert lcs_depth(w, 10**6) == Depth.exact(depth)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"{len(w)} letters took {elapsed:.2f}s"


def test_expansion_and_witness_refuse_past_the_term_budget(monkeypatch):
    """The budget is counted inside _expand and predicted for the witness.

    The deep word repeats its two generators, so its eight degrees are
    settled by the expansion, not by the essential generators.
    """
    monkeypatch.setattr(words_module, "MAX_EXPANSION_TERMS", 5000)
    deep = GroupWord(left_normed_letters([1, 2, 1, 1, 2, 2, 1, 2]))  # 310 letters, depth 8
    assert lcs_depth(commutator(generator(1), generator(2))) == Depth.exact(2)
    with pytest.raises(GrowthLimitError, match="visits more than 5000 terms"):
        lcs_depth(deep, 8)  # the witness makes at most 310 * 8 updates a pass
    with pytest.raises(GrowthLimitError, match="makes more than 5000 updates"):
        lcs_depth(generator(1) ** 3000 * generator(2) ** 3000, 8)  # 2 syllables: 6000 * 2


# ---------------------------------------------------------------------------
# depth


def test_depth_identity_is_infinite():
    d = lcs_depth(IDENTITY)
    assert d.bound is None
    assert d.is_exact
    assert str(d) == "oo"


def test_depth_generator_is_one():
    d = lcs_depth(generator(3))
    assert (d.bound, d.is_exact) == (1, True)
    assert str(d) == "1"


def test_depth_frozen_examples():
    x, y = generator(1), generator(2)
    assert lcs_depth(commutator(x, y)).bound == 2
    assert lcs_depth(commutator(commutator(x, y), y)).bound == 3
    assert lcs_depth(commutator(x, y)).is_exact
    assert lcs_depth(commutator(commutator(x, y), y)).is_exact


def test_lcs_depth_refuses_a_cutoff_below_one():
    with pytest.raises(ValidationError, match="^cutoff must be >= 1, got 0$"):
        lcs_depth(generator(1), 0)


def test_depth_beyond_cutoff_reports_lower_bound():
    w = generator(1)
    for k in range(2, 11):
        w = commutator(w, generator(2 if k % 2 else 3))
    d = lcs_depth(w, cutoff=8)
    assert not d.is_exact
    assert d.bound == 9
    assert str(d) == ">=9"


@given(raw_letter_lists)
@settings(max_examples=80)
def test_depth_matches_oracle_when_exact(raw):
    w = GroupWord(raw)
    d = lcs_depth(w, cutoff=5)
    expected = depth_oracle(w.letters, 5)
    if w == IDENTITY:
        assert d == Depth.infinite()
    elif expected is None:
        assert not d.is_exact and d.bound == 6
    else:
        assert d.is_exact and d.bound == expected


def _expect_depth(letters, cutoff):
    """The oracle's answer as a Depth; the oracle expands the letters as given."""
    expected = depth_oracle(letters, cutoff)
    if not reduce_letters(letters):
        assert expected is None
        return Depth.infinite()
    return Depth.at_least(cutoff + 1) if expected is None else Depth.exact(expected)


def _assert_witness_sound(letters, cutoff, depth):
    """The witness never certifies a degree below the depth."""
    certified = _witness(reduce_letters(letters), cutoff)
    assert certified is None or (depth.bound is not None and certified >= depth.bound), letters


@pytest.mark.parametrize("cutoff", [1, 6])
def test_depth_matches_oracle_on_every_short_word_in_two_generators(cutoff):
    """Every freely reduced word of length <= 7 over x1^+-1 and x2^+-1."""
    letters = [(1,), (-1,), (2,), (-2,)]
    frontier, count = [()], 0
    for _ in range(8):
        for w in frontier:
            expected = _expect_depth(w, cutoff)
            assert lcs_depth(GroupWord(w), cutoff) == expected, w
            _assert_witness_sound(w, cutoff, expected)
            count += 1
        frontier = [w + x for w in frontier for x in letters if not w or w[-1] != -x[0]]
    assert count == 1 + 4 * sum(3**k for k in range(7))


# Iterated commutators of short words in three generators, with inverse
# letters and repeated generators, so depths pass 1 and leading terms cancel.
commutator_heavy_letters = st.lists(
    st.recursive(
        st.lists(st.sampled_from((1, 2, 3, -1, -2, -3)), min_size=1, max_size=3).map(tuple),
        lambda inner: st.tuples(inner, inner).map(lambda ab: commutator_letters(*ab)),
        max_leaves=4,
    ),
    min_size=1,
    max_size=2,
).map(lambda parts: tuple(x for part in parts for x in part))


@given(commutator_heavy_letters, st.integers(min_value=1, max_value=6))
@settings(max_examples=100, deadline=None)
def test_depth_matches_oracle_on_commutators_with_repeated_generators(letters, cutoff):
    expected = _expect_depth(letters, cutoff)
    assert lcs_depth(GroupWord(letters), cutoff) == expected
    _assert_witness_sound(letters, cutoff, expected)


# ---------------------------------------------------------------------------
# the lower bound from essential generators


def _essential_generators(letters):
    """Generators whose deletion leaves a word that reduces to the identity, by brute force."""
    gens = sorted({abs(x) for x in letters})
    return [g for g in gens if not reduce_letters([x for x in letters if abs(x) != g])]


@given(commutator_heavy_letters, st.integers(min_value=1, max_value=5))
@example(left_normed_letters([1, 2, 3]), 3)
@example(commutator_letters([1, 2], [3]), 3)
@settings(max_examples=150, deadline=None)
def test_essential_generators_are_in_every_nonzero_monomial(letters, cutoff):
    """The lemma behind the bound, on the oracle alone: killing x_g kills every g-free monomial."""
    essential = _essential_generators(letters)
    for mono in magnus_oracle(letters, cutoff):
        assert not mono or all(g in mono for g in essential), (mono, essential)


def _bracketing(rng, gens, invert=0.0):
    """Letters of a random bracketing of gens, each used once, in order, a tip inverted with chance invert."""
    if len(gens) == 1:
        return (-gens[0],) if rng.random() < invert else (gens[0],)
    cut = rng.randint(1, len(gens) - 1)
    return commutator_letters(_bracketing(rng, gens[:cut], invert), _bracketing(rng, gens[cut:], invert))


def _refuse_expansion(monkeypatch):
    def refuse(letters, cutoff):
        raise AssertionError(f"expanded {len(letters)} letters to degree {cutoff}")

    monkeypatch.setattr(words_module, "_expand", refuse)


def _record_calls(monkeypatch, calls, *names):
    """Make each named step of gropes.words append its name to calls, then run."""
    for name in names:

        def spy(*args, name=name, real=getattr(words_module, name)):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(words_module, name, spy)


def _assert_multilinear_matches_oracle(letters):
    """_multilinear gives the oracle's coefficient on each multilinear monomial in the word's generators."""
    gens = sorted({abs(x) for x in letters})
    expansion = magnus_oracle(letters, len(gens))
    for order in itertools.permutations(gens):
        assert _multilinear(letters, order) == expansion.get(order, 0), (letters, order)


@given(commutator_heavy_letters)
@example(left_normed_letters([1, 2, 3]))
@settings(max_examples=100, deadline=None)
def test_multilinear_coefficient_matches_oracle_on_commutators(letters):
    _assert_multilinear_matches_oracle(letters)


@given(raw_letter_lists)
@settings(max_examples=100, deadline=None)
def test_multilinear_coefficient_matches_oracle_on_random_words(letters):
    """Unreduced letters too: the coefficient is read off the series, where x x^-1 cancels."""
    _assert_multilinear_matches_oracle(tuple(letters))


def test_distinct_generator_commutators_need_no_expansion(monkeypatch):
    """Every generator of a commutator of distinct generators is essential, and its coefficient is +-1.

    So up to cutoff + 1 generators neither the witness nor the expansion
    runs, whatever the bracketing, the inverted tips or the orientation.
    Past that the essential-generator step is out of scope and the witness
    runs, but the essential generators still spare the expansion.
    """
    _refuse_expansion(monkeypatch)
    calls = []
    _record_calls(monkeypatch, calls, "_witness")
    rng = random.Random(20261020)
    for weight in range(1, 13):
        gens = rng.sample(range(1, 40), weight)
        bracketings = (left_normed_letters(gens), _bracketing(rng, gens), _bracketing(rng, gens, 0.5))
        for letters in bracketings:
            assert abs(_multilinear(letters, dict.fromkeys(abs(x) for x in letters))) == 1
            w = GroupWord(letters)
            for cutoff in range(1, 15):
                expected = Depth.exact(weight) if weight <= cutoff else Depth.at_least(cutoff + 1)
                for u in (w, w.inverse()):
                    calls.clear()
                    assert lcs_depth(u, cutoff) == expected, (gens, cutoff)
                    assert bool(calls) == (weight > cutoff + 1), (gens, cutoff)


def test_a_cancelling_multilinear_coefficient_falls_through_to_the_witness(monkeypatch):
    """All four generators are essential, but the degree-4 parts cancel: [x2, x1] = [x1, x2]^-1.

    The zero coefficient certifies nothing, so from cutoff 4 on the
    witness and the expansion decide, and match the oracle.
    """
    letters = left_normed_letters([1, 2, 3, 4]) + left_normed_letters([2, 1, 3, 4])
    reduced = reduce_letters(letters)
    assert _essential(reduced, 4) and _multilinear(reduced, (1, 2, 3, 4)) == 0
    calls = []
    _record_calls(monkeypatch, calls, "_witness")
    for cutoff in range(4, 8):
        calls.clear()
        assert lcs_depth(GroupWord(letters), cutoff) == _expect_depth(letters, cutoff), cutoff
        assert calls, cutoff


def test_the_multilinear_step_keeps_to_the_term_budget(monkeypatch):
    """n * len over MAX_EXPANSION_TERMS skips the step; the old steps answer, or refuse as before.

    The weight-6 left-normed commutator has 94 letters, so the step makes
    564 updates and a witness to degree d makes 94 * d.
    """
    letters = left_normed_letters(range(1, 7))
    assert len(letters) == 94
    w = GroupWord(letters)
    calls = []
    _record_calls(monkeypatch, calls, "_witness", "_essential", "_multilinear")
    monkeypatch.setattr(words_module, "MAX_EXPANSION_TERMS", 564)
    assert lcs_depth(w, 6) == Depth.exact(6)
    assert calls == ["_essential", "_multilinear"]
    monkeypatch.setattr(words_module, "MAX_EXPANSION_TERMS", 563)
    calls.clear()
    assert lcs_depth(w, 5) == Depth.at_least(6)  # the witness to degree 5 makes 470 updates
    assert calls[0] == "_witness" and "_multilinear" not in calls
    calls.clear()
    with pytest.raises(GrowthLimitError, match="makes more than 563 updates"):
        lcs_depth(w, 6)
    assert calls == ["_witness"] * 3  # degrees 2 and 4 pass, degree 6 is refused


def test_essential_generators_past_the_cutoff_give_a_lower_bound(monkeypatch):
    """t > cutoff essential generators answer '>= cutoff + 1' where the witness certified nothing."""
    _refuse_expansion(monkeypatch)
    # All four generators are essential in both factors, and the degree-4
    # parts cancel: [x2, x1] = [x1, x2]^-1.
    product = left_normed_letters([1, 2, 3, 4]) + left_normed_letters([2, 1, 3, 4])
    for letters, cutoff in ((left_normed_letters(range(1, 13)), 8), (product, 3)):
        assert _witness(reduce_letters(letters), cutoff) is None
        assert lcs_depth(GroupWord(letters), cutoff) == Depth.at_least(cutoff + 1)


REPEATED_LETTERS = [
    left_normed_letters([1, 2, 1]),  # depth 3, 2 essential
    left_normed_letters([1, 2, 2, 1]),  # depth 4, 2 essential
    left_normed_letters([1, 2, 1, 2, 1]),  # depth 5, 2 essential
    left_normed_letters([1, 2, 3, 1]),  # depth 4, 3 essential
    commutator_letters(left_normed_letters([1, 2]), left_normed_letters([1, 3])),  # depth 4, 3 essential
]


@pytest.mark.parametrize("letters", REPEATED_LETTERS)
def test_repeated_generators_leave_the_depth_to_the_expansion(monkeypatch, letters):
    """With fewer essential generators than the depth, the expansion decides, and matches the oracle."""
    depth = depth_oracle(letters, 6)
    assert len(_essential_generators(letters)) < depth
    real, calls = words_module._expand, []
    monkeypatch.setattr(words_module, "_expand", lambda *args: calls.append(args) or real(*args))
    for cutoff in range(1, 7):
        assert lcs_depth(GroupWord(letters), cutoff) == _expect_depth(letters, cutoff), cutoff
    assert calls


def test_depth_of_a_long_word_over_many_generators_is_fast():
    """The essential-generator test gives up after 2t passes, not one pass per generator.

    [u, x1*x2], with u 30,000 letters over x1..x1000, has depth 2 and no
    essential generator; a pass per generator would take seconds.
    """
    rng = random.Random(20261020)
    w = commutator(_random_reduced(rng, 30_000, rank=1000), generator(1) * generator(2))
    start = time.perf_counter()
    assert lcs_depth(w) == Depth.exact(2)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"{len(w)} letters took {elapsed:.2f}s"


CANCELLING_LETTERS = [
    commutator_letters([1], [1]),  # [x1, x1]
    commutator_letters([1, 2, -1, -2], [1, 2, -1, -2]),  # [[x1,x2],[x1,x2]]
    (-1,) * 5,  # x1^-5
    (1, -2, 3, -3, 2, -1),  # w * w^-1 with w = x1 x2^-1 x3
    commutator_letters([1], [2]) + commutator_letters([-1], [2]),  # degree 2 cancels
    commutator_letters([1], [2]) + commutator_letters([2], [3]) + commutator_letters([3], [1]),
    left_normed_letters([1, 2, 2, 1, 3]),  # depth 5, beyond cutoffs 1-4
    left_normed_letters([2, 1, 1]) + left_normed_letters([1, 2, 2]),
]


@pytest.mark.parametrize("letters", CANCELLING_LETTERS)
@pytest.mark.parametrize("cutoff", [1, 3, 4, 5])
def test_depth_of_cancelling_inputs_matches_oracle(letters, cutoff):
    """The oracle expands the unreduced letters, so cancellation happens in the series."""
    d = lcs_depth(GroupWord(letters), cutoff)
    expected = depth_oracle(letters, cutoff)
    if GroupWord(letters) == IDENTITY:
        assert expected is None and d == Depth.infinite()
    elif expected is None:
        assert d == Depth.at_least(cutoff + 1)
    else:
        assert d == Depth.exact(expected)


def _left_normed_indices(rng, k):
    """k indices over {1, 2, 3} whose first two differ, so the commutator has depth k."""
    seq = [rng.choice((1, 2, 3))]
    while True:
        nxt = rng.choice((1, 2, 3))
        if nxt != seq[0]:
            seq.append(nxt)
            break
    while len(seq) < k:
        seq.append(rng.choice((1, 2, 3)))
    return seq


def test_depth_left_normed_table():
    """Left-normed commutators [x_{i1},x_{i2},...,x_{ik}] have depth exactly k."""
    rng = random.Random(20260814)
    for k in range(2, 7):
        for _ in range(12):
            seq = _left_normed_indices(rng, k)
            letters = left_normed_letters(seq)
            d = lcs_depth(GroupWord(letters), cutoff=8)
            assert (d.bound, d.is_exact) == (k, True), seq


def _left_normed_witness_misses():
    """Left-normed commutators of weight 2-9 on which the witness to degree 9 is not the weight."""
    rng = random.Random(20261018)
    misses = []
    for k in range(2, 10):
        for _ in range(8):
            seq = _left_normed_indices(rng, k)
            if _witness(left_normed_letters(seq), 9) != k:
                misses.append(seq)
    return misses


def test_witness_is_exact_on_left_normed_commutators():
    assert _left_normed_witness_misses() == []


@given(commutator_heavy_letters, st.integers(1, 5), st.integers(1, 5))
@settings(max_examples=100, deadline=None)
def test_an_extended_witness_pass_is_the_pass_from_degree_zero(letters, lo, more):
    """Each degree reads only the one below, so extending a pass from lo changes nothing."""
    letters, top = reduce_letters(letters), lo + more
    whole, parts = [], []
    low = _witness(letters, lo, parts)
    high = _witness(letters, top, parts)
    assert _witness(letters, top, whole) == (low if low is not None else high)
    if low is None:
        assert parts == whole  # the degree-top entries after every prefix agree


def test_witness_fails_with_entries_proportional_across_positions(monkeypatch):
    """a_{g,t} = c_g * lam^(t+1) evaluates every commutator to zero, so the test above has teeth."""
    monkeypatch.setattr(words_module, "_entry", lambda g, t: 7919 * g * pow(3, t + 1, _PRIME) % _PRIME)
    assert len(_left_normed_witness_misses()) == 8 * 8


@pytest.mark.parametrize("fires", ["never", "at its top degree"])
def test_depth_stays_exact_when_the_witness_misses_or_fires_high(monkeypatch, fires):
    """The expansion, not the witness, decides the depth below the certified degree."""
    real = words_module._witness

    def witness(letters, top, saved=None):
        if fires == "never" or real(letters, top, saved) is None:
            return None
        return top  # sound: the real witness certified a degree <= top

    monkeypatch.setattr(words_module, "_witness", witness)
    for cutoff in (1, 6):
        test_depth_matches_oracle_on_every_short_word_in_two_generators(cutoff)
    for letters, cutoff in itertools.product(CANCELLING_LETTERS, (1, 3, 4, 5)):
        test_depth_of_cancelling_inputs_matches_oracle(letters, cutoff)
    test_depth_beyond_cutoff_reports_lower_bound()


def test_commutator_letters_oracle_agrees():
    x, y = generator(1), generator(2)
    assert commutator(x, y).letters == tuple(commutator_letters([1], [2]))


def test_default_cutoff():
    assert DEFAULT_CUTOFF == 8


def test_depth_str_forms():
    assert str(Depth(3, True)) == "3"
    assert str(Depth(9, False)) == ">=9"
    assert str(Depth(None, True)) == "oo"
