"""Free-group words, truncated power-series expansions, and depth.

A word in the free group F(x1, x2, ...) is stored freely reduced as a tuple
of nonzero integers: letter i > 0 is the generator x_i and -i is its inverse.
The expansion machinery substitutes x_i -> 1 + X_i into a word and multiplies
out in noncommuting variables, dropping every monomial above a degree cutoff.
The smallest degree that survives is the word's depth in the lower central
series: depth >= k exactly when the word lies in the k-th term, and a word
whose expansion is 1 at every cutoff is the identity.

The expansion is graded and in place: terms are kept one dict per degree, and
each letter is multiplied in with a single pass over the terms below the
cutoff (x_g appends g to every term; x_g^-1 solves B = A - B * X_g degree by
degree), never as a product of two general series.

The depth test expands only the monomials that are prefixes of Lyndon words,
which is exact for two reasons.  Every update appends a letter to a term, so
a monomial's coefficient depends only on those of its prefixes, and a
prefix-closed set of monomials can be expanded on its own.  And when the
degrees below c vanish, the word lies in the c-th term of the lower central
series (Magnus), so its degree-c part is a Lie polynomial; a nonzero Lie
polynomial has a nonzero coefficient on some Lyndon word, because the
standard bracketing of a Lyndon word l is l plus lexicographically larger
words (Reutenauer, Free Lie Algebras, sec. 5.1; Lothaire, Combinatorics on
Words, ch. 5).  magnus keeps the full expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import ValidationError

DEFAULT_CUTOFF = 8


def _reduced(letters: Iterable[int]) -> tuple[int, ...]:
    stack: list[int] = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


@dataclass(frozen=True, slots=True)
class GroupWord:
    """A freely reduced word; equal words compare and hash equal."""

    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        letters = tuple(self.letters)
        for x in letters:
            if not isinstance(x, int) or isinstance(x, bool) or x == 0:
                raise ValidationError(f"invalid letter {x!r}: letters are nonzero integers")
        object.__setattr__(self, "letters", _reduced(letters))

    @property
    def is_identity(self) -> bool:
        return not self.letters

    @property
    def max_generator(self) -> int:
        """Largest generator index used, 0 for the identity."""
        return max((abs(x) for x in self.letters), default=0)

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        return GroupWord(self.letters + other.letters)

    def inverse(self) -> "GroupWord":
        return GroupWord(tuple(-x for x in reversed(self.letters)))

    def __pow__(self, n: int) -> "GroupWord":
        base = self if n >= 0 else self.inverse()
        return GroupWord(base.letters * abs(n))

    def syllables(self) -> Iterator[tuple[int, int]]:
        """Runs of equal letters as (generator index, signed exponent)."""
        run_gen, run_exp = 0, 0
        for x in self.letters:
            gen, step = abs(x), (1 if x > 0 else -1)
            if gen == run_gen and (run_exp > 0) == (step > 0):
                run_exp += step
            else:
                if run_gen:
                    yield run_gen, run_exp
                run_gen, run_exp = gen, step
        if run_gen:
            yield run_gen, run_exp

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        parts = []
        for gen, exp in self.syllables():
            parts.append(f"x{gen}" if exp == 1 else f"x{gen}^{exp}")
        return "*".join(parts)

    def __repr__(self) -> str:
        return f"GroupWord({self.letters!r})"


IDENTITY = GroupWord()


def generator(i: int) -> GroupWord:
    """The generator x_i (i >= 1)."""
    if i < 1:
        raise ValidationError(f"generator index must be >= 1, got {i}")
    return GroupWord((i,))


def reduce(letters: Iterable[int], rank: int | None = None) -> GroupWord:
    """Freely reduce a raw letter sequence, checking indices against rank."""
    word = GroupWord(tuple(letters))
    if rank is not None and word.max_generator > rank:
        raise ValidationError(
            f"letter index {word.max_generator} exceeds alphabet rank {rank}"
        )
    return word


def commutator(a: GroupWord, b: GroupWord) -> GroupWord:
    """[a, b] = a b a^-1 b^-1."""
    return a * b * a.inverse() * b.inverse()


def unoriented_key(w: GroupWord) -> tuple[int, ...]:
    """Canonical form of a label read with no preferred orientation.

    Reversing the direction an intersection is read inverts its label, so
    labels are compared as the lexicographically smaller of the word and its
    inverse.
    """
    letters = w.letters
    return min(letters, tuple(-x for x in reversed(letters)))


class TruncatedSeries:
    """1 + (terms) in noncommuting variables, truncated above a degree cutoff.

    Terms map a monomial, a tuple of positive generator indices, to a nonzero
    integer coefficient.  The constant term is implicitly 1: every series here
    is the expansion of a group element, and those are always unit series.
    """

    __slots__ = ("cutoff", "terms")

    def __init__(self, cutoff: int, terms: Mapping[tuple[int, ...], int] | None = None):
        if cutoff < 1:
            raise ValidationError(f"cutoff must be >= 1, got {cutoff}")
        self.cutoff = cutoff
        clean: dict[tuple[int, ...], int] = {}
        for mono, coeff in (terms or {}).items():
            if not mono:
                raise ValidationError("constant term is implicit and cannot be set")
            if len(mono) <= cutoff and coeff:
                clean[tuple(mono)] = coeff
        self.terms = clean

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.cutoff == other.cutoff and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.cutoff, frozenset(self.terms.items())))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if self.cutoff != other.cutoff:
            raise ValidationError("cannot multiply series with different cutoffs")
        cutoff = self.cutoff
        out = dict(other.terms)
        for mono, coeff in self.terms.items():
            c = out.get(mono, 0) + coeff
            if c:
                out[mono] = c
            else:
                out.pop(mono, None)
        for ma, ca in self.terms.items():
            room = cutoff - len(ma)
            if room < 1:
                continue
            for mb, cb in other.terms.items():
                if len(mb) > room:
                    continue
                mono = ma + mb
                c = out.get(mono, 0) + ca * cb
                if c:
                    out[mono] = c
                else:
                    out.pop(mono, None)
        product = TruncatedSeries(cutoff)
        product.terms = out
        return product

    def coefficient(self, mono: tuple[int, ...]) -> int:
        if not mono:
            return 1
        return self.terms.get(tuple(mono), 0)

    def __repr__(self) -> str:
        if not self.terms:
            return f"TruncatedSeries(cutoff={self.cutoff}, 1)"
        body = " + ".join(
            f"{c}*{'.'.join(f'X{i}' for i in m)}"
            for m, c in sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
        )
        return f"TruncatedSeries(cutoff={self.cutoff}, 1 + {body})"


def _expand(
    letters: tuple[int, ...], cutoff: int, lyndon: bool = False
) -> list[dict[tuple[int, ...], int]]:
    """Graded expansion of a word: levels[k] maps each degree-k monomial to its coefficient.

    levels[0] is the constant term {(): 1}.  Letters are multiplied in one at
    a time, in place, each in one pass over the terms below the cutoff:

    - x_g:    A * (1 + X_g) adds m + (g,) for every term m.  Degrees are
      walked from high to low, so each level is read before it changes.
    - x_g^-1: B = A * (1 + X_g)^-1 solves B = A - B * X_g.  Degrees are
      walked from low to high, so the new degree-(k-1) terms feed degree k.

    Zero coefficients are deleted.  Levels stop at the highest degree a term
    can reach: the word's length when it has no inverse letters, else the cutoff.

    With lyndon=True only monomials that are prefixes of Lyndon words (in the
    natural order of generator indices) are kept, with the same coefficients
    as without it (see the module docstring).  They are recognised with
    Duval's period p: m + (g,) is a prefix iff g >= m[len(m) - p]; the period
    stays p on equality and becomes len(m) + 1 otherwise, and every single
    letter is a prefix.
    """
    top = cutoff if any(x < 0 for x in letters) else min(cutoff, len(letters))
    levels: list[dict[tuple[int, ...], int]] = [{(): 1}]
    levels.extend({} for _ in range(top))
    # rule[m] = (least letter that may follow m, period of m); None keeps all.
    rule = {(): (0, 0)} if lyndon else None
    for x in letters:
        if x > 0:
            g, sign, degrees = x, 1, range(top, 0, -1)
        else:
            g, sign, degrees = -x, -1, range(1, top + 1)
        step = (g,)
        for k in degrees:
            src, dst = levels[k - 1], levels[k]
            for mono, coeff in src.items():
                if rule is not None:
                    least, p = rule[mono]
                    if g < least:
                        continue
                mono += step
                c = dst.get(mono, 0) + sign * coeff
                if c:
                    dst[mono] = c
                else:
                    del dst[mono]
                if rule is not None and mono not in rule:
                    rule[mono] = (mono[-p], p) if g == least else (mono[0], k)
    return levels


def magnus(w: GroupWord, cutoff: int = DEFAULT_CUTOFF) -> TruncatedSeries:
    """Expansion of w under x_i -> 1 + X_i, truncated above the cutoff.

    The map is a homomorphism into the units of the truncated tensor algebra:
    magnus(a * b) == magnus(a) * magnus(b) at any shared cutoff.
    """
    series = TruncatedSeries(cutoff)
    for level in _expand(w.letters, cutoff)[1:]:
        series.terms.update(level)
    return series


@dataclass(frozen=True, slots=True)
class Depth:
    """Position of a word in the lower central series.

    bound is the depth value; is_exact False means only "at least bound" is
    known (the word survived past the cutoff).  bound None means the word is
    the identity and lies in every term.
    """

    bound: int | None
    is_exact: bool

    @classmethod
    def exact(cls, k: int) -> "Depth":
        return cls(k, True)

    @classmethod
    def at_least(cls, k: int) -> "Depth":
        return cls(k, False)

    @classmethod
    def infinite(cls) -> "Depth":
        return cls(None, True)

    @property
    def is_infinite(self) -> bool:
        return self.bound is None

    @property
    def lower_bound(self) -> float:
        return math.inf if self.bound is None else self.bound

    def __str__(self) -> str:
        if self.bound is None:
            return "oo"
        return str(self.bound) if self.is_exact else f">={self.bound}"


def lcs_depth(w: GroupWord, cutoff: int = DEFAULT_CUTOFF) -> Depth:
    """Depth of w in the lower central series, resolved up to the cutoff.

    A nontrivial word's expansion acquires its first terms exactly in degree
    equal to its depth, so the answer is exact whenever it is at most the
    cutoff.  Computation deepens the cutoff one degree at a time with the
    graded in-place expansion: degree-k terms of a product of unit series
    depend only on degree-<=k terms of the factors, so at cutoff c the degrees
    below c are already known to be zero and only levels[c] is tested.
    Stopping early gives the same answer as expanding at the full cutoff
    directly, while cheap shallow words stay cheap.

    Each expansion keeps only prefixes of Lyndon words, and the test stays
    exact: the kept set is prefix-closed and every update appends a letter,
    so the kept coefficients are the full expansion's; and with the degrees
    below c zero, levels[c] is a Lie polynomial (Magnus), which is nonzero
    only if its coefficient on some Lyndon word is (Reutenauer, Free Lie
    Algebras, sec. 5.1; Lothaire, Combinatorics on Words, ch. 5).
    """
    if cutoff < 1:
        raise ValidationError(f"cutoff must be >= 1, got {cutoff}")
    if w.is_identity:
        return Depth.infinite()
    for c in range(1, cutoff + 1):
        # levels[c] exists: a word with no inverse letters returns at c = 1.
        if _expand(w.letters, c, lyndon=True)[c]:
            return Depth.exact(c)
    return Depth.at_least(cutoff + 1)
