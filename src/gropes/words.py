"""Free-group words, their truncated power-series expansion, and depth.

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

The depth is found in up to four steps.  The first settles a word whose
n generators are all essential (below), n at most the cutoff plus one:
such a word has depth >= n, and a nonzero coefficient on the multilinear
monomial X_{g1} ... X_{gn}, g1, ..., gn the generators in order of first
occurrence, proves depth <= n.  That coefficient takes one pass of O(len)
additions, since each letter can reach it only through its linear term.
For an iterated commutator of distinct generators, with any tips
inverted, it is +-1, by induction: for u and v on disjoint generators,
every generator of v essential, [p q]M([u, v]) = [p]M(u) * [q]M(v), with
p and q the first-occurrence monomials of u and v (only the terms
M(u) * M(v)^-1 and M(v) * M(v)^-1 of the product can reach p q, and
[q]M(v)^-1 = -[q]M(v) because no proper factor of q has a nonzero
coefficient in M(v)).  Such a word, the boundary word of a grope whose
tips get distinct generators, is settled in O(n * len), with no witness
and no expansion.

Otherwise a witness bounds the depth from above.  It multiplies a row
vector through the word in the unitriangular
representation x_g -> I + sum_t a_{g,t} E_{t,t+1} with fixed pseudo-random
entries mod a prime, the expansion's in-place update on scalars, so K
degrees cost O(len * K).  Entry d is the degree-d part evaluated at
independent values, so a nonzero entry certifies a nonzero degree-d part and
depth <= d.  A word with s syllables x_{i1}^{e1} ... x_{is}^{es} has
coefficient e1 * ... * es on X_{i1} ... X_{is}, so its depth is at most s
and the witness never needs more than min(cutoff, s) degrees.

Essential generators then bound it from below.  Call g essential when
deleting every x_g^+-1 from w and freely reducing gives the identity.
Killing x_g is a homomorphism that sends X_g to 0 and fixes the other
variables, so every g-free monomial of w's expansion has coefficient 0:
when t generators are essential, every nonzero monomial of positive degree
contains all t of them, and depth >= t.  When this bound meets the
witness, or passes the cutoff, the depth is settled.  The test stops
after at most 2t reduction passes, t the depth it has to reach, so it costs
about one more witness pass whatever the number of generators.

Otherwise one expansion runs below the certified degree and keeps only the
monomials that are prefixes of Lyndon words; its lowest non-empty level is
the exact depth, for two reasons.  Every update appends a letter to a term,
so a monomial's coefficient depends only on those of its prefixes, and a
prefix-closed set of monomials can be expanded on its own.  And when the
degrees below c vanish, the word lies in the c-th term of the lower central
series (Magnus), so its degree-c part is a Lie polynomial; a nonzero Lie
polynomial has a nonzero coefficient on some Lyndon word, because the
standard bracketing of a Lyndon word l is l plus lexicographically larger
words (Reutenauer, Free Lie Algebras, sec. 5.1; Lothaire, Combinatorics on
Words, ch. 5).  Applied level by level from degree 1, this makes the lowest
non-empty pruned level the lowest non-empty level of the full expansion.
If every level is empty, the depth is the certified degree.  Words with
repeated generators, such as [[x1, x2], x1], can have fewer essential
generators than their depth, and take this path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import GrowthLimitError, ValidationError

DEFAULT_CUTOFF = 8
# Most terms one expansion may visit (about a microsecond each), and most
# updates one depth witness may make: past it they raise GrowthLimitError,
# so no cutoff makes a call run for minutes.
MAX_EXPANSION_TERMS = 2_000_000
# The witness computes modulo this prime (2^31 - 1) with 64-bit splitmix entries.
_PRIME = 2**31 - 1
_MASK64 = 2**64 - 1


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


def _expand(letters: tuple[int, ...], cutoff: int) -> list[dict[tuple[int, ...], int]]:
    """Graded expansion of a word on the prefixes of Lyndon words.

    levels[k] maps each degree-k monomial that is a prefix of a Lyndon word
    (in the natural order of generator indices) to its coefficient in the
    full expansion (see the module docstring); levels[0] is the constant
    term {(): 1}.  Letters are multiplied in one at a time, in place, each in
    one pass over the terms below the cutoff:

    - x_g:    A * (1 + X_g) adds m + (g,) for every term m.  Degrees are
      walked from high to low, so each level is read before it changes.
    - x_g^-1: B = A * (1 + X_g)^-1 solves B = A - B * X_g.  Degrees are
      walked from low to high, so the new degree-(k-1) terms feed degree k.

    Zero coefficients are deleted.  Levels stop at the highest degree a term
    can reach: the word's length when it has no inverse letters, else the cutoff.
    Raises GrowthLimitError once the terms read, one pass per level and
    letter, pass MAX_EXPANSION_TERMS.

    Lyndon prefixes are recognised with Duval's period p: m + (g,) is a
    prefix iff g >= m[len(m) - p]; the period stays p on equality and becomes
    len(m) + 1 otherwise, and every single letter is a prefix.
    """
    top = cutoff if any(x < 0 for x in letters) else min(cutoff, len(letters))
    levels: list[dict[tuple[int, ...], int]] = [{(): 1}]
    levels.extend({} for _ in range(top))
    # rule[m] = (least letter that may follow m, period of m).
    rule = {(): (0, 0)}
    visited = 0
    for x in letters:
        if x > 0:
            g, sign, degrees = x, 1, range(top, 0, -1)
        else:
            g, sign, degrees = -x, -1, range(1, top + 1)
        step = (g,)
        for k in degrees:
            src, dst = levels[k - 1], levels[k]
            visited += len(src)
            for mono, coeff in src.items():
                least, p = rule[mono]
                if g < least:
                    continue
                mono += step
                c = dst.get(mono, 0) + sign * coeff
                if c:
                    dst[mono] = c
                else:
                    del dst[mono]
                if mono not in rule:
                    rule[mono] = (mono[-p], p) if g == least else (mono[0], k)
        if visited > MAX_EXPANSION_TERMS:
            raise GrowthLimitError(
                f"expanding to degree {cutoff} visits more than {MAX_EXPANSION_TERMS} terms; "
                "lower the cutoff"
            )
    return levels


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

    def __str__(self) -> str:
        if self.bound is None:
            return "oo"
        return str(self.bound) if self.is_exact else f">={self.bound}"


def _entry(g: int, t: int) -> int:
    """a_{g,t} of the witness: splitmix64 of (g, t), reduced mod _PRIME."""
    z = ((g << 32 | t) + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) % _PRIME


def _witness(letters: tuple[int, ...], top: int, saved: list | None = None) -> int | None:
    """Least degree d <= top at which the word's expansion is certified nonzero, or None.

    Multiplies the row vector e_0 through the word in the unitriangular
    representation x_g -> I + sum_t a_{g,t} E_{t,t+1} of size top + 1, mod
    _PRIME, with the same in-place updates as _expand on scalars: x_g adds
    v[t] a_{g,t} to v[t+1] walking t from high to low, x_g^-1 subtracts it
    walking from low to high, so that it reads the entry already updated.
    Entry d is then the word's degree-d part with each monomial
    X_{m1}...X_{md} replaced by a_{m1,0} a_{m2,1} ... a_{md,d-1}.  Distinct
    monomials give distinct products of the independent a_{g,t}, so a
    nonzero entry proves a nonzero degree-d part (depth <= d).  A zero entry
    proves nothing, but a nonzero part vanishes at pseudo-random a_{g,t}
    only by accident (Schwartz-Zippel: probability d / _PRIME at random
    points).  The a_{g,t} must vary independently with t: entries of the
    form c_g * lam^t evaluate every commutator to zero.

    Entry t + 1 reads only entry t, so a pass can stop at any degree and a
    later one extend it.  saved, when given, carries the pass on: left
    empty it starts at degree 0, and each call leaves [top, the entry of
    degree top after each prefix of the word] in it, from which the next
    call evaluates only the degrees above top (the ones below were zero, or
    the caller would have stopped).

    Its cost counted from degree 0, len(letters) * top updates, is refused
    before it starts when it passes MAX_EXPANSION_TERMS, as it was when
    every pass started over.
    """
    if len(letters) * top > MAX_EXPANSION_TERMS:
        raise GrowthLimitError(
            f"a depth witness to degree {top} makes more than {MAX_EXPANSION_TERMS} "
            "updates; lower the cutoff"
        )
    lo, below = saved or (0, [1] * (len(letters) + 1))
    n = top - lo
    steps: dict[int, list[tuple[int, int, int]]] = {}
    for g in {abs(x) for x in letters}:
        a = [_entry(g, t) for t in range(lo, top)]
        steps[g] = [(t + 1, t, a[t]) for t in range(n - 1, -1, -1)]
        steps[-g] = [(t + 1, t, _PRIME - a[t]) for t in range(n)]
    p = _PRIME
    v = [0] * (n + 1)
    after = [0]
    # v[0] is entry lo: x_g reads it before this letter, x_g^-1 after it.
    for x, before, now in zip(letters, below, below[1:]):
        v[0] = before if x > 0 else now
        for s, t, a in steps[x]:
            v[s] = (v[s] + v[t] * a) % p
        after.append(v[n])
    if saved is not None:
        saved[:] = [top, after]
    return next((lo + d for d in range(1, n + 1) if v[d]), None)


def _essential(letters: tuple[int, ...], t: int) -> bool:
    """Whether at least t generators of the word are essential (module docstring).

    g is essential when the word with every x_g^+-1 deleted freely reduces
    to the identity; each test is one reduction pass over the letters.  The
    tests stop at the t-th essential generator, or at the (m+1)-th other
    one, m = min(n - t, t) for the n generators the word uses: past n - t
    the answer is no, and past t the bound is not worth its passes.  So a
    call makes at most 2t passes, whatever n; with t = n it asks whether
    every generator is essential, and stops at the first that is not.
    """
    gens = {abs(x) for x in letters}
    spare = min(len(gens) - t, t)
    if spare < 0:
        return False
    for g in gens:
        if not _reduced(x for x in letters if x != g and x != -g):
            t -= 1
            if not t:
                return True
        elif not spare:
            return False
        else:
            spare -= 1
    return False


def _multilinear(letters: tuple[int, ...], order: Iterable[int]) -> int:
    """Coefficient of X_{g1} ... X_{gn} in the word's expansion, g1, ..., gn its generators in order.

    order must list every generator of the word once.  v[i] is the
    coefficient of the prefix X_{g1} ... X_{gi}, so v starts as [1, 0, ...,
    0].  Only the linear term +-X_g of a letter's series can reach a
    monomial that holds g once, so a letter x_g, g = g(i+1), adds v[i] to
    v[i+1] and x_g^-1 subtracts it; no letter of g changes v[i].  One pass
    of O(len) additions.
    """
    at = {g: i for i, g in enumerate(order)}
    v = [1] + [0] * len(at)
    for x in letters:
        i = at[abs(x)]
        v[i + 1] += v[i] if x > 0 else -v[i]
    return v[-1]


def lcs_depth(w: GroupWord, cutoff: int = DEFAULT_CUTOFF) -> Depth:
    """Depth of w in the lower central series, resolved up to the cutoff.

    A nontrivial word's expansion acquires its first terms exactly in degree
    equal to its depth, so the answer is exact whenever it is at most the
    cutoff.  It is found in up to four steps.

    First, when the word's n generators are all essential (_essential) and
    n <= cutoff + 1, the depth is at least n.  Past the cutoff that is the
    answer.  Otherwise, a nonzero coefficient on X_{g1} ... X_{gn}, the
    generators in order of first occurrence (_multilinear, one O(len(w))
    pass), proves depth <= n, so the depth is n.  Every iterated commutator
    of distinct generators, tips inverted or not, ends here (module
    docstring).  The step is skipped when its n passes would make more than
    MAX_EXPANSION_TERMS updates, and a zero coefficient goes on to the next.

    Then a witness (_witness) bounds the depth from above: it evaluates
    every degree up to K at once in O(len(w) * K), and a nonzero degree d
    proves depth <= d.  K doubles from 2 up to min(cutoff, s), where s is the
    number of syllables: a word x_{i1}^{e1} ... x_{is}^{es} has coefficient
    e1 * ... * es != 0 on X_{i1} ... X_{is}, so its depth is at most s.  Each
    doubling extends the last pass from K to 2K instead of starting over, so
    the witness costs O(len(w) * K) in all, and a shallow word stays
    O(len(w)) at any cutoff.  A certified degree of 1 is the depth.

    Then the essential generators bound the depth from below: if t of them
    are essential, every nonzero monomial of positive degree holds all t,
    so depth >= t (module docstring).  With t the least degree d* the
    witness certified, the depth is d*; with t = cutoff + 1, when no degree
    was certified, it is past the cutoff.  The test (_essential) makes at
    most 2t passes of O(len(w)), about what the witness already spent.

    Otherwise one expansion, kept to prefixes of Lyndon words, runs below d*
    (or up to min(cutoff, s) when no degree was certified), and its lowest
    non-empty level is the exact depth.  The pruned levels hold the full
    expansion's coefficients on the kept monomials (the kept set is
    prefix-closed and every update appends a letter).  By induction on the
    degree, their lowest non-empty level is the full expansion's: with the
    degrees below c zero, levels[c] is a Lie polynomial (Magnus), nonzero
    only if its coefficient on some Lyndon word is (Reutenauer, Free Lie
    Algebras, sec. 5.1; Lothaire, Combinatorics on Words, ch. 5).  If every
    level is empty the depth is d*, or more than the cutoff when no degree
    was certified.

    Raises GrowthLimitError when a witness pass or the expansion would pass
    MAX_EXPANSION_TERMS.
    """
    if cutoff < 1:
        raise ValidationError(f"cutoff must be >= 1, got {cutoff}")
    if w.is_identity:
        return Depth.infinite()
    letters = w.letters
    order = dict.fromkeys(abs(x) for x in letters)
    n = len(order)
    if n <= cutoff + 1 and n * len(letters) <= MAX_EXPANSION_TERMS and _essential(letters, n):
        if n > cutoff:
            return Depth.at_least(cutoff + 1)
        if _multilinear(letters, order):
            return Depth.exact(n)
    bound = min(cutoff, sum(1 for _ in w.syllables()))
    k, saved = 2, []
    while (certified := _witness(letters, min(k, bound), saved)) is None and k < bound:
        k *= 2
    # The expansion would search degrees 1..top.  With top + 1 essential
    # generators the depth is past top, so the answer is the one it gives
    # when every level is empty.  With no degree certified and bound = s <
    # cutoff, top + 1 is more than the word's generators and the test fails.
    top = bound if certified is None else certified - 1
    if top and not _essential(letters, top + 1):
        for d, level in enumerate(_expand(letters, top)[1:], 1):
            if level:
                return Depth.exact(d)
    return Depth.at_least(cutoff + 1) if certified is None else Depth.exact(certified)
