"""Gropes as rooted trees of surface stages.

A stage is a surface of genus g, recorded as g ordered pairs of slots; each
pair is a symplectic pair of curves on the surface.  A slot is either a tip
(a curve with nothing attached, ready to receive a cap) or a deeper stage
glued along that curve.  A grope is a root stage plus a closed/bounded flag.

Stages have no names: a stage is addressed by its path from the root, a
tuple of (pair index, side) steps where side 0 is the alpha curve of the
pair and side 1 the beta curve.  The root has path ().

Traversal order is the lexicographic order of paths: pre-order, pair by
pair, alpha before beta, a slot before everything glued above it.  One
walker, _slots, writes it down; iter_stages, tips, the walks of
gropes.splitting.full_split and the piece walk of gropes.moves all read
it, so every derived id and trace entry that depends on the order depends
on this walker alone.  It also walks the live body the rewrite state of
gropes.splitting edits in place, in which a list of (alpha, beta) pairs
stands for a Stage and a tip id for its Tip, and stage_at follows paths
through both kinds.  full_split rewrites that body while one walk of it is
open, as the splice rule in _slots' docstring allows.

The class of a grope measures nested commutator depth: tips have class 1,
a stage has class min over its pairs of (class(alpha) + class(beta)), and
the boundary word of a class-k grope lies in the k-th lower central series
term of the free group on its tips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Union

from .commutators import Comm, CommutatorExpr, Gen, Inv, _refuse_long
from .errors import ParseError, ValidationError
from .words import GroupWord, generator

Slot = Union["Tip", "Stage"]
Path = tuple[tuple[int, int], ...]

ALPHA, BETA = 0, 1
SIDE_NAMES = ("alpha", "beta")


def path_doc(path: Path) -> list[list]:
    """A path as JSON-ready [[pairIndex, "alpha"|"beta"], ...]."""
    return [[j, SIDE_NAMES[side]] for j, side in path]


def _path_from_doc(doc: Any, ctx: str) -> Path:
    """Read a path written by path_doc, refusing anything else with a ParseError at ctx."""
    if not isinstance(doc, list):
        raise ParseError(f"{ctx}: expected list, got {doc!r}")
    path = []
    for k, step in enumerate(doc):
        bad = (
            not isinstance(step, list)
            or len(step) != 2
            or isinstance(step[0], bool)
            or not isinstance(step[0], int)
            or step[1] not in SIDE_NAMES
        )
        if bad:
            raise ParseError(f'{ctx}[{k}]: expected [pairIndex, "alpha"|"beta"], got {step!r}')
        path.append((step[0], SIDE_NAMES.index(step[1])))
    return tuple(path)


@dataclass(frozen=True, slots=True)
class Tip:
    tip_id: str

    def __post_init__(self) -> None:
        if not self.tip_id:
            raise ValidationError("tip id must be a nonempty string")


@dataclass(frozen=True, slots=True)
class Stage:
    pairs: tuple[tuple[Slot, Slot], ...]

    def __post_init__(self) -> None:
        pairs = tuple(tuple(p) for p in self.pairs)
        if not pairs:
            raise ValidationError("a stage must have genus >= 1")
        kinds = (Tip, Stage)
        for p in pairs:
            if len(p) != 2 or not (isinstance(p[0], kinds) and isinstance(p[1], kinds)):
                raise ValidationError(f"each pair needs exactly two slots, got {p!r}")
        object.__setattr__(self, "pairs", pairs)

    def __eq__(self, other: object) -> bool:
        """Equality of the pair tuples, as a dataclass compares them, but in a loop.

        The generated comparison recurses once per stage level, which a
        grope as deep as a document may be exhausts.
        """
        if type(other) is not Stage:
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            if len(a.pairs) != len(b.pairs):
                return False
            for pair_a, pair_b in zip(a.pairs, b.pairs):
                for x, y in zip(pair_a, pair_b):
                    if type(x) is Stage and type(y) is Stage:
                        todo.append((x, y))
                    elif x != y:
                        return False
        return True

    def __hash__(self) -> int:
        """A hash of the first tip id in each slot, found in a loop down alpha slots.

        Equal stages have equal tips, so they hash equal however deep they
        nest, and in a tree whose tip ids are distinct no two stages hash the
        same tuple.  It reads genus times depth slots, not the whole tree.
        """
        firsts = []
        for pair in self.pairs:
            for slot in pair:
                while type(slot) is Stage:
                    slot = slot.pairs[0][0]
                firsts.append(slot.tip_id)
        return hash(tuple(firsts))

    @property
    def genus(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True, slots=True)
class Grope:
    root: Stage
    closed: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.root, Stage):
            raise ValidationError("the root of a grope is a stage")


def class_of(obj: Grope | Slot) -> int:
    """Nested commutator depth guaranteed by the branching shape.

    A stack replaces recursion: a stage is valued once the stages glued to
    it are, so a grope of any depth is valued in a loop.  Values are kept
    by stage object, so a stage shared by several parents (built through the
    API; documents are trees) is walked once, not once per path to it.
    """
    if isinstance(obj, Grope):
        obj = obj.root
    value: dict[int, int] = {}  # id(stage) -> class; a tip has class 1
    todo = [(obj, False)] if type(obj) is Stage else []
    while todo:
        stage, ready = todo.pop()
        if ready:
            value[id(stage)] = min(value.get(id(a), 1) + value.get(id(b), 1) for a, b in stage.pairs)
        elif id(stage) not in value:
            todo.append((stage, True))  # valued once every stage glued to it is
            todo.extend((s, False) for pair in stage.pairs for s in pair if type(s) is Stage)
    return value.get(id(obj), 1)


def _pairs(stage: Stage | list) -> tuple | list:
    """The pairs of a Stage, or of a live stage, which is its list of pairs (see _slots)."""
    return stage.pairs if type(stage) is Stage else stage


def _slots(
    obj: Grope | Stage | list, start: int = 0, max_depth: float = math.inf
) -> Iterator[tuple[Path, Slot]]:
    """Slots at most max_depth deep with their paths, in traversal order.

    The walk starts at pair start of the first stage.  The root itself, at
    path (), is not a slot and is never yielded.  In a live body (module
    docstring) a tip is yielded as its id.  Slot k of a stage is side k % 2
    of pair k // 2, and one frame per open stage on a stack replaces
    recursion, so each slot costs one resume of one generator whatever its
    depth.

    The walk reads the open stage's pairs, and their number, afresh at every
    step, which makes one splice exact: when the walk has just yielded a slot
    it will not enter (a tip, or a stage max_depth deep) on side s of pair j
    of a live stage, and pair j of that list is replaced in place by new
    pairs, the walk goes on from slot 2j + s + 1 of the spliced list, as a
    walk of the spliced tree does from the slot after (j, s).
    """
    if max_depth < 1:
        return
    pairs = _pairs(obj.root if isinstance(obj, Grope) else obj)
    path: Path = ()
    k = 2 * start
    stack = []
    while True:
        if k >= 2 * len(pairs):
            if not stack:
                return
            pairs, path, k = stack.pop()
            continue
        step = (k >> 1, k & 1)
        slot = pairs[step[0]][step[1]]
        child = path + (step,)
        yield child, slot
        k += 1
        if (type(slot) is Stage or type(slot) is list) and len(child) < max_depth:
            stack.append((pairs, path, k))
            pairs, path, k = _pairs(slot), child, 0


def iter_stages(obj: Grope | Stage) -> Iterator[tuple[Path, Stage]]:
    """All stages with their paths, the root first, in traversal order."""
    yield (), obj.root if isinstance(obj, Grope) else obj
    for path, slot in _slots(obj):
        if type(slot) is Stage:
            yield path, slot


def stage_at(obj: Grope | Stage | list, path: Path) -> Stage | list:
    """The stage at path: a Stage, or a live stage when obj is one."""
    stage = obj.root if isinstance(obj, Grope) else obj
    for j, side in path:
        pairs = _pairs(stage)
        if not 0 <= j < len(pairs):
            raise ValidationError(f"no pair {j} at a genus-{len(pairs)} stage")
        slot = pairs[j][side]
        if type(slot) is not Stage and type(slot) is not list:
            raise ValidationError(f"slot {(j, side)} holds a tip, not a stage")
        stage = slot
    return stage


def tips(obj: Grope | Stage) -> list[str]:
    """Tip ids in traversal order."""
    return [slot.tip_id for _, slot in _slots(obj) if type(slot) is Tip]


def default_assignment(obj: Grope | Stage) -> dict[str, GroupWord]:
    """Distinct generators x1, x2, ... on tips in traversal order."""
    return {tip: generator(k + 1) for k, tip in enumerate(tips(obj))}


def boundary_word(obj: Grope | Stage, assignment: Mapping[str, GroupWord] | None = None) -> GroupWord:
    """Boundary of the bottom surface: the pair commutators multiplied out.

    Each tip contributes its assigned word, each deeper stage contributes its
    own boundary, and a stage reads [alpha, beta] across its pairs in order.
    With any assignment, the result of a class-k grope has depth >= k.

    Raises ParseError, building nothing, when the word would have more than
    MAX_WORD_LENGTH letters before reduction, as evaluate does.
    """
    root = obj.root if isinstance(obj, Grope) else obj
    # Both walks memoize by node, so a stage shared by several parents (built
    # through the API; documents are trees) is measured and built once.  The
    # tree outlives the call, so no id is reused while the memos are in use.
    _refuse_long(_boundary_length(root, assignment, {}))
    if assignment is None:
        assignment = default_assignment(root)
    return _boundary_of(root, assignment, {})


def _boundary_length(slot: Slot, assignment: Mapping | None, lengths: dict[int, int]) -> int:
    """The unreduced length of slot's boundary word, memoized in lengths by node.

    A plain recursive function, like the other walks of boundary_word and
    grope_from_expression: a closure that calls itself is a reference cycle.
    """
    if (n := lengths.get(id(slot))) is not None:
        return n
    if isinstance(slot, Tip):
        # The default assignment, built only once the length passes,
        # gives each tip one letter: an aliased stage is measured
        # without enumerating its paths.
        try:
            n = 1 if assignment is None else len(assignment[slot.tip_id])
        except KeyError:
            raise ValidationError(f"no word assigned to tip {slot.tip_id!r}") from None
    else:
        n = 2 * sum(_boundary_length(s, assignment, lengths) for pair in slot.pairs for s in pair)
    lengths[id(slot)] = n
    return n


def _boundary_of(slot: Slot, assignment: Mapping, words: dict[int, GroupWord]) -> GroupWord:
    """The boundary word of slot, memoized in words by node."""
    if isinstance(slot, Tip):
        return assignment[slot.tip_id]
    word = words.get(id(slot))
    if word is None:
        # One reduction over the whole stage: folding pair by pair
        # re-reduces the growing word each time, quadratic in the genus.
        letters: list[int] = []
        for a, b in slot.pairs:
            u, v = (_boundary_of(s, assignment, words).letters for s in (a, b))
            letters += u
            letters += v
            letters.extend(-x for x in reversed(u))
            letters.extend(-x for x in reversed(v))
        word = words[id(slot)] = GroupWord(tuple(letters))
    return word


def grope_from_expression(expr: CommutatorExpr) -> tuple[Grope, dict[str, GroupWord]]:
    """Build the grope whose shape mirrors a commutator expression.

    Returns the grope and the tip assignment under which its boundary word
    equals the expression's value.  Inverses are read as the grope is built
    and end at the generators, where they become tip orientations: an
    inverted commutator swaps its sides ([u,v]^-1 = [v,u]) and an inverted
    product takes its factors in reverse, each inverted.  The resulting
    class equals the expression's weight, so the expression must have
    weight >= 2: a bare generator does not bound a surface.  Every product
    inside a bracket needs weight >= 2 too, since its factors become pairs
    of one stage: [x1, x1*x2] is refused, although its weight is 2.
    """
    assignment: dict[str, GroupWord] = {}
    built = _slot_from_expression(expr, False, assignment)
    if not isinstance(built, Stage):
        raise ValidationError("an expression of weight 1 does not describe a grope")
    return Grope(built), assignment


def _slot_from_expression(e: CommutatorExpr, inverted: bool, assignment: dict) -> Slot:
    """The slot shaped like e, or like e^-1 when inverted.

    Each generator becomes tip t1, t2, ... in the order made, with its word,
    x_i or x_i^-1, recorded in assignment.
    """
    while isinstance(e, Inv):
        e, inverted = e.operand, not inverted
    if isinstance(e, Gen):
        tip = Tip(f"t{len(assignment) + 1}")
        assignment[tip.tip_id] = GroupWord((-e.index if inverted else e.index,))
        return tip
    if isinstance(e, Comm):
        sides = (e.right, e.left) if inverted else (e.left, e.right)
        return Stage((tuple(_slot_from_expression(s, False, assignment) for s in sides),))
    pairs: list[tuple[Slot, Slot]] = []
    for factor in reversed(e.factors) if inverted else e.factors:
        built = _slot_from_expression(factor, inverted, assignment)
        if not isinstance(built, Stage):
            raise ValidationError("a product factor must be a commutator to bound a surface")
        pairs.extend(built.pairs)
    return Stage(tuple(pairs))


_SHARED = "shared subtree: the stage tree must not alias nodes"


def validate_grope(obj: Grope) -> list[str]:
    """Structural violations as human-readable strings; empty means valid."""
    problems: list[str] = []
    if not isinstance(obj, Grope):
        return [f"not a grope: {obj!r}"]
    seen_objects: set[int] = set()
    seen_tips: dict[str, int] = {}
    todo: list[Slot] = [obj.root]
    while todo:
        slot = todo.pop()
        if id(slot) in seen_objects:
            problems.append(_SHARED)
            continue
        seen_objects.add(id(slot))
        if isinstance(slot, Tip):
            seen_tips[slot.tip_id] = seen_tips.get(slot.tip_id, 0) + 1
        else:
            todo.extend(child for pair in slot.pairs for child in pair)
    for tip_id, n in sorted(seen_tips.items()):
        if n > 1:
            problems.append(f"duplicate tip id {tip_id!r} ({n} occurrences)")
    return problems
