"""Splitting moves: push genus and label variety down to simple pieces.

Both moves are one rewrite that widens a pair: pair j of a stage becomes m
pairs side by side.  The slot on one side of pair j is replaced by m new
slots, one per new pair, and the dual slot opposite it is copied once per
new pair; each copy inherits every intersection of the dual, so a point on
the dual becomes m points.  Body paths through later pairs of the stage
shift by m - 1, and the class of the grope is preserved.

* split_cap widens the pair of a cap that carries several label values into
  two pairs and divides the cap between them: one new cap takes the
  intersections whose unoriented value is lexicographically least, the
  other takes the rest.  Iterating peels off one value at a time, so a cap
  with n values ends as n caps of one value each.  The dual slot may be a
  cap's tip or a whole stage subtree; either way it is copied.

* split_stage widens the pair holding a genus-g stage (g >= 2) above the
  first stage into g pairs, each holding one genus-1 piece of that stage.

full_split drives both to a fixed point: afterwards every cap carries at most
one label value and every stage above the first has genus 1, so all genus is
concentrated on the first stage.  Its rewrite order is part of the contract,
because it fixes every derived id and trace entry.  Both searches read the
traversal order defined in gropes.grope, through its one walker:

1. while some cap carries several values, split the first such cap in
   traversal order;
2. then, while some stage above the first has genus > 1, split the first such
   stage in traversal order among the deepest ones.

Both moves, full_split and gropes.pipeline.replay_trace apply a rewrite
through the same two cores, _split_cap_at and _split_stage_at, which alone
check each move's preconditions.  They run on a _RewriteState, the one state
the contraction cores of gropes.moves run on too: the public moves open one
for a single rewrite, while run_surgery and replay keep one per grope across
every split, contraction and pushoff.  It holds the grope under rewriting
with its live points indexed by sheet: every point by id, the ids of the
points on each cap, and the ids of the points on each stage surface, keyed
by the stage's path.  A rewrite at pair j of the stage at path P reads only
the buckets it changes: the replaced cap's, those of the caps copied with
the dual slot, and those of the stage paths below P whose step at P is the
dual slot, the replaced slot, or a later pair (which shift by the number of
new pairs less one).  Every other point is untouched and never visited.
The touched points are rewritten in id order, because a copied point's
lineage name depends on the names taken before it, and that order is the
one in which a scan of the sorted points always derived them.  A cap's
label values are read from its bucket when a split needs them, so no
rewrite, contraction or pushoff keeps a second copy of them in step.  A
split after a contraction first drops the contracted pairs and renumbers
the body paths, as result() does.  The CappedGrope, with its
points sorted, is built once, by result().

full_split also resumes each search from a cursor, relying on two
invariants.  split_cap at pair j of the stage at path P leaves every cap
before (P, j, alpha) in traversal order untouched, so the next multi-valued
cap is never earlier.  split_stage creates no multi-valued cap, no genus > 1
stage deeper than the one it splits, and none earlier at the same depth, so
stage splitting resumes at the same depth from (P, j, alpha), and moves one
level up when that depth is exhausted.

Duplication can grow structures fast (splitting a class-k grope whose caps
each carry n values multiplies first-stage genus to n^k), so both moves
enforce configurable size guards after every rewrite, and full_split
refuses before its first rewrite when the first-stage genus it would reach,
worked out from the caps' values, or a lower bound on the number of points
it would make exceeds its guard.

Parallel copies get lineage names: cap c3 becomes c3.1 and c3.2, an
intersection i7 inherited by two copies becomes i7.1 and i7.2.  Copy k of
id x is x.k, or x.k.m with the least m >= 1 that is free.  An id is taken
when the state holds it as a point, a cap, a tip (of the body, or one a cap
sits on) or a sphere, or when the same rewrite derived it earlier.  A
rewrite derives its names in a fixed order (the new tips and caps of the
replaced slot, then the copies of the dual slot with their caps, one copy
at a time, then the copied points in id order) and drops the ids it frees
only after the last one, so a name never reuses an id of its own input.
Surviving sheets keep their ids, so rewrites are auditable and replayable.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Callable

from .capped import (
    BodyRef,
    CappedGrope,
    CapRef,
    Intersection,
    SheetRef,
    derived_id,
)
from .errors import GrowthLimitError, RewriteError, ValidationError
from .grope import (
    ALPHA,
    BETA,
    Grope,
    Path,
    Slot,
    Stage,
    Tip,
    _slots,
    iter_stages,
    path_doc,
    stage_at,
    tip_locations,
    tips,
    with_stage_at,
)
from .words import GroupWord, unoriented_key


@dataclass(frozen=True, slots=True)
class SplitLimits:
    """Size guards; exceeding either aborts the rewrite."""

    max_first_stage_genus: int = 10**6
    max_intersections: int = 10**7


DEFAULT_LIMITS = SplitLimits()


class _Names:
    """Lineage names for one rewrite, each missing every id in use.

    An id is in use when it is a key of the state's points, caps, tip_cap
    (every body tip and every tip a cap sits on) or sphere_at, or was
    derived earlier in the same rewrite.  A rewrite drops the tips and caps
    it frees only after deriving its last name.  A copied point leaves
    points at once, but every later name extends an id sorted after it.
    """

    __slots__ = ("state", "fresh")

    def __init__(self, state: _RewriteState):
        self.state, self.fresh = state, set()

    def __contains__(self, name: str) -> bool:
        state = self.state
        return (
            name in self.fresh or name in state.points or name in state.caps
            or name in state.tip_cap or name in state.sphere_at
        )

    def derived(self, base: str, k: int) -> str:
        name = derived_id(base, k, self)
        self.fresh.add(name)
        return name


class _RewriteState:
    """A capped grope under splitting and contraction, its live points indexed by sheet.

    points maps every live point's id to it.  by_cap maps a cap, and by_path
    a stage path, to the ids of the points with an end on that sheet; a point
    on two sheets is in both buckets, and empty buckets are dropped.  tip_cap
    maps every tip of the body to its cap, or to None when it has none, and
    every other tip a cap sits on to that cap.

    A contraction leaves body as it is: alive lists the first-stage pairs not
    yet contracted, and body paths keep their numbers until renumber() drops
    the contracted pairs.  spheres holds the sphere records in order,
    sphere_at the place of each id, and pending the number of spheres with a
    pushoff queue.  changes counts the rewrites and moves applied.
    """

    __slots__ = (
        "source", "body", "alive", "caps", "tip_cap", "points", "by_cap", "by_path",
        "spheres", "sphere_at", "pending", "limits", "trace", "changes",
    )

    def __init__(
        self, cg: CappedGrope, limits: SplitLimits | None = None, trace: list | None = None
    ):
        self.source = cg
        self.body = cg.body
        self.alive = list(range(cg.body.root.genus if cg.body is not None else 0))
        self.caps = dict(cg.caps)
        self.tip_cap = dict.fromkeys(tips(cg.body) if cg.body is not None else ())
        self.tip_cap.update(cg.tip_to_cap)
        self.points = {p.point_id: p for p in cg.intersections}
        if len(self.points) != len(cg.intersections):
            raise ValidationError("cannot rewrite a capped grope with duplicate intersection ids")
        self.by_cap: dict[str, set[str]] = {}
        self.by_path: dict[Path, set[str]] = {}
        for p in cg.intersections:
            self.index(p)
        self.spheres = list(cg.spheres)
        # The first sphere of an id wins, as in CappedGrope.sphere.
        self.sphere_at = {s.sphere_id: i for i, s in reversed(list(enumerate(self.spheres)))}
        self.pending = sum(1 for s in self.spheres if s.pending)
        self.limits = limits or DEFAULT_LIMITS
        self.trace = trace
        self.changes = 0

    def index(self, p: Intersection) -> None:
        for end in (p.end_a, p.end_b):
            kind = type(end)
            if kind is CapRef:
                self.by_cap.setdefault(end.cap_id, set()).add(p.point_id)
            elif kind is BodyRef:
                self.by_path.setdefault(end.path, set()).add(p.point_id)

    def unindex(self, p: Intersection) -> None:
        for end in (p.end_a, p.end_b):
            kind = type(end)
            if kind is CapRef:
                buckets, key = self.by_cap, end.cap_id
            elif kind is BodyRef:
                buckets, key = self.by_path, end.path
            else:
                continue
            ids = buckets.get(key)
            if ids is not None:  # gone for a self point's second end or a contracted sheet
                ids.discard(p.point_id)
                if not ids:
                    del buckets[key]

    def renumber(self) -> None:
        """Drop the contracted first-stage pairs, renumbering the body paths after them."""
        body, alive = self.body, self.alive
        if body is None or len(alive) == body.root.genus:
            return
        pairs = body.root.pairs
        self.body = Grope(Stage(tuple(pairs[j] for j in alive)), body.closed) if alive else None
        self.alive = list(range(len(alive)))
        gone = sorted(set(range(len(pairs))).difference(alive))

        def renumber(end: SheetRef) -> SheetRef:
            if type(end) is not BodyRef or not end.path:
                return end
            (j, side), rest = end.path[0], end.path[1:]
            shift = bisect_left(gone, j)
            return BodyRef(((j - shift, side),) + rest) if shift else end

        points = self.points
        for point_id, p in points.items():
            if BodyRef in (type(p.end_a), type(p.end_b)):
                self.unindex(p)
                p = points[point_id] = Intersection(
                    point_id, renumber(p.end_a), renumber(p.end_b), p.label
                )
                self.index(p)
        self.spheres = [
            replace(s, pending=tuple(replace(q, other=renumber(q.other)) for q in s.pending))
            if s.pending else s
            for s in self.spheres
        ]

    def cap_values(self, cap_id: str) -> dict[str, tuple[int, ...]]:
        """The unoriented label value of each live point on the cap, keyed by point id."""
        points = self.points
        return {i: unoriented_key(points[i].label) for i in self.by_cap.get(cap_id, ())}

    def ready_to_split(self) -> None:
        """Renumber after contractions; a fully surgered grope cannot split."""
        self.renumber()
        if self.body is None:
            raise ValidationError("cannot split a fully surgered grope")

    def result(self) -> CappedGrope:
        """The rewritten grope, its points sorted once; the input if nothing was rewritten."""
        if not self.changes:
            return self.source
        self.renumber()
        return CappedGrope(self.body, self.caps, tuple(self.points.values()), tuple(self.spheres))


def _copy_slot(slot: Slot, k: int, names: _Names, tip_map: dict[str, str]) -> Slot:
    if isinstance(slot, Tip):
        new_id = names.derived(slot.tip_id, k)
        tip_map[slot.tip_id] = new_id
        return Tip(new_id)
    return Stage(
        tuple(
            (_copy_slot(a, k, names, tip_map), _copy_slot(b, k, names, tip_map))
            for a, b in slot.pairs
        )
    )


def _widen_pair(
    state: _RewriteState,
    ppath: Path,
    pair: int,
    side: int,
    mine: list[Slot],
    mine_caps: list[tuple[str, str]],
    remap_mine: Callable[[Intersection, SheetRef], SheetRef],
    names: _Names,
) -> None:
    """Replace pair `pair` of the stage at ppath by len(mine) pairs.

    New pair k holds mine[k] on `side` and the k-th parallel copy of the dual
    slot opposite it; each copy takes lineage names and inherits every
    intersection of the dual, so a point on the dual becomes one point per
    copy.  A replaced tip's cap gives way to mine_caps, given as (cap id,
    tip id).  Endpoints on the replaced slot (its cap, or any stage in
    it) are rewritten by remap_mine, and body paths through later pairs of
    the stage shift by len(mine) - 1.

    Each of these rules is written once, in a table from every moved sheet
    (the replaced cap, the copied caps, and the body paths below ppath
    through the dual step, the replaced step or a later pair) to its image.
    Only the points in the buckets of the table's sheets are read, and they
    are rewritten in id order, the order in which their lineage names were
    always derived.  names, one per rewrite, derives every new name.
    """
    body, caps, tip_cap = state.body, state.caps, state.tip_cap
    parent = stage_at(body, ppath)
    old, dual = parent.pairs[pair][side], parent.pairs[pair][1 - side]
    count = len(mine)

    mine_cap = tip_cap.get(old.tip_id) if isinstance(old, Tip) else None
    for cap, tip in mine_caps:
        caps[cap] = tip
        tip_cap[tip] = cap

    new_pairs = list(parent.pairs[:pair])
    cap_copies: dict[str, list[CapRef]] = {}
    for k in range(1, count + 1):
        tip_map: dict[str, str] = {}
        copy = _copy_slot(dual, k, names, tip_map)
        for old_tip, new_tip in tip_map.items():
            new_cap = old_cap = tip_cap.get(old_tip)
            if old_cap is not None:
                new_cap = names.derived(old_cap, k)
                caps[new_cap] = new_tip
                cap_copies.setdefault(old_cap, []).append(CapRef(new_cap))
            tip_cap[new_tip] = new_cap
        new_pairs.append((mine[k - 1], copy) if side == 0 else (copy, mine[k - 1]))
    new_pairs.extend(parent.pairs[pair + 1 :])
    state.body = Grope(with_stage_at(body.root, ppath, Stage(tuple(new_pairs))), body.closed)
    if not ppath:  # the new first-stage pairs are pieces too
        state.alive.extend(range(parent.genus, len(new_pairs)))

    # One ref, one ref per copy, or remap_mine, which also reads the point.
    image: dict[str | Path, SheetRef | list | Callable] = dict(cap_copies)
    if mine_cap is not None:
        image[mine_cap] = remap_mine
    depth = len(ppath)
    mine_step = (pair, side) if isinstance(old, Stage) else None
    dual_step = (pair, 1 - side) if isinstance(dual, Stage) else None
    for path in state.by_path:
        if len(path) > depth and path[:depth] == ppath:
            (j, s), rest = path[depth], path[depth + 1 :]
            if j > pair:
                image[path] = BodyRef(ppath + ((j + count - 1, s),) + rest)
            elif (j, s) == dual_step:
                image[path] = [BodyRef(ppath + ((pair + k, s),) + rest) for k in range(count)]
            elif (j, s) == mine_step:
                image[path] = remap_mine

    touched: set[str] = set()
    for key in image:
        touched.update((state.by_cap if type(key) is str else state.by_path).get(key, ()))

    def move(p: Intersection, end: SheetRef) -> SheetRef | list[SheetRef]:
        """The rewritten endpoint, or its list of per-copy endpoints."""
        kind = type(end)
        if kind is CapRef:
            moved = image.get(end.cap_id, end)
        elif kind is BodyRef:
            moved = image.get(end.path, end)
        else:
            return end
        return remap_mine(p, end) if moved is remap_mine else moved

    points = state.points
    for point_id in sorted(touched):
        p = points[point_id]
        a, b = move(p, p.end_a), move(p, p.end_b)
        if a is p.end_a and b is p.end_b:
            continue
        state.unindex(p)
        if type(a) is list or type(b) is list:
            # Later names extend ids sorted after this one, so none can be it.
            del points[point_id]
            for k in range(count):
                q = Intersection(
                    names.derived(point_id, k + 1),
                    a[k] if type(a) is list else a,
                    b[k] if type(b) is list else b,
                    p.label,
                )
                points[q.point_id] = q
                state.index(q)
        else:
            q = points[point_id] = Intersection(point_id, a, b, p.label)
            state.index(q)
    # The last name is derived: the replaced tip and the dual's tips (the
    # keys of the last copy's tip_map) go, with their caps.
    for tip in [*tip_map, old.tip_id] if isinstance(old, Tip) else tip_map:
        if (cap := tip_cap.pop(tip, None)) is not None:
            del caps[cap]
    state.changes += 1

    limits = state.limits
    genus = state.body.root.genus
    if genus > limits.max_first_stage_genus:
        raise GrowthLimitError(
            f"first-stage genus {genus} exceeds the limit {limits.max_first_stage_genus}"
        )
    if len(points) > limits.max_intersections:
        raise GrowthLimitError(
            f"{len(points)} intersections exceed the limit {limits.max_intersections}"
        )


def _split_cap_at(
    state: _RewriteState, cap_id: str, where: tuple[Path, int] | None = None
) -> None:
    """split_cap on the state: where is (stage path, pair) of the cap's tip, or None to find it.

    A given location is checked, not trusted, even for a cap with one value,
    which is left alone: the tip must sit in that pair, and its side there
    is the side split.
    """
    state.ready_to_split()
    if cap_id not in state.caps:
        raise ValidationError(f"unknown cap {cap_id!r}")
    values = state.cap_values(cap_id)
    if len(keys := set(values.values())) <= 1 and where is None:
        return
    tip_id = state.caps[cap_id]
    # A tip outside the body is looked up as pair -1, which holds no slots.
    ppath, pair = where or tip_locations(state.body).get(tip_id, ((), -1))[:2]
    parent = stage_at(state.body, ppath)
    slots = parent.pairs[pair] if 0 <= pair < parent.genus else ()
    if (tip := Tip(tip_id)) not in slots:
        place = f"pair {pair} of the stage at {path_doc(ppath)}" if where else "the body"
        raise ValidationError(f"cap {cap_id!r} sits on tip {tip_id!r}, which is not in {place}")
    if len(keys) <= 1:
        return
    side = slots.index(tip)
    names = _Names(state)
    least = min(keys)

    new_tips = (names.derived(tip_id, 1), names.derived(tip_id, 2))
    new_caps = (names.derived(cap_id, 1), names.derived(cap_id, 2))
    least_ref, rest_ref = CapRef(new_caps[0]), CapRef(new_caps[1])

    def remap_mine(p: Intersection, end: SheetRef) -> SheetRef:
        return least_ref if values[p.point_id] == least else rest_ref

    mine_caps = list(zip(new_caps, new_tips))
    _widen_pair(state, ppath, pair, side, [Tip(t) for t in new_tips], mine_caps, remap_mine, names)
    if state.trace is not None:
        state.trace.append(
            {
                "op": "split_cap",
                "cap": cap_id,
                "stage": path_doc(ppath),
                "pair": pair,
                "least": str(GroupWord(least)),
                "into": list(new_caps),
                "genusBefore": parent.genus,
                "genusAfter": parent.genus + 1,
            }
        )


def _split_stage_at(state: _RewriteState, path: Path) -> None:
    """split_stage on the state: refuses the first stage, leaves a genus-1 stage alone."""
    state.ready_to_split()
    if not path:
        raise RewriteError("the first stage is never split; it absorbs the genus")
    stage = stage_at(state.body, path)
    if (g := stage.genus) == 1:
        return
    ppath, (pair, side) = path[:-1], path[-1]
    genus = stage_at(state.body, ppath).genus
    depth = len(path)

    def remap_mine(p: Intersection, end: SheetRef) -> SheetRef:
        # The stage's own surface stays on the first piece; a stage above
        # pair j of it moves onto piece j.
        if len(end.path) == depth:
            return end
        j, s = end.path[depth]
        return BodyRef(ppath + ((pair + j, side), (0, s)) + end.path[depth + 1 :])

    mine = [Stage((pr,)) for pr in stage.pairs]
    _widen_pair(state, ppath, pair, side, mine, [], remap_mine, _Names(state))
    if state.trace is not None:
        state.trace.append(
            {
                "op": "split_stage",
                "stage": path_doc(path),
                "genus": g,
                "parentGenusBefore": genus,
                "parentGenusAfter": genus + g - 1,
            }
        )


def split_cap(
    cg: CappedGrope,
    cap_id: str,
    *,
    limits: SplitLimits | None = None,
    trace: list | None = None,
) -> CappedGrope:
    """Divide a cap carrying several label values into two caps.

    The cap's pair gains a twin: one new cap takes the intersections whose
    unoriented value is lexicographically least, the other takes the rest,
    and the dual slot is replaced by two parallel copies inheriting all of
    its intersections.  The dual slot may be a cap's tip or a whole stage
    subtree, which is copied with every cap and point on it.  A cap with at
    most one value is returned unchanged.  full_split and replay_trace apply
    the same rewrite to a state they keep across rewrites.
    """
    state = _RewriteState(cg, limits, trace)
    _split_cap_at(state, cap_id)
    return state.result()


def split_stage(
    cg: CappedGrope,
    path: Path,
    *,
    limits: SplitLimits | None = None,
    trace: list | None = None,
) -> CappedGrope:
    """Replace a genus-g stage above the first stage by g genus-1 stages.

    Each pair of the stage becomes its own genus-1 stage on the parent, and
    the dual slot is replaced by g parallel copies, one per piece, each
    inheriting all of its intersections.  A genus-1 stage is returned
    unchanged.
    """
    state = _RewriteState(cg, limits, trace)
    _split_stage_at(state, path)
    return state.result()


def _next_multi_valued_cap(state: _RewriteState, start: Path) -> tuple[str, Path] | None:
    """The first cap with several values at or after start, in grope._slots order."""
    tip_cap, by_cap = state.tip_cap, state.by_cap
    for path, slot in _slots(state.body, start):
        if type(slot) is Tip:
            cap = tip_cap.get(slot.tip_id)
            if len(by_cap.get(cap, ())) > 1 and len(set(state.cap_values(cap).values())) > 1:
                return cap, path
    return None


def _next_wide_stage(root: Stage, depth: int, start: Path) -> Path | None:
    """The first genus > 1 stage exactly `depth` deep at or after start, in grope._slots order."""
    for path, slot in _slots(root, start, depth):
        if len(path) == depth and type(slot) is Stage and slot.genus > 1:
            return path
    return None


def _predicted_size(state: _RewriteState) -> tuple[int, int]:
    """The first-stage genus full_split reaches, and a lower bound on the points it ends with.

    Both come from one walk of the body, without rewriting.  A slot stands
    for mult(slot) pieces: max(1, number of values) for a tip's cap, and for
    a stage the sum over its pairs of mult(a) * mult(b).  Every rewrite
    leaves mult of the first stage unchanged, and at the fixed point it
    equals the first-stage genus.

    In a pair (a, b) every piece of a ends up once beside each of the
    mult(b) pieces of b, so the sheet at path P (a cap's tip or a stage)
    ends on copies(P) sheets, the product of mult(dual slot) over P's steps.
    Each copy of a sheet carries a copy of each of its points.  A point's
    two ends are copied together along the steps their paths share, one
    copy per piece of the shared prefix, and apart below it, so it becomes
    copies(A) * copies(B) / copies(shared prefix) points.  Ends that a
    stage split later puts into different pieces are copied apart from then
    on, which only adds points, so the sum is a lower bound, exact for a
    point whose two ends lie on one sheet.  An end on a sphere, or on a
    sheet outside the body, counts as copied with the other end.
    """
    tip_cap = state.tip_cap
    mult: dict[Path, int] = {}
    cap_path: dict[str, Path] = {}

    def walk(slot: Slot, path: Path) -> int:
        if type(slot) is Tip:
            cap = tip_cap.get(slot.tip_id)
            m = 1
            if cap is not None:
                cap_path[cap] = path
                m = max(1, len(set(state.cap_values(cap).values())))
        else:
            m = sum(
                walk(a, path + ((j, ALPHA),)) * walk(b, path + ((j, BETA),))
                for j, (a, b) in enumerate(slot.pairs)
            )
        mult[path] = m
        return m

    genus = walk(state.body.root, ())
    copies: dict[Path, int] = {(): 1}
    for path in sorted(mult, key=len)[1:]:
        parent, (j, side) = path[:-1], path[-1]
        copies[path] = copies[parent] * mult[parent + ((j, 1 - side),)]

    def sheet_path(end: SheetRef) -> Path | None:
        kind = type(end)
        if kind is CapRef:
            return cap_path.get(end.cap_id)
        if kind is BodyRef and end.path in copies:
            return end.path
        return None

    total = 0
    for p in state.points.values():
        a, b = sheet_path(p.end_a), sheet_path(p.end_b)
        if a is None or b is None:
            known = b if a is None else a
            total += 1 if known is None else copies[known]
            continue
        shared = 0
        for step_a, step_b in zip(a, b):
            if step_a != step_b:
                break
            shared += 1
        total += copies[a] * copies[b] // copies[a[:shared]]
    return genus, total


def full_split(
    cg: CappedGrope,
    *,
    limits: SplitLimits | None = None,
    trace: list | None = None,
) -> CappedGrope:
    """Split caps and stages to a fixed point.

    Afterwards every cap carries at most one label value and every stage
    above the first has genus 1: the first stage holds all the genus and
    every pair heads a one-value-per-cap dyadic branch.  The class of the
    grope is unchanged.

    Rewrites run in the module's contract order, over the traversal order
    of gropes.grope: first the first multi-valued cap, repeatedly; then,
    among the deepest stages of genus > 1 above the first, the first one.
    Each search resumes from where the last rewrite happened, which the two
    cursor invariants in the module docstring make exact.  Raises
    GrowthLimitError before any rewrite when the splitting would raise the
    first-stage genus above limits.max_first_stage_genus, or the number of
    intersections (by a lower bound worked out from the input) above
    limits.max_intersections.
    """
    state = _RewriteState(cg, limits, trace)
    _full_split(state)
    return state.result()


def _full_split(state: _RewriteState) -> None:
    """full_split on the state."""
    state.ready_to_split()
    limits = state.limits
    genus, least = _predicted_size(state)
    if genus > max(state.body.root.genus, limits.max_first_stage_genus):
        raise GrowthLimitError(
            f"splitting would raise the first-stage genus to {genus}, "
            f"over the limit {limits.max_first_stage_genus}"
        )
    if least > max(len(state.points), limits.max_intersections):
        raise GrowthLimitError(
            f"splitting would make at least {least} intersections, "
            f"over the limit {limits.max_intersections}"
        )

    start: Path = ()
    while (found := _next_multi_valued_cap(state, start)) is not None:
        cap, path = found
        _split_cap_at(state, cap, (path[:-1], path[-1][0]))
        start = path[:-1] + ((path[-1][0], ALPHA),)

    depth = max((len(p) for p, s in iter_stages(state.body) if s.genus > 1), default=0)
    for depth in range(depth, 0, -1):
        start = ()
        while (path := _next_wide_stage(state.body.root, depth, start)) is not None:
            _split_stage_at(state, path)
            start = path[:-1] + ((path[-1][0], ALPHA),)
