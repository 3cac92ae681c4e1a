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
because it fixes every derived id and trace entry.  Both phases read the
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
as plain mutable data, and thaws the body as it opens: in the live body a
stage is a list of (alpha, beta) pairs and a tip is its id, and every
rewrite splices its new pairs into that list in place.  Each live point is
a private record of an intersection's fields and its label's unoriented
key, worked out once when the point enters the state and inherited by its
copies; a move rewrites a record's ends in place.  A live end is the key
of its sheet: a cap's id, a stage's path, or the point's SphereRef.  The
pushoff queues are live data too: the state takes each queue off its
sphere record as it opens, and holds a queued point's surviving end as a
live end.  Two helpers turn CapRefs and BodyRefs into these keys and back,
and run only where the state meets frozen objects: when it opens, and in
result().  The points are indexed by sheet: every point by id, the ids of
the points on each cap, and the ids of the points on each stage surface,
keyed by the stage's path.  A rewrite at pair j of the stage at path P
reads only the buckets it changes: the replaced cap's, those of the caps
copied with the dual slot, and those of the stage paths below P whose step
at P is the dual slot, the replaced slot, or a later pair (which shift by
the number of new pairs less one).  Every other point is untouched and
never visited.  The touched points are rewritten in id order, because a
copied point's lineage name depends on the names taken before it, and that
order is the one in which a scan of the sorted points always derived them.
A cap's label values are read from its bucket, as the records' keys, when
a split needs them, so no rewrite, contraction or pushoff keeps a second
copy of them in step.  A split after a contraction first drops the
contracted pairs and renumbers the body paths, as result() does.  Only
result() builds the frozen grope, each object once and through the public
constructors, so every one passes its checks: the Tips and Stages of the
live body, one Intersection per live point, one PendingPushoff per queued
point, and the CappedGrope, with its points sorted.

full_split runs each phase as one walk of the live body by grope._slots,
rewriting a slot as the walk yields it: phase 1 splits each multi-valued
cap at its tip, and phase 2, once per depth from the deepest wide stage up
to 1, splits each genus > 1 stage exactly that deep.  A rewrite splices its
new pairs into the very list the walk stands in, and the walk reads that
list afresh, so it goes on from the slot after the rewritten one (the
splice rule of _slots).  That is the contract order, because no slot the
walk has left behind can need a split.  The slots a rewrite puts behind
the walk unchecked need none: the first replacement of the rewritten slot
(a tip whose cap has one value, or a genus-1 piece) and, after a rewrite
on the beta side, the first copy of the alpha slot, which the walk has
finished and which has the same cap values and stage genera as its
original.

Duplication can grow structures fast (splitting a class-k grope whose caps
each carry n values multiplies first-stage genus to n^k), so both moves
enforce configurable size guards after every rewrite.  Only growth past a
guard is refused: a figure already over its guard may stay where it is.
full_split also refuses before its first rewrite when the first-stage genus
it would reach, worked out from the caps' values, or a lower bound on the
number of points it would make exceeds its guard.

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
from typing import Callable, Union

from .capped import (
    BodyRef,
    CappedGrope,
    CapRef,
    Intersection,
    PendingPushoff,
    SheetRef,
    SphereRef,
    derived_id,
)
from .errors import GrowthLimitError, RewriteError, ValidationError
from .grope import (
    Grope,
    Path,
    Slot,
    Stage,
    Tip,
    _slots,
    path_doc,
    stage_at,
)
from .words import GroupWord, unoriented_key


@dataclass(frozen=True, slots=True)
class SplitLimits:
    """Size guards; a rewrite that grows a figure past either is aborted."""

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
        name, state = f"{base}.{k}", self.state
        # __contains__ inline, as base.k is nearly always free; derived_id only on a collision.
        if (
            name in self.fresh or name in state.points or name in state.caps
            or name in state.tip_cap or name in state.sphere_at
        ):
            name = derived_id(base, k, self)
        self.fresh.add(name)
        return name


# A live point's end: a cap id, a stage path, or the point's SphereRef.
_Sheet = Union[str, Path, SphereRef]


def _sheet(end: SheetRef) -> _Sheet:
    """An end as the state keeps it, the key its sheet index uses."""
    kind = type(end)
    return end.cap_id if kind is CapRef else end.path if kind is BodyRef else end


def _sheet_ref(sheet: _Sheet) -> SheetRef:
    """A live end as the SheetRef an Intersection or a pending pushoff holds."""
    kind = type(sheet)
    return CapRef(sheet) if kind is str else BodyRef(sheet) if kind is tuple else sheet


@dataclass(slots=True)
class _Point:
    """A live point: an Intersection's fields and its label's unoriented key.

    The ends are live ends (_Sheet).  The key is worked out once, when the
    point enters the state, and its copies inherit it.  A move rewrites the
    ends in place; result() builds the Intersection.
    """

    point_id: str
    end_a: _Sheet
    end_b: _Sheet
    label: GroupWord
    key: tuple[int, ...]


def _thaw(slot: Slot, tips: dict[str, str | None]) -> str | list:
    """A live copy of a slot: a tip as its id, a stage as its list of (alpha, beta) pairs.

    Each tip id is added to tips, mapped to None, and one already there is
    refused: so is a stage shared by several parents (built through the API;
    documents are trees), before its paths are unfolded.
    """
    if type(slot) is Tip:
        if slot.tip_id in tips:
            raise ValidationError(f"tip id {slot.tip_id!r} occurs twice in the body")
        tips[slot.tip_id] = None
        return slot.tip_id
    return [(_thaw(a, tips), _thaw(b, tips)) for a, b in slot.pairs]


def _freeze(slot: str | list) -> Slot:
    """A live slot as a Tip or a Stage, built through the public constructors."""
    if type(slot) is str:
        return Tip(slot)
    return Stage(tuple((_freeze(a), _freeze(b)) for a, b in slot))


class _RewriteState:
    """A capped grope under splitting and contraction, its live points indexed by sheet.

    root is the first stage as a live stage (see _thaw), which splits edit
    in place and result() freezes, or None once every piece is contracted.
    points maps every live point's id to its _Point.  by_cap maps a cap,
    and by_path a stage path, to the ids of the points with an end on that
    sheet; a point on two sheets is in both buckets, and empty buckets are
    dropped.  tip_cap maps every tip of the body to its cap, or to None when
    it has none, and every other tip a cap sits on to that cap; _thaw enters
    the body's tips, and refuses a body with a tip id twice.

    A contraction leaves root as it is: alive lists the first-stage pairs
    not yet contracted, and body paths keep their numbers until renumber()
    drops the contracted pairs.  spheres holds the sphere records in order,
    without their pushoff queues, and sphere_at the place of each id.
    queues maps the place of each sphere with a pushoff queue to the queue:
    a (point id, live end, label read from that end) per queued point, in
    queue order.  It is keyed by place, so of two spheres with one id only
    the first, which sphere_at names, can be pushed off.  changes counts the
    rewrites and moves applied.
    """

    __slots__ = (
        "source", "root", "alive", "caps", "tip_cap", "points", "by_cap", "by_path",
        "spheres", "sphere_at", "queues", "limits", "trace", "changes",
    )

    def __init__(
        self, cg: CappedGrope, limits: SplitLimits | None = None, trace: list | None = None
    ):
        self.source = cg
        self.tip_cap = {}
        self.root = None if cg.body is None else _thaw(cg.body.root, self.tip_cap)
        self.alive = list(range(len(self.root or ())))
        self.caps = dict(cg.caps)
        self.tip_cap.update(cg.tip_to_cap)
        self.points = {
            p.point_id: _Point(
                p.point_id, _sheet(p.end_a), _sheet(p.end_b), p.label, unoriented_key(p.label)
            )
            for p in cg.intersections
        }
        if len(self.points) != len(cg.intersections):
            raise ValidationError("cannot rewrite a capped grope with duplicate intersection ids")
        self.by_cap: dict[str, set[str]] = {}
        self.by_path: dict[Path, set[str]] = {}
        for p in self.points.values():
            self.index(p)
        queued = [(i, s.pending) for i, s in enumerate(cg.spheres) if s.pending]
        self.queues = {i: [(q.point_id, _sheet(q.other), q.label) for q in qs] for i, qs in queued}
        self.spheres = [replace(s, pending=()) if s.pending else s for s in cg.spheres]
        # The first sphere of an id wins, as a search of the records in order finds it.
        self.sphere_at = {s.sphere_id: i for i, s in reversed(list(enumerate(self.spheres)))}
        self.limits = limits or DEFAULT_LIMITS
        self.trace = trace
        self.changes = 0

    def index(self, p: _Point) -> None:
        for end in (p.end_a, p.end_b):
            if type(end) is not SphereRef:
                buckets = self.by_cap if type(end) is str else self.by_path
                buckets.setdefault(end, set()).add(p.point_id)

    def unindex(self, p: _Point) -> None:
        for end in (p.end_a, p.end_b):
            # A sphere end is in neither index, so by_path has no bucket for it.
            buckets = self.by_cap if type(end) is str else self.by_path
            ids = buckets.get(end)
            if ids is not None:  # gone for a self point's second end or a contracted sheet
                ids.discard(p.point_id)
                if not ids:
                    del buckets[end]

    def renumber(self) -> None:
        """Drop the contracted first-stage pairs, renumbering the body paths after them."""
        root, alive = self.root, self.alive
        if root is None or len(alive) == len(root):
            return
        self.root = [root[j] for j in alive] or None
        self.alive = list(range(len(alive)))
        gone = sorted(set(range(len(root))).difference(alive))

        def renumber(end: _Sheet) -> _Sheet:
            if type(end) is not tuple or not end:
                return end
            (j, side), rest = end[0], end[1:]
            shift = bisect_left(gone, j)
            return ((j - shift, side),) + rest if shift else end

        for p in self.points.values():
            if type(p.end_a) is tuple or type(p.end_b) is tuple:
                self.unindex(p)
                p.end_a, p.end_b = renumber(p.end_a), renumber(p.end_b)
                self.index(p)
        for queue in self.queues.values():
            queue[:] = [(point_id, renumber(end), label) for point_id, end, label in queue]

    def cap_keys(self, cap_id: str) -> set[tuple[int, ...]]:
        """The distinct unoriented label values of the live points on the cap."""
        points = self.points
        return {points[i].key for i in self.by_cap.get(cap_id, ())}

    def ready_to_split(self) -> None:
        """Renumber after contractions; a fully surgered grope cannot split."""
        self.renumber()
        if self.root is None:
            raise ValidationError("cannot split a fully surgered grope")

    def result(self) -> CappedGrope:
        """The rewritten grope, built once; the input if nothing was rewritten.

        It ends the state: the live body is dropped once frozen, so it is
        not held beside the Intersections.
        """
        if not self.changes:
            return self.source
        self.renumber()
        body = None if self.root is None else Grope(_freeze(self.root), self.source.body.closed)
        self.root = None
        live = self.points.values()
        # One SheetRef per sheet, shared by every point on it.
        refs = dict.fromkeys(end for p in live for end in (p.end_a, p.end_b))
        for end in refs:
            refs[end] = _sheet_ref(end)
        points = tuple(Intersection(p.point_id, refs[p.end_a], refs[p.end_b], p.label) for p in live)
        spheres = self.spheres
        for i, queue in self.queues.items():
            pending = tuple(
                PendingPushoff(point_id, _sheet_ref(end), label) for point_id, end, label in queue
            )
            spheres[i] = replace(spheres[i], pending=pending)
        return CappedGrope(body, self.caps, points, tuple(spheres))


def _copy_slot(slot: str | list, k: int, names: _Names, tip_map: dict[str, str]) -> str | list:
    """Copy k of a live slot, with lineage names for its tips, recorded in tip_map."""
    if type(slot) is str:
        tip_map[slot] = new_id = names.derived(slot, k)
        return new_id
    return [
        (_copy_slot(a, k, names, tip_map), _copy_slot(b, k, names, tip_map)) for a, b in slot
    ]


def _widen_pair(
    state: _RewriteState,
    ppath: Path,
    pair: int,
    side: int,
    mine: list,
    mine_caps: list[tuple[str, str]],
    remap_mine: Callable[[_Point, _Sheet], _Sheet],
    names: _Names,
) -> None:
    """Replace pair `pair` of the live stage at ppath by len(mine) pairs, in place.

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
    caps, tip_cap, limits = state.caps, state.tip_cap, state.limits
    # Only growth is refused: a figure already over its guard may stay there.
    max_genus = max(limits.max_first_stage_genus, len(state.root))
    max_points = max(limits.max_intersections, len(state.points))
    pairs = stage_at(state.root, ppath)
    old, dual = pairs[pair][side], pairs[pair][1 - side]
    count = len(mine)

    mine_cap = tip_cap.get(old) if type(old) is str else None
    for cap, tip in mine_caps:
        caps[cap] = tip
        tip_cap[tip] = cap

    new_pairs = []
    cap_copies: dict[str, list[str]] = {}
    for k in range(1, count + 1):
        tip_map: dict[str, str] = {}
        copy = _copy_slot(dual, k, names, tip_map)
        for old_tip, new_tip in tip_map.items():
            new_cap = old_cap = tip_cap.get(old_tip)
            if old_cap is not None:
                new_cap = names.derived(old_cap, k)
                caps[new_cap] = new_tip
                cap_copies.setdefault(old_cap, []).append(new_cap)
            tip_cap[new_tip] = new_cap
        new_pairs.append((mine[k - 1], copy) if side == 0 else (copy, mine[k - 1]))
    pairs[pair : pair + 1] = new_pairs
    if not ppath:  # the new first-stage pairs are pieces too
        state.alive.extend(range(len(state.alive), len(pairs)))

    # One end, one end per copy, or remap_mine, which also reads the point.
    image: dict[_Sheet, _Sheet | list | Callable] = dict(cap_copies)
    if mine_cap is not None:
        image[mine_cap] = remap_mine
    depth = len(ppath)
    mine_step = (pair, side) if type(old) is list else None
    dual_step = (pair, 1 - side) if type(dual) is list else None
    for path in state.by_path:
        if len(path) > depth and path[:depth] == ppath:
            (j, s), rest = path[depth], path[depth + 1 :]
            if j > pair:
                image[path] = ppath + ((j + count - 1, s),) + rest
            elif (j, s) == dual_step:
                image[path] = [ppath + ((pair + k, s),) + rest for k in range(count)]
            elif (j, s) == mine_step:
                image[path] = remap_mine

    touched: set[str] = set()
    for key in image:
        touched.update((state.by_cap if type(key) is str else state.by_path).get(key, ()))

    def move(p: _Point, end: _Sheet) -> _Sheet | list[_Sheet]:
        """The rewritten endpoint, or its list of per-copy endpoints."""
        moved = image.get(end, end)
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
                q = _Point(
                    names.derived(point_id, k + 1),
                    a[k] if type(a) is list else a,
                    b[k] if type(b) is list else b,
                    p.label,
                    p.key,
                )
                points[q.point_id] = q
                state.index(q)
        else:
            p.end_a, p.end_b = a, b
            state.index(p)
    # The last name is derived: the replaced tip and the dual's tips (the
    # keys of the last copy's tip_map) go, with their caps.
    for tip in [*tip_map, old] if type(old) is str else tip_map:
        if (cap := tip_cap.pop(tip, None)) is not None:
            del caps[cap]
    state.changes += 1

    if (genus := len(state.root)) > max_genus:
        raise GrowthLimitError(
            f"first-stage genus {genus} exceeds the limit {limits.max_first_stage_genus}"
        )
    if len(points) > max_points:
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
    if len(keys := state.cap_keys(cap_id)) <= 1 and where is None:
        return
    tip_id = state.caps[cap_id]
    # A tip outside the body is looked up as pair -1, which holds no slots.
    at = ((p[:-1], p[-1][0]) for p, slot in _slots(state.root) if slot == tip_id)
    ppath, pair = where or next(at, ((), -1))
    parent = stage_at(state.root, ppath)
    genus = len(parent)  # read before _widen_pair widens parent in place
    slots = parent[pair] if 0 <= pair < genus else ()
    if tip_id not in slots:
        place = f"pair {pair} of the stage at {path_doc(ppath)}" if where else "the body"
        raise ValidationError(f"cap {cap_id!r} sits on tip {tip_id!r}, which is not in {place}")
    if len(keys) <= 1:
        return
    side = slots.index(tip_id)
    names = _Names(state)
    least = min(keys)

    new_tips = (names.derived(tip_id, 1), names.derived(tip_id, 2))
    new_caps = (names.derived(cap_id, 1), names.derived(cap_id, 2))

    def remap_mine(p: _Point, end: _Sheet) -> _Sheet:
        return new_caps[0] if p.key == least else new_caps[1]

    mine_caps = list(zip(new_caps, new_tips))
    _widen_pair(state, ppath, pair, side, list(new_tips), mine_caps, remap_mine, names)
    if state.trace is not None:
        state.trace.append(
            {
                "op": "split_cap",
                "cap": cap_id,
                "stage": path_doc(ppath),
                "pair": pair,
                "least": str(GroupWord(least)),
                "into": list(new_caps),
                "genusBefore": genus,
                "genusAfter": genus + 1,
            }
        )


def _split_stage_at(state: _RewriteState, path: Path) -> None:
    """split_stage on the state: refuses the first stage, leaves a genus-1 stage alone."""
    state.ready_to_split()
    if not path:
        raise RewriteError("the first stage is never split; it absorbs the genus")
    stage = stage_at(state.root, path)
    if (g := len(stage)) == 1:
        return
    ppath, (pair, side) = path[:-1], path[-1]
    genus = len(stage_at(state.root, ppath))
    depth = len(path)

    def remap_mine(p: _Point, end: _Sheet) -> _Sheet:
        # The stage's own surface stays on the first piece; a stage above
        # pair j of it moves onto piece j.
        if len(end) == depth:
            return end
        j, s = end[depth]
        return ppath + ((pair + j, side), (0, s)) + end[depth + 1 :]

    mine = [[pr] for pr in stage]
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


def _predicted_size(state: _RewriteState) -> tuple[int, int]:
    """The first-stage genus full_split reaches, and a lower bound on the points it ends with.

    Both come from one walk of the body by grope._slots, without rewriting,
    once the state is ready to split (see _RewriteState.ready_to_split).  A
    slot stands for mult(slot) pieces: max(1, number of values) for a tip's
    cap, and for a stage the sum over its pairs of mult(a) * mult(b).  The
    walk is read in reverse, first stage last, so every slot is valued after
    the slots above it.  Every rewrite leaves mult(()), that of the first
    stage, unchanged, and at the fixed point it equals the first-stage genus.

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
    state.ready_to_split()
    mult: dict[Path, int] = {}
    cap_path: dict[str, Path] = {}
    for path, slot in reversed([((), state.root), *_slots(state.root)]):
        if type(slot) is str:
            cap = state.tip_cap.get(slot)
            m = 1
            if cap is not None:
                cap_path.setdefault(cap, path)  # a repeated tip id: its last path
                m = max(1, len(state.cap_keys(cap)))
        else:
            m = sum(mult[path + ((j, 0),)] * mult[path + ((j, 1),)] for j in range(len(slot)))
        mult[path] = m
    copies: dict[Path, int] = {(): 1}
    for path in sorted(mult, key=len)[1:]:
        parent, (j, side) = path[:-1], path[-1]
        copies[path] = copies[parent] * mult[parent + ((j, 1 - side),)]

    # The path of each sheet in the body: a cap's tip path, or a stage's own.
    sheet_path = cap_path | dict(zip(copies, copies))
    total = 0
    for p in state.points.values():
        a, b = sheet_path.get(p.end_a), sheet_path.get(p.end_b)
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
    return mult[()], total


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
    Each phase is one walk of the live body, which the splice rule in the
    module docstring makes exact.  Raises
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
    limits = state.limits
    genus, least = _predicted_size(state)  # which readies the state to split
    if genus > max(len(state.root), limits.max_first_stage_genus):
        raise GrowthLimitError(
            f"splitting would raise the first-stage genus to {genus}, "
            f"over the limit {limits.max_first_stage_genus}"
        )
    if least > max(len(state.points), limits.max_intersections):
        raise GrowthLimitError(
            f"splitting would make at least {least} intersections, "
            f"over the limit {limits.max_intersections}"
        )

    # Each rewrite splices its pairs into the stage the walk stands in (see _slots).
    tip_cap, by_cap = state.tip_cap, state.by_cap
    for path, slot in _slots(state.root):
        if type(slot) is str:
            cap = tip_cap.get(slot)
            if len(by_cap.get(cap, ())) > 1 and len(state.cap_keys(cap)) > 1:
                _split_cap_at(state, cap, (path[:-1], path[-1][0]))

    wide = (len(p) for p, s in _slots(state.root) if type(s) is list and len(s) > 1)
    for depth in range(max(wide, default=0), 0, -1):
        for path, slot in _slots(state.root, max_depth=depth):
            if len(path) == depth and type(slot) is list and len(slot) > 1:
                _split_stage_at(state, path)
