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
  with n values ends as n caps of one value each.

* split_stage widens the pair holding a genus-g stage (g >= 2) above the
  first stage into g pairs, each holding one genus-1 piece of that stage.

full_split drives both to a fixed point: afterwards every cap carries at most
one label value and every stage above the first has genus 1, so all genus is
concentrated on the first stage.  Duplication can grow structures fast
(splitting a class-k grope whose caps each carry n values multiplies
first-stage genus to n^k), so both moves enforce configurable size guards.

Parallel copies get lineage names: cap c3 becomes c3.1 and c3.2, an
intersection i7 inherited by two copies becomes i7.1 and i7.2.  Surviving
sheets keep their ids, so rewrites are auditable and replayable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .capped import (
    BodyRef,
    CappedGrope,
    CapRef,
    Intersection,
    SheetRef,
    cap_order,
    cap_value_keys,
    value_keys_by_cap,
)
from .errors import DualNotCapError, GrowthLimitError, RewriteError, ValidationError
from .grope import (
    Grope,
    Path,
    Slot,
    Stage,
    Tip,
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
    """Deterministic lineage naming with collision avoidance."""

    def __init__(self, cg: CappedGrope):
        taken = set(cg.caps) | set(cg.caps.values())
        taken.update(p.point_id for p in cg.intersections)
        taken.update(s.sphere_id for s in cg.spheres)
        if cg.body is not None:
            taken.update(tips(cg.body))
        self.taken = taken

    def derived(self, base: str, k: int) -> str:
        name = f"{base}.{k}"
        m = 0
        while name in self.taken:
            m += 1
            name = f"{base}.{k}.{m}"
        self.taken.add(name)
        return name


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
    cg: CappedGrope,
    ppath: Path,
    pair: int,
    side: int,
    mine: list[Slot],
    mine_caps: dict[str, str],
    remap_mine: Callable[[Intersection, SheetRef], SheetRef],
    names: _Names,
    limits: SplitLimits,
) -> CappedGrope:
    """Replace pair `pair` of the stage at ppath by len(mine) pairs.

    New pair k holds mine[k] on `side` and the k-th parallel copy of the dual
    slot opposite it; each copy takes lineage names and inherits every
    intersection of the dual, so a point on the dual becomes one point per
    copy.  A replaced tip's cap gives way to mine_caps (cap id -> tip id).
    Endpoints on the replaced slot (its cap, or any stage in it) are
    rewritten by remap_mine, and body paths through later pairs of the stage
    shift by len(mine) - 1.
    """
    body = cg.body
    parent = stage_at(body, ppath)
    old, dual = parent.pairs[pair][side], parent.pairs[pair][1 - side]
    count = len(mine)
    tip_to_cap = cg.tip_to_cap

    caps = dict(cg.caps)
    mine_cap = tip_to_cap.get(old.tip_id) if isinstance(old, Tip) else None
    if mine_cap is not None:
        del caps[mine_cap]
    caps.update(mine_caps)

    new_pairs = list(parent.pairs[:pair])
    cap_copies: dict[str, list[CapRef]] = {}
    for k in range(1, count + 1):
        tip_map: dict[str, str] = {}
        copy = _copy_slot(dual, k, names, tip_map)
        for old_tip, new_tip in tip_map.items():
            old_cap = tip_to_cap.get(old_tip)
            if old_cap is not None:
                new_cap = names.derived(old_cap, k)
                caps[new_cap] = new_tip
                cap_copies.setdefault(old_cap, []).append(CapRef(new_cap))
        new_pairs.append((mine[k - 1], copy) if side == 0 else (copy, mine[k - 1]))
    new_pairs.extend(parent.pairs[pair + 1 :])
    for old_cap in cap_copies:
        del caps[old_cap]
    body = Grope(with_stage_at(body.root, ppath, Stage(tuple(new_pairs))), body.closed)

    depth = len(ppath)
    mine_step = (pair, side) if isinstance(old, Stage) else None
    dual_step = (pair, 1 - side) if isinstance(dual, Stage) else None

    def move(p: Intersection, end: SheetRef) -> SheetRef | list[SheetRef]:
        """The rewritten endpoint, or its list of per-copy endpoints."""
        kind = type(end)
        if kind is CapRef:
            if end.cap_id == mine_cap:
                return remap_mine(p, end)
            return cap_copies.get(end.cap_id, end)
        if kind is BodyRef:
            path = end.path
            if len(path) > depth and path[:depth] == ppath:
                step = path[depth]
                if step[0] > pair:
                    return BodyRef(ppath + ((step[0] + count - 1, step[1]),) + path[depth + 1 :])
                if step == dual_step:
                    rest = path[depth + 1 :]
                    return [BodyRef(ppath + ((pair + k, step[1]),) + rest) for k in range(count)]
                if step == mine_step:
                    return remap_mine(p, end)
        return end

    points: list[Intersection] = []
    for p in cg.intersections:
        a, b = move(p, p.end_a), move(p, p.end_b)
        a_copied, b_copied = type(a) is list, type(b) is list
        if a_copied or b_copied:
            for k in range(count):
                points.append(
                    Intersection(
                        names.derived(p.point_id, k + 1),
                        a[k] if a_copied else a,
                        b[k] if b_copied else b,
                        p.label,
                    )
                )
        elif a is p.end_a and b is p.end_b:
            points.append(p)  # untouched points are shared, not rebuilt
        else:
            points.append(Intersection(p.point_id, a, b, p.label))

    genus = body.root.genus
    if genus > limits.max_first_stage_genus:
        raise GrowthLimitError(
            f"first-stage genus {genus} exceeds the limit {limits.max_first_stage_genus}"
        )
    if len(points) > limits.max_intersections:
        raise GrowthLimitError(
            f"{len(points)} intersections exceed the limit {limits.max_intersections}"
        )
    return CappedGrope(body, caps, tuple(points), cg.spheres)


def split_cap(
    cg: CappedGrope,
    cap_id: str,
    *,
    limits: SplitLimits | None = None,
    trace: list | None = None,
    allow_stage_dual: bool = False,
) -> CappedGrope:
    """Divide a cap carrying several label values into two caps.

    The cap's pair gains a twin: one new cap takes the intersections whose
    unoriented value is lexicographically least, the other takes the rest,
    and the dual slot is replaced by two parallel copies inheriting all of
    its intersections.  A cap with at most one value is returned unchanged.

    By default the dual slot must be a cap (a tip); pass allow_stage_dual to
    parallel-copy a whole dual subtree instead, which is how full_split
    splits caps deep in the tree.
    """
    limits = limits or DEFAULT_LIMITS
    if cg.body is None:
        raise ValidationError("cannot split a fully surgered grope")
    if cap_id not in cg.caps:
        raise ValidationError(f"unknown cap {cap_id!r}")
    keys = cap_value_keys(cg, cap_id)
    if len(keys) <= 1:
        return cg
    least = min(keys)

    tip_id = cg.caps[cap_id]
    ppath, pair, side = tip_locations(cg.body)[tip_id]
    parent = stage_at(cg.body, ppath)
    if isinstance(parent.pairs[pair][1 - side], Stage) and not allow_stage_dual:
        raise DualNotCapError(
            f"the dual of cap {cap_id!r} is a stage; split the dual subtree first"
        )

    names = _Names(cg)
    new_tips = (names.derived(tip_id, 1), names.derived(tip_id, 2))
    new_caps = (names.derived(cap_id, 1), names.derived(cap_id, 2))
    least_ref, rest_ref = CapRef(new_caps[0]), CapRef(new_caps[1])

    def remap_mine(p: Intersection, end: SheetRef) -> SheetRef:
        return least_ref if unoriented_key(p.label) == least else rest_ref

    out = _widen_pair(
        cg,
        ppath,
        pair,
        side,
        [Tip(t) for t in new_tips],
        dict(zip(new_caps, new_tips)),
        remap_mine,
        names,
        limits,
    )
    if trace is not None:
        trace.append(
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
    return out


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
    limits = limits or DEFAULT_LIMITS
    if cg.body is None:
        raise ValidationError("cannot split a fully surgered grope")
    if not path:
        raise RewriteError("the first stage is never split; it absorbs the genus")
    stage = stage_at(cg.body, path)
    g = stage.genus
    if g == 1:
        return cg

    ppath, (pair, side) = path[:-1], path[-1]
    parent = stage_at(cg.body, ppath)
    depth = len(path)

    def remap_mine(p: Intersection, end: SheetRef) -> SheetRef:
        # The stage's own surface stays on the first piece; a stage above
        # pair j of it moves onto piece j.
        if len(end.path) == depth:
            return end
        j, s = end.path[depth]
        return BodyRef(ppath + ((pair + j, side), (0, s)) + end.path[depth + 1 :])

    out = _widen_pair(
        cg,
        ppath,
        pair,
        side,
        [Stage((pr,)) for pr in stage.pairs],
        {},
        remap_mine,
        _Names(cg),
        limits,
    )
    if trace is not None:
        trace.append(
            {
                "op": "split_stage",
                "stage": path_doc(path),
                "genus": g,
                "parentGenusBefore": parent.genus,
                "parentGenusAfter": parent.genus + g - 1,
            }
        )
    return out


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
    """
    limits = limits or DEFAULT_LIMITS
    while True:
        keys = value_keys_by_cap(cg)
        for cap in cap_order(cg):
            if len(keys[cap]) > 1:
                cg = split_cap(cg, cap, limits=limits, trace=trace, allow_stage_dual=True)
                break
        else:
            deepest: Path | None = None
            for path, stage in iter_stages(cg.body):
                if path and stage.genus > 1 and (deepest is None or len(path) > len(deepest)):
                    deepest = path
            if deepest is None:
                return cg
            cg = split_stage(cg, deepest, limits=limits, trace=trace)
