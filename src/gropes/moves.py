"""Contraction and pushoff: trading a grope piece for a sphere.

Contracting a genus-1 piece along two caps that carry the same label value g
performs symmetric surgery: the piece disappears and a sphere appears.  Label
bookkeeping is what makes the sphere useful: an intersection between the two
chosen caps contributes g * g^-1 = 1, so the sphere's self-intersections are
all identity-labeled.  Every other sheet that met the piece is queued, and
pushoff resolves the queue by replacing each queued point with two parallel
crossings of the sphere whose labels cancel, again identity.  The net effect
of contract + pushoff is strictly fewer distinct label values, never more.

After full_split, a grope's pieces are its first-stage pairs, taken in
order: piece k is contracted as pair 0 of what the k earlier pieces left.
Calling find_duplicate_pair, contract and pushoff once per piece rescans
every point for every piece.  run_surgery gets the same husks, trace and
errors from _sweep, one pass over an index of the split grope's points:

- Each live point sits in the bucket of the first piece its ends touch.  A
  cap belongs to the first-stage pair it sits on; a BodyRef to path[0][0];
  the first stage itself, BodyRef(()), to the last piece, the only one for
  which contract counts it inside; a sphere to no piece.
- When piece k comes up, bucket k holds every live point that touches it:
  points touching an earlier piece were used up there, and pushoff files
  each copy it makes under the later piece whose sheet the copy still
  touches.  The pair search, the self/queued split and pushoff read bucket
  k only, sorted by id as the grope's points are.
- Body paths are never shifted down as pieces go: they reach neither the
  trace nor the husk, and the index needs only their first step.
- One dict maps every live point id to its point, so sphere names (sph{n},
  n counted from the sphere count) and pushoff copies (i.k, i.k.m) skip
  exactly the ids the per-piece calls would skip.

The husk is built, and its points sorted, once.  The public moves share
each step with the sweep (pair choice, point classification, pushoff
naming, trace entries) and stay for the CLI and replay_trace.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Container, Iterable

from .capped import (
    BodyRef,
    CappedGrope,
    CapRef,
    Intersection,
    PendingPushoff,
    SheetRef,
    SphereRecord,
    SphereRef,
    _value_keys,
    derived_id,
    value_keys_by_cap,
)
from .errors import (
    LabelMismatchError,
    MoveError,
    NotDyadicError,
    PigeonholeFailure,
    SplitFirstError,
    ValidationError,
)
from .grope import Grope, Slot, Stage, Tip, is_dyadic, tips
from .words import IDENTITY, GroupWord


def piece_caps(cg: CappedGrope, pair_index: int) -> list[str]:
    """Caps of the subtree headed by a first-stage pair, in traversal order."""
    if cg.body is None:
        raise MoveError("nothing to contract: the body is fully surgered")
    root = cg.body.root
    if not 0 <= pair_index < root.genus:
        raise ValidationError(f"no pair {pair_index} at a genus-{root.genus} first stage")
    return _pair_caps(root, pair_index, cg.tip_to_cap)


def _pair_caps(root: Stage, pair_index: int, by_tip: dict[str, str]) -> list[str]:
    out = []
    for slot in root.pairs[pair_index]:
        for t in ([slot.tip_id] if isinstance(slot, Tip) else tips(slot)):
            try:
                out.append(by_tip[t])
            except KeyError:
                raise ValidationError(f"tip {t!r} has no cap") from None
    return out


def _require_dyadic(pair: tuple[Slot, Slot], pair_index: int) -> None:
    if not all(is_dyadic(slot) for slot in pair if isinstance(slot, Stage)):
        raise NotDyadicError(
            f"pair {pair_index} heads a subtree with genus above 1; split stages first"
        )


def _refuse_pending(spheres: Iterable[SphereRecord]) -> None:
    for s in spheres:
        if s.pending:
            raise MoveError(f"sphere {s.sphere_id!r} has a pending pushoff queue")


def effective_value(cap_id: str, keys: set[tuple[int, ...]]) -> tuple[int, ...]:
    """The single nonidentity value among a cap's value_keys_by_cap, or ().

    Identity crossings (for example the parallel sphere crossings created by
    pushoff) carry no group element and never obstruct pairing, so they are
    ignored here; a cap is "clean" when nothing nonidentity meets it.
    """
    keys = keys - {()}
    if len(keys) > 1:
        raise SplitFirstError(
            f"cap {cap_id!r} carries {len(keys)} label values; split it first"
        )
    return keys.pop() if keys else ()


def find_duplicate_pair(
    cg: CappedGrope, pair_index: int, *, piece_name: str | None = None
) -> tuple[str, str]:
    """Two caps of the piece carrying the same value, deterministically.

    Clean caps (no label value) match each other first; otherwise the first
    same-value pair in piece_caps order, the traversal order of gropes.grope,
    wins.  Raises SplitFirstError if some cap still carries several values,
    PigeonholeFailure if all values on the piece are distinct.
    """
    caps_here = piece_caps(cg, pair_index)
    return _pick_pair(caps_here, value_keys_by_cap(cg), piece_name or f"pair {pair_index}")


def _pick_pair(
    caps_here: list[str], values: dict[str, set[tuple[int, ...]]], name: str
) -> tuple[str, str]:
    """find_duplicate_pair's choice among a piece's caps, given their value sets."""
    first: dict[tuple[int, ...], str] = {}
    fallback: tuple[str, str] | None = None
    for cap in caps_here:
        key = effective_value(cap, values[cap])
        if key not in first:
            first[key] = cap
        elif key == ():
            return first[key], cap
        elif fallback is None:
            fallback = (first[key], cap)
    if fallback is not None:
        return fallback
    raise PigeonholeFailure(
        f"{name}: all {len(caps_here)} caps carry distinct values; "
        "no contraction pair exists",
        piece=name,
    )


def contract(
    cg: CappedGrope,
    pair_index: int,
    cap_a: str,
    cap_b: str,
    *,
    piece: int | None = None,
    trace: list | None = None,
) -> tuple[CappedGrope, SphereRecord]:
    """Contract the genus-1 piece at a first-stage pair along two of its caps.

    The caps must both sit on the piece, carry one label value each, and the
    two values must agree up to orientation.  The piece's subtree must be
    dyadic (genus 1 throughout).  Returns the rewritten grope and the new
    sphere; intersections wholly inside the piece become identity-labeled
    self-intersections of the sphere, intersections reaching outside are
    queued on the sphere for pushoff.

    piece tags the sphere record with the caller's piece ordinal (defaults
    to the pair index).
    """
    if cg.body is None:
        raise MoveError("nothing to contract: the body is fully surgered")
    _refuse_pending(cg.spheres)
    root = cg.body.root
    caps_here = piece_caps(cg, pair_index)
    _require_dyadic(root.pairs[pair_index], pair_index)
    if cap_a == cap_b:
        raise MoveError("contraction needs two distinct caps")
    for c in (cap_a, cap_b):
        if c not in caps_here:
            raise MoveError(f"cap {c!r} is not on the piece at pair {pair_index}")
    values = value_keys_by_cap(cg)
    key_a = effective_value(cap_a, values[cap_a])
    key_b = effective_value(cap_b, values[cap_b])
    if key_a != key_b:
        raise LabelMismatchError(
            f"caps {cap_a!r} and {cap_b!r} carry different values "
            f"({GroupWord(key_a)} vs {GroupWord(key_b)})"
        )

    last_pair = root.genus == 1
    piece_cap_set = set(caps_here)
    prefixes = tuple((pair_index, side) for side in (0, 1))

    def in_piece(end: SheetRef) -> bool:
        if isinstance(end, CapRef):
            return end.cap_id in piece_cap_set
        if isinstance(end, BodyRef):
            if last_pair:
                return True
            return bool(end.path) and end.path[0] in prefixes
        return False

    def remap(end: SheetRef) -> SheetRef:
        if isinstance(end, BodyRef) and end.path and end.path[0][0] > pair_index:
            (j, side), rest = end.path[0], end.path[1:]
            return BodyRef(((j - 1, side),) + rest)
        return end

    sphere_id = _sphere_name(
        len(cg.spheres),
        {p.point_id for p in cg.intersections},
        {s.sphere_id for s in cg.spheres},
    )
    kept, selfs, self_log, queued = _absorb(
        cg.intersections, in_piece, SphereRef(sphere_id), remap
    )
    if last_pair:
        body = None
    else:
        body = Grope(Stage(root.pairs[:pair_index] + root.pairs[pair_index + 1 :]), cg.body.closed)
    caps = {c: t for c, t in cg.caps.items() if c not in piece_cap_set}
    record = SphereRecord(
        sphere_id,
        pair_index if piece is None else piece,
        cap_a,
        cap_b,
        GroupWord(key_a),
        tuple(queued),
    )
    out = CappedGrope(body, caps, tuple(kept + selfs), cg.spheres + (record,))
    if trace is not None:
        trace.append(_contract_entry(pair_index, record, self_log, queued))
    return out, record


def _sphere_name(n: int, point_ids: Container[str], sphere_ids: Container[str]) -> str:
    """sph{n}, counting up from n (the sphere count) past every id in use."""
    while f"sph{n}" in point_ids or f"sph{n}" in sphere_ids:
        n += 1
    return f"sph{n}"


def _absorb(
    points: Iterable[Intersection],
    in_piece: Callable[[SheetRef], bool],
    sphere_ref: SphereRef,
    remap: Callable[[SheetRef], SheetRef],
) -> tuple[list[Intersection], list[Intersection], list[dict], list[PendingPushoff]]:
    """Sort points against a piece being contracted into the sphere.

    A point with both ends on the piece becomes an identity self-point of
    the sphere (logged with the label it had); one with a single end there
    is queued from its other end, read through remap; the rest are kept,
    and a kept point whose ends remap to themselves is kept as is.  Returns
    (kept, selfs, self log, queued), each in the order of points.
    """
    kept: list[Intersection] = []
    selfs: list[Intersection] = []
    self_log: list[dict] = []
    queued: list[PendingPushoff] = []
    for p in points:
        a_in, b_in = in_piece(p.end_a), in_piece(p.end_b)
        if a_in and b_in:
            selfs.append(Intersection(p.point_id, sphere_ref, sphere_ref, IDENTITY))
            self_log.append({"point": p.point_id, "was": str(p.label), "result": "1"})
        elif a_in or b_in:
            other = p.end_b if a_in else p.end_a
            queued.append(PendingPushoff(p.point_id, remap(other), p.label_from(other)))
        else:
            a, b = remap(p.end_a), remap(p.end_b)
            if a is p.end_a and b is p.end_b:
                kept.append(p)
            else:
                kept.append(Intersection(p.point_id, a, b, p.label))
    return kept, selfs, self_log, queued


def _contract_entry(
    pair_index: int, record: SphereRecord, self_log: list[dict], queued: list[PendingPushoff]
) -> dict:
    return {
        "op": "contract",
        "pairIndex": pair_index,
        "piece": record.piece,
        "capA": record.cap_a,
        "capB": record.cap_b,
        "label": str(record.label),
        "sphere": record.sphere_id,
        "selfPoints": self_log,
        "queued": [q.point_id for q in queued],
    }


def pushoff(cg: CappedGrope, sphere_id: str, *, trace: list | None = None) -> CappedGrope:
    """Resolve a sphere's pushoff queue.

    Each queued intersection with label l becomes two parallel crossings of
    the sphere by the surviving sheet; their labels l * g^-1 and its partner
    cancel to the identity, which is what gets recorded.  A sphere with an
    empty queue is returned unchanged.
    """
    record = cg.sphere(sphere_id)
    if not record.pending:
        return cg
    live = {p.point_id: p for p in cg.intersections}
    new_points, logged = _push_off(record.pending, SphereRef(sphere_id), live)
    spheres = tuple(
        SphereRecord(s.sphere_id, s.piece, s.cap_a, s.cap_b, s.label, ())
        if s.sphere_id == sphere_id
        else s
        for s in cg.spheres
    )
    out = CappedGrope(cg.body, cg.caps, cg.intersections + tuple(new_points), spheres)
    if trace is not None:
        trace.append(_pushoff_entry(sphere_id, logged))
    return out


def _push_off(
    pending: Iterable[PendingPushoff], sphere_ref: SphereRef, live: dict[str, Intersection]
) -> tuple[list[Intersection], list[dict]]:
    """Two identity crossings of the sphere per queued point, added to live.

    live maps every point id in use to its point.  The copies of point i
    take the lineage names derived_id gives: i.1 and i.2 when free.
    Returns the new points and the pushoff log, in queue order.
    """
    new_points: list[Intersection] = []
    logged = []
    for q in pending:
        created = []
        for k in (1, 2):
            name = derived_id(q.point_id, k, live)
            point = Intersection(name, q.other, sphere_ref, IDENTITY)
            live[name] = point
            new_points.append(point)
            created.append(name)
        logged.append(
            {
                "from": q.point_id,
                "hadLabel": str(q.label),
                "created": created,
                "result": "1",
            }
        )
    return new_points, logged


def _pushoff_entry(sphere_id: str, logged: list[dict]) -> dict:
    return {"op": "pushoff", "sphere": sphere_id, "points": logged}


def _sweep(cg: CappedGrope, gi: int, steps: list[dict]) -> CappedGrope:
    """Contract and push off every piece of a fully split grope, in order.

    Piece k is first-stage pair k of cg; the per-piece loop contracts it as
    pair 0 after k earlier contractions.  Appends the contract and pushoff
    trace entries to steps and returns the fully surgered husk.
    """
    root = cg.body.root
    last = root.genus - 1
    by_tip = cg.tip_to_cap
    pieces = [_pair_caps(root, k, by_tip) for k in range(root.genus)]
    piece_of_cap = {cap: k for k, caps in enumerate(pieces) for cap in caps}

    def piece_of(end: SheetRef) -> int | None:
        if type(end) is CapRef:
            return piece_of_cap[end.cap_id]
        if type(end) is BodyRef:
            return end.path[0][0] if end.path else last
        return None

    live = {p.point_id: p for p in cg.intersections}
    buckets: list[list[Intersection]] = [[] for _ in pieces]
    for p in cg.intersections:
        a, b = piece_of(p.end_a), piece_of(p.end_b)
        k = b if a is None else a if b is None else min(a, b)
        if k is not None:
            buckets[k].append(p)
    spheres = list(cg.spheres)
    sphere_ids = {s.sphere_id for s in spheres}
    for k, caps_here in enumerate(pieces):
        bucket = sorted(buckets[k], key=attrgetter("point_id"))
        buckets[k] = []
        values = _value_keys(caps_here, bucket)
        cap_a, cap_b = _pick_pair(caps_here, values, f"grope {gi} piece {k}")
        if k == 0:
            # Only an input sphere can be pending: each sphere made here is
            # pushed off before the next piece.
            _refuse_pending(spheres)
        _require_dyadic(root.pairs[k], 0)
        sphere_id = _sphere_name(len(spheres), live, sphere_ids)
        sphere_ref = SphereRef(sphere_id)
        # Every point in the bucket touches piece k, so none is kept.
        _, selfs, self_log, queued = _absorb(
            bucket, lambda end: piece_of(end) == k, sphere_ref, _unmoved
        )
        for q in queued:
            del live[q.point_id]
        for p in selfs:
            live[p.point_id] = p
        label = GroupWord(effective_value(cap_a, values[cap_a]))
        record = SphereRecord(sphere_id, k, cap_a, cap_b, label, ())
        steps.append(_contract_entry(0, record, self_log, queued))
        if queued:
            new_points, logged = _push_off(queued, sphere_ref, live)
            for p in new_points:
                j = piece_of(p.end_a)
                if j is not None:
                    buckets[j].append(p)
            steps.append(_pushoff_entry(sphere_id, logged))
        spheres.append(record)
        sphere_ids.add(sphere_id)
    return CappedGrope(None, {}, tuple(live.values()), tuple(spheres))


def _unmoved(end: SheetRef) -> SheetRef:
    return end
