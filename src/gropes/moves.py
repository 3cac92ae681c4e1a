"""Contraction and pushoff: trading a grope piece for a sphere.

Contracting a genus-1 piece along two caps that carry the same label value g
performs symmetric surgery: the piece disappears and a sphere appears.  Label
bookkeeping is what makes the sphere useful: an intersection between the two
chosen caps contributes g * g^-1 = 1, so the sphere's self-intersections are
all identity-labeled.  Every other sheet that met the piece is queued, and
pushoff resolves the queue by replacing each queued point with two parallel
crossings of the sphere whose labels cancel, again identity.  The net effect
of contract + pushoff is strictly fewer distinct label values, never more.

A piece is a first-stage pair with the subtree above it.  Two cores,
_contract_at and _pushoff_at, alone check each move's preconditions and
build the sphere, its self-points and the pushoff copies.  They run on the
_RewriteState of gropes.splitting, the state the split cores run on:
contract and pushoff open one for a single move, while run_surgery and
gropes.pipeline.replay_trace keep one per grope across its splits,
contractions and pushoffs.  The state indexes every live point by the caps
and body paths it has an end on, and holds the spheres by id, with their
pushoff queues kept apart.  A live end is a cap id, a stage path or a
SphereRef.  A queued point keeps its surviving end as a live end, so a
pushoff copy takes it as it is, and only the state's result() writes a
queue into its SphereRecord.

A contraction reads its piece in one walk of the first-stage pair: the
piece's caps in traversal order, its first tip without a cap, whether it
has a stage of genus above 1, and its stage paths.  Its points are those
the index files under these caps and paths, and, at the last piece, under
the first stage itself, the path (); it takes them sorted by id, as the
grope's points are.  Pieces keep the numbers the first-stage pairs had
after the last split, and so do body paths: pair i of the current grope is
the i-th piece not yet contracted.  The state renumbers the body paths of
the points and of the pending queues once, when it builds the grope or
before the next split.

After full_split, the sweep contracts a grope's pieces in order, each as
pair 0 of what the earlier ones left.  Points touching an earlier piece
were used up there, and each pushoff copy is indexed under its surviving
sheet.  So the husk, trace and errors are those of calling
find_duplicate_pair, contract and pushoff once per piece, and no point is
read for a piece it does not touch.
"""

from __future__ import annotations

from typing import Container

from .capped import (
    CappedGrope,
    SphereRecord,
    SphereRef,
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
from .grope import Path, Stage, _slots
from .splitting import _Point, _RewriteState, _thaw
from .words import IDENTITY, GroupWord


def piece_caps(cg: CappedGrope, pair_index: int) -> list[str]:
    """Caps of the subtree headed by a first-stage pair, in traversal order."""
    if cg.body is None:
        raise MoveError("nothing to contract: the body is fully surgered")
    root = cg.body.root
    if not 0 <= pair_index < root.genus:
        raise ValidationError(f"no pair {pair_index} at a genus-{root.genus} first stage")
    # The pair alone, thawed as a genus-1 stage and walked as pair 0, so the read stays O(piece).
    piece = _thaw(Stage((root.pairs[pair_index],)), {})
    caps, uncapped, _, _ = _walk_piece(piece, 0, cg.tip_to_cap)
    if uncapped is not None:
        raise ValidationError(f"tip {uncapped!r} has no cap")
    return caps


def _walk_piece(
    root: list, j: int, tip_cap: dict[str, str]
) -> tuple[list[str], str | None, bool, set[Path]]:
    """One walk of first-stage pair j: its caps and its first tip without a cap.

    root is a live stage (see gropes.grope).  Returns the caps in traversal
    order, that tip (None when every tip is capped), whether a stage of
    genus above 1 is on the pair, and the paths of the pair's stages.
    """
    caps, uncapped, wide, paths = [], None, False, set()
    for path, slot in _slots(root, j):
        if path[0][0] != j:
            break
        if type(slot) is list:
            paths.add(path)
            wide = wide or len(slot) > 1
        elif (cap := tip_cap.get(slot)) is not None:
            caps.append(cap)
        elif uncapped is None:
            uncapped = slot
    return caps, uncapped, wide, paths


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


def _read_piece(state: _RewriteState, j: int) -> tuple:
    """_walk_piece of piece j, its live points sorted by id, and its caps' value sets.

    The body paths returned include the first stage's, (), at the last piece.
    """
    caps, uncapped, wide, paths = _walk_piece(state.root, j, state.tip_cap)
    if len(state.alive) == 1:
        paths.add(())
    by_cap, by_path, ids = state.by_cap, state.by_path, set()
    for cap in caps:
        ids.update(by_cap.get(cap, ()))
    for path in paths:
        ids.update(by_path.get(path, ()))
    points = [state.points[i] for i in sorted(ids)]
    values = {cap: state.cap_keys(cap) for cap in caps}
    return caps, uncapped, wide, paths, points, values


def _sphere_name(n: int, point_ids: Container[str], sphere_ids: Container[str]) -> str:
    """sph{n}, counting up from n (the sphere count) past every id in use."""
    while f"sph{n}" in point_ids or f"sph{n}" in sphere_ids:
        n += 1
    return f"sph{n}"


def _contract_at(
    state: _RewriteState,
    pair_index: int,
    cap_a: str,
    cap_b: str,
    piece: int | None,
    read: tuple | None = None,
) -> str:
    """contract on the state, at pair pair_index of the grope the state holds now.

    Returns the new sphere's id.  read is the piece's _read_piece, when the
    caller has it.  A point with both ends on the piece becomes an identity
    self-point of the sphere (logged with the label it had); one with a
    single end there is queued from its other end, with its label as read
    from that end.  Both are handled in id order.
    """
    alive = state.alive
    if not alive:
        raise MoveError("nothing to contract: the body is fully surgered")
    if state.queues:
        sphere = state.spheres[min(state.queues)]
        raise MoveError(f"sphere {sphere.sphere_id!r} has a pending pushoff queue")
    if not 0 <= pair_index < len(alive):
        raise ValidationError(f"no pair {pair_index} at a genus-{len(alive)} first stage")
    caps, uncapped, wide, paths, points, values = read or _read_piece(state, alive[pair_index])
    if uncapped is not None:
        raise ValidationError(f"tip {uncapped!r} has no cap")
    if wide:
        raise NotDyadicError(
            f"pair {pair_index} heads a subtree with genus above 1; split stages first"
        )
    if cap_a == cap_b:
        raise MoveError("contraction needs two distinct caps")
    for c in (cap_a, cap_b):
        if c not in values:
            raise MoveError(f"cap {c!r} is not on the piece at pair {pair_index}")
    key_a = effective_value(cap_a, values[cap_a])
    key_b = effective_value(cap_b, values[cap_b])
    if key_a != key_b:
        raise LabelMismatchError(
            f"caps {cap_a!r} and {cap_b!r} carry different values "
            f"({GroupWord(key_a)} vs {GroupWord(key_b)})"
        )

    live, spheres = state.points, state.spheres
    sphere_id = _sphere_name(len(spheres), live, state.sphere_at)
    ref = SphereRef(sphere_id)

    # The piece's sheets go with it; a queued point leaves its other sheet's bucket too.
    for buckets, keys in ((state.by_cap, caps), (state.by_path, paths)):
        for key in keys:
            buckets.pop(key, None)
    self_log, queued = [], []
    for p in points:
        # values has a key for each of the piece's caps, and paths holds its stages.
        a_in, b_in = [end in values or end in paths for end in (p.end_a, p.end_b)]
        if a_in and b_in:
            self_log.append({"point": p.point_id, "was": str(p.label), "result": "1"})
            p.end_a = p.end_b = ref
            p.label, p.key = IDENTITY, ()
        else:
            # The label as read from the surviving end.
            other, label = (p.end_b, p.label.inverse()) if a_in else (p.end_a, p.label)
            queued.append((p.point_id, other, label))
            del live[p.point_id]
            state.unindex(p)
    del alive[pair_index]
    for cap in caps:
        del state.tip_cap[state.caps.pop(cap)]
    piece = pair_index if piece is None else piece
    record = SphereRecord(sphere_id, piece, cap_a, cap_b, GroupWord(key_a))
    if queued:
        state.queues[len(spheres)] = queued
    state.sphere_at[sphere_id] = len(spheres)
    spheres.append(record)
    state.changes += 1
    if state.trace is not None:
        state.trace.append(
            {
                "op": "contract",
                "pairIndex": pair_index,
                "piece": piece,
                "capA": cap_a,
                "capB": cap_b,
                "label": str(record.label),
                "sphere": sphere_id,
                "selfPoints": self_log,
                "queued": [point_id for point_id, _, _ in queued],
            }
        )
    return sphere_id


def _pushoff_at(state: _RewriteState, sphere_id: str) -> None:
    """pushoff on the state.

    The copies of queued point i take the lineage names derived_id gives
    against every live id (i.1 and i.2 when free), in queue order, and each
    is indexed under its surviving sheet.
    """
    i = state.sphere_at.get(sphere_id)
    if i is None:
        raise ValidationError(f"unknown sphere {sphere_id!r}")
    queue = state.queues.pop(i, None)
    if queue is None:
        return
    ref, live = SphereRef(sphere_id), state.points
    logged = []
    for point_id, other, label in queue:
        created = []
        for k in (1, 2):
            name = derived_id(point_id, k, live)
            live[name] = point = _Point(name, other, ref, IDENTITY, ())
            state.index(point)
            created.append(name)
        logged.append({"from": point_id, "hadLabel": str(label), "created": created, "result": "1"})
    state.changes += 1
    if state.trace is not None:
        state.trace.append({"op": "pushoff", "sphere": sphere_id, "points": logged})


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
    state = _RewriteState(cg, trace=trace)
    _contract_at(state, pair_index, cap_a, cap_b, piece)
    out = state.result()
    return out, out.spheres[-1]


def pushoff(cg: CappedGrope, sphere_id: str, *, trace: list | None = None) -> CappedGrope:
    """Resolve a sphere's pushoff queue.

    Each queued intersection with label l becomes two parallel crossings of
    the sphere by the surviving sheet; their labels l * g^-1 and its partner
    cancel to the identity, which is what gets recorded.  A sphere with an
    empty queue is returned unchanged.
    """
    state = _RewriteState(cg, trace=trace)
    _pushoff_at(state, sphere_id)
    return state.result()


def _sweep(state: _RewriteState, gi: int) -> None:
    """Contract and push off every piece of a fully split grope, in order.

    Piece k is first-stage pair k of the state's grope, contracted as pair 0
    after k earlier contractions.  The contract and pushoff trace entries go
    to the state's trace.
    """
    for k in range(len(state.alive)):
        read = caps, *_, values = _read_piece(state, k)
        cap_a, cap_b = _pick_pair(caps, values, f"grope {gi} piece {k}")
        _pushoff_at(state, _contract_at(state, 0, cap_a, cap_b, k, read))
