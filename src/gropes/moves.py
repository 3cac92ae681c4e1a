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
build the sphere, its self-points and the pushoff copies.  They run on a
_PieceState: contract and pushoff open one for a single move, while the
surgery sweep (_sweep, which run_surgery uses) and
gropes.pipeline.replay_trace keep one across every piece of a grope.  The
state holds:

- each piece's caps in traversal order, and whether it has a tip without a
  cap or a stage of genus above 1, read in one walk when it opens;
- every live point by id, and in the bucket of each piece it touches: a cap
  of the piece or a body path through it.  A point on the first stage
  itself, BodyRef(()), goes in a bucket of its own, which a contraction
  counts inside only when one piece is left.  A consumed point stays in
  the other buckets it was filed in, and a read of a bucket keeps only the
  point that is live under each id;
- the spheres by id, with a count of those whose pushoff queue is pending.

Pieces keep the numbers the first-stage pairs had when the state opened,
and so do body paths: pair i of the current grope is the i-th piece not yet
contracted.  result() renumbers the body paths of the points and of the
pending queues once, and builds the CappedGrope, its points sorted, once.

After full_split, the sweep contracts a grope's pieces in order, each as
pair 0 of what the earlier ones left.  A contraction reads only its piece's
bucket, sorted by id as the grope's points are: points touching an earlier
piece were used up there, and each pushoff copy is filed under the piece
its surviving sheet lies on.  So the husk, trace and errors are those of
calling find_duplicate_pair, contract and pushoff once per piece, and no
point is read for a piece it does not touch.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import replace
from typing import Container

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
from .grope import Grope, Stage, Tip, _slots, tips
from .words import IDENTITY, GroupWord


def piece_caps(cg: CappedGrope, pair_index: int) -> list[str]:
    """Caps of the subtree headed by a first-stage pair, in traversal order."""
    if cg.body is None:
        raise MoveError("nothing to contract: the body is fully surgered")
    root = cg.body.root
    if not 0 <= pair_index < root.genus:
        raise ValidationError(f"no pair {pair_index} at a genus-{root.genus} first stage")
    by_tip = cg.tip_to_cap
    out = []
    for slot in root.pairs[pair_index]:
        for t in ([slot.tip_id] if isinstance(slot, Tip) else tips(slot)):
            try:
                out.append(by_tip[t])
            except KeyError:
                raise ValidationError(f"tip {t!r} has no cap") from None
    return out


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


class _PieceState:
    """A capped grope under contraction, with its live points indexed by piece.

    Piece j is first-stage pair j of the grope the state opened on; alive
    lists the pieces not yet contracted, in order.  caps_of[j] holds piece
    j's caps in traversal order, uncapped maps a piece to its first tip
    without a cap, and wide holds the pieces with a stage of genus above 1.
    buckets[j] holds the points with an end on piece j, and buckets[-1]
    those with an end on a body path through no piece.  sphere_at maps each
    sphere id to its place in spheres, pending counts the spheres with a
    pushoff queue, and moves the moves applied.
    """

    __slots__ = (
        "source", "pairs", "alive", "caps", "caps_of", "uncapped", "wide", "piece_of_cap",
        "live", "buckets", "spheres", "sphere_at", "pending", "moves", "read",
    )

    def __init__(self, cg: CappedGrope):
        self.source = cg
        self.pairs = cg.body.root.pairs if cg.body is not None else ()
        self.alive = list(range(len(self.pairs)))
        self.caps = dict(cg.caps)
        self.caps_of: list[list[str]] = [[] for _ in self.pairs]
        self.uncapped: dict[int, str] = {}
        self.wide: set[int] = set()
        by_tip = cg.tip_to_cap
        for path, slot in _slots(cg.body) if cg.body is not None else ():
            j = path[0][0]
            if type(slot) is Stage:
                if slot.genus > 1:
                    self.wide.add(j)
            elif (cap := by_tip.get(slot.tip_id)) is None:
                self.uncapped.setdefault(j, slot.tip_id)
            else:
                self.caps_of[j].append(cap)
        self.piece_of_cap = {cap: j for j, caps in enumerate(self.caps_of) for cap in caps}
        self.live = {p.point_id: p for p in cg.intersections}
        if len(self.live) != len(cg.intersections):
            raise ValidationError("cannot contract a capped grope with duplicate intersection ids")
        self.buckets: list[list[Intersection]] = [[] for _ in range(len(self.pairs) + 1)]
        for p in cg.intersections:
            a, b = self.piece_of(p.end_a), self.piece_of(p.end_b)
            if a is not None:
                self.buckets[a].append(p)
            if b is not None and b != a:
                self.buckets[b].append(p)
        self.spheres = list(cg.spheres)
        # The first sphere of an id wins, as in CappedGrope.sphere.
        self.sphere_at = {s.sphere_id: i for i, s in reversed(list(enumerate(self.spheres)))}
        self.pending = sum(1 for s in self.spheres if s.pending)
        self.moves = 0
        self.read: tuple = (None,)

    def piece_of(self, end: SheetRef) -> int | None:
        """The piece an end lies on: -1 for a body path through no piece, None off the body."""
        kind = type(end)
        if kind is CapRef:
            return self.piece_of_cap.get(end.cap_id)
        if kind is BodyRef:
            j = end.path[0][0] if end.path else -1
            return j if j < len(self.pairs) else -1
        return None

    def points_on(self, j: int) -> tuple[list[Intersection], dict[str, set]]:
        """The live points on piece j, by id, and the value sets of its caps.

        The points are those of piece j's bucket, and of buckets[-1] when j
        is the last piece.  The answer is kept until the next move.
        """
        if self.read[0] != (j, self.moves):
            bucket = self.buckets[j] + self.buckets[-1] if len(self.alive) == 1 else self.buckets[j]
            live = self.live
            found = {p.point_id: p for p in bucket if live.get(p.point_id) is p}
            points = [found[k] for k in sorted(found)]
            self.read = ((j, self.moves), points, _value_keys(self.caps_of[j], points))
        return self.read[1:]

    def result(self) -> CappedGrope:
        """The grope now, body paths renumbered and points sorted once; the input if unchanged."""
        if not self.moves:
            return self.source
        pairs, alive, body = self.pairs, self.alive, self.source.body
        if len(alive) < len(pairs):
            body = Grope(Stage(tuple(pairs[j] for j in alive)), body.closed) if alive else None
        gone = sorted(set(range(len(pairs))).difference(alive))

        def renumber(end: SheetRef) -> SheetRef:
            if type(end) is not BodyRef or not end.path:
                return end
            (j, side), rest = end.path[0], end.path[1:]
            shift = bisect_left(gone, j)
            return BodyRef(((j - shift, side),) + rest) if shift else end

        points = []
        for p in self.live.values():
            if BodyRef in (type(p.end_a), type(p.end_b)):
                p = Intersection(p.point_id, renumber(p.end_a), renumber(p.end_b), p.label)
            points.append(p)
        spheres = [
            replace(s, pending=tuple(replace(q, other=renumber(q.other)) for q in s.pending))
            if s.pending else s
            for s in self.spheres
        ]
        return CappedGrope(body, self.caps, tuple(points), tuple(spheres))


def _sphere_name(n: int, point_ids: Container[str], sphere_ids: Container[str]) -> str:
    """sph{n}, counting up from n (the sphere count) past every id in use."""
    while f"sph{n}" in point_ids or f"sph{n}" in sphere_ids:
        n += 1
    return f"sph{n}"


def _contract_at(
    state: _PieceState,
    pair_index: int,
    cap_a: str,
    cap_b: str,
    piece: int | None,
    trace: list | None,
) -> SphereRecord:
    """contract on the state, at pair pair_index of the grope the state holds now.

    A point with both ends on the piece becomes an identity self-point of
    the sphere (logged with the label it had); one with a single end there
    is queued from its other end.  Both are handled in id order.
    """
    alive = state.alive
    if not alive:
        raise MoveError("nothing to contract: the body is fully surgered")
    if state.pending:
        sphere = next(s for s in state.spheres if s.pending)
        raise MoveError(f"sphere {sphere.sphere_id!r} has a pending pushoff queue")
    if not 0 <= pair_index < len(alive):
        raise ValidationError(f"no pair {pair_index} at a genus-{len(alive)} first stage")
    j = alive[pair_index]
    if j in state.uncapped:
        raise ValidationError(f"tip {state.uncapped[j]!r} has no cap")
    if j in state.wide:
        raise NotDyadicError(
            f"pair {pair_index} heads a subtree with genus above 1; split stages first"
        )
    if cap_a == cap_b:
        raise MoveError("contraction needs two distinct caps")
    for c in (cap_a, cap_b):
        if c not in state.caps_of[j]:
            raise MoveError(f"cap {c!r} is not on the piece at pair {pair_index}")
    points, values = state.points_on(j)
    key_a = effective_value(cap_a, values[cap_a])
    key_b = effective_value(cap_b, values[cap_b])
    if key_a != key_b:
        raise LabelMismatchError(
            f"caps {cap_a!r} and {cap_b!r} carry different values "
            f"({GroupWord(key_a)} vs {GroupWord(key_b)})"
        )

    live, spheres, piece_of = state.live, state.spheres, state.piece_of
    sphere_id = _sphere_name(len(spheres), live, state.sphere_at)
    ref = SphereRef(sphere_id)
    inside = (j, -1) if len(alive) == 1 else (j,)
    self_log, queued = [], []
    for p in points:
        a_in, b_in = piece_of(p.end_a) in inside, piece_of(p.end_b) in inside
        if a_in and b_in:
            live[p.point_id] = Intersection(p.point_id, ref, ref, IDENTITY)
            self_log.append({"point": p.point_id, "was": str(p.label), "result": "1"})
        else:
            other = p.end_b if a_in else p.end_a
            queued.append(PendingPushoff(p.point_id, other, p.label_from(other)))
            del live[p.point_id]
    del alive[pair_index]
    for cap in state.caps_of[j]:
        del state.caps[cap]
    state.buckets[j] = []
    piece = pair_index if piece is None else piece
    record = SphereRecord(sphere_id, piece, cap_a, cap_b, GroupWord(key_a), tuple(queued))
    state.sphere_at[sphere_id] = len(spheres)
    spheres.append(record)
    state.pending += bool(queued)
    state.moves += 1
    if trace is not None:
        trace.append(
            {
                "op": "contract",
                "pairIndex": pair_index,
                "piece": piece,
                "capA": cap_a,
                "capB": cap_b,
                "label": str(record.label),
                "sphere": sphere_id,
                "selfPoints": self_log,
                "queued": [q.point_id for q in queued],
            }
        )
    return record


def _pushoff_at(state: _PieceState, sphere_id: str, trace: list | None) -> None:
    """pushoff on the state.

    The copies of queued point i take the lineage names derived_id gives
    against every live id (i.1 and i.2 when free), in queue order, and each
    is filed under the piece its surviving sheet lies on.
    """
    i = state.sphere_at.get(sphere_id)
    if i is None:
        raise ValidationError(f"unknown sphere {sphere_id!r}")
    record = state.spheres[i]
    if not record.pending:
        return
    ref, live, buckets = SphereRef(sphere_id), state.live, state.buckets
    logged = []
    for q in record.pending:
        j, created = state.piece_of(q.other), []
        for k in (1, 2):
            name = derived_id(q.point_id, k, live)
            live[name] = point = Intersection(name, q.other, ref, IDENTITY)
            if j is not None:
                buckets[j].append(point)
            created.append(name)
        logged.append(
            {"from": q.point_id, "hadLabel": str(q.label), "created": created, "result": "1"}
        )
    state.spheres[i] = replace(record, pending=())
    state.pending -= 1
    state.moves += 1
    if trace is not None:
        trace.append({"op": "pushoff", "sphere": sphere_id, "points": logged})


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
    state = _PieceState(cg)
    _contract_at(state, pair_index, cap_a, cap_b, piece, trace)
    out = state.result()
    return out, out.spheres[-1]


def pushoff(cg: CappedGrope, sphere_id: str, *, trace: list | None = None) -> CappedGrope:
    """Resolve a sphere's pushoff queue.

    Each queued intersection with label l becomes two parallel crossings of
    the sphere by the surviving sheet; their labels l * g^-1 and its partner
    cancel to the identity, which is what gets recorded.  A sphere with an
    empty queue is returned unchanged.
    """
    state = _PieceState(cg)
    _pushoff_at(state, sphere_id, trace)
    return state.result()


def _sweep(cg: CappedGrope, gi: int, steps: list[dict]) -> CappedGrope:
    """Contract and push off every piece of a fully split grope, in order.

    Piece k is first-stage pair k of cg, contracted as pair 0 after k earlier
    contractions.  Appends the contract and pushoff trace entries to steps
    and returns the fully surgered husk.
    """
    state = _PieceState(cg)
    for k, caps_here in enumerate(state.caps_of):
        _, values = state.points_on(k)
        cap_a, cap_b = _pick_pair(caps_here, values, f"grope {gi} piece {k}")
        record = _contract_at(state, 0, cap_a, cap_b, k, steps)
        _pushoff_at(state, record.sphere_id, steps)
    return state.result()
