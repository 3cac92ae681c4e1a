"""Capped gropes: a grope body, caps on its tips, and labeled intersections.

Each tip carries a cap (a disk), and caps may intersect other caps, surface
stages of the body, or the spheres produced later by surgery.  Every
intersection point carries a free-group label, read from endpoint A to
endpoint B; reading the other way inverts it, so label values are compared
through their unoriented canonical form.

Intersections between two body surfaces are never allowed.  In strict mode
both endpoints must be caps, the discipline all rewriting moves preserve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Container, Union

from .errors import ValidationError
from .grope import _SHARED, Grope, Path, iter_stages, tips, validate_grope
from .words import GroupWord, unoriented_key


@dataclass(frozen=True, slots=True)
class CapRef:
    cap_id: str


@dataclass(frozen=True, slots=True)
class BodyRef:
    path: Path

    def __post_init__(self) -> None:
        path = tuple((int(j), int(side)) for j, side in self.path)
        for j, side in path:
            if j < 0 or side not in (0, 1):
                raise ValidationError(f"bad body path step {(j, side)!r}")
        object.__setattr__(self, "path", path)


@dataclass(frozen=True, slots=True)
class SphereRef:
    sphere_id: str


SheetRef = Union[CapRef, BodyRef, SphereRef]


@dataclass(frozen=True, slots=True)
class Intersection:
    point_id: str
    end_a: SheetRef
    end_b: SheetRef
    label: GroupWord

    def __post_init__(self) -> None:
        if not self.point_id:
            raise ValidationError("intersection id must be a nonempty string")
        for end in (self.end_a, self.end_b):
            if not isinstance(end, (CapRef, BodyRef, SphereRef)):
                raise ValidationError(f"bad endpoint {end!r}")
        if isinstance(self.end_a, BodyRef) and isinstance(self.end_b, BodyRef):
            raise ValidationError(
                f"intersection {self.point_id}: two body surfaces may not intersect"
            )
        if not isinstance(self.label, GroupWord):
            raise ValidationError(f"label must be a GroupWord, got {self.label!r}")


@dataclass(frozen=True, slots=True)
class PendingPushoff:
    """An intersection swept up by a contraction, awaiting pushoff.

    other is the surviving sheet; label is read from its side.
    """

    point_id: str
    other: SheetRef
    label: GroupWord


@dataclass(frozen=True, slots=True)
class SphereRecord:
    """A sphere created by contracting a genus-1 piece along two caps."""

    sphere_id: str
    piece: int
    cap_a: str
    cap_b: str
    label: GroupWord
    pending: tuple[PendingPushoff, ...] = ()


@dataclass(frozen=True)
class CappedGrope:
    """A grope with caps on all tips plus the intersection multigraph.

    caps maps cap id to the tip it caps.  body None is the fully surgered
    state: every stage has been contracted away and only spheres remain.
    Intersections are kept sorted by id, so structural equality is
    order-insensitive and serialization is canonical.
    """

    body: Grope | None
    caps: dict[str, str] = field(default_factory=dict)
    intersections: tuple[Intersection, ...] = ()
    spheres: tuple[SphereRecord, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "caps", dict(self.caps))
        pts = tuple(sorted(self.intersections, key=lambda p: p.point_id))
        object.__setattr__(self, "intersections", pts)
        object.__setattr__(self, "spheres", tuple(self.spheres))

    @property
    def tip_to_cap(self) -> dict[str, str]:
        return {tip: cap for cap, tip in self.caps.items()}


def derived_id(base: str, k: int, taken: Container[str]) -> str:
    """The lineage name of copy k of base: base.k, or base.k.m with the least m >= 1 not taken."""
    name = f"{base}.{k}"
    m = 0
    while name in taken:
        m += 1
        name = f"{base}.{k}.{m}"
    return name


def value_keys_by_cap(cg: CappedGrope) -> dict[str, set[tuple[int, ...]]]:
    """Every cap's distinct unoriented label values (identity included), in one pass."""
    out: dict[str, set[tuple[int, ...]]] = {cap: set() for cap in cg.caps}
    for p in cg.intersections:
        key = unoriented_key(p.label)
        for end in (p.end_a, p.end_b):
            if type(end) is CapRef and end.cap_id in out:
                out[end.cap_id].add(key)
    return out


def label_keys(cg: CappedGrope) -> set[tuple[int, ...]]:
    """Distinct nonidentity unoriented label values over all intersections."""
    return {unoriented_key(p.label) for p in cg.intersections} - {()}


def is_pi1_null(cg: CappedGrope) -> bool:
    """True when every intersection label reduces to the identity."""
    return all(p.label.is_identity for p in cg.intersections)


def validate_capped(cg: CappedGrope, strict: bool = False, rank: int | None = None) -> list[str]:
    """Structural violations as human-readable strings; empty means valid."""
    problems: list[str] = []

    if cg.body is None:
        if cg.caps:
            problems.append("no body but caps remain")
        known_paths: set[Path] = set()
    else:
        problems.extend(validate_grope(cg.body))
        capped_tips = list(cg.caps.values())
        if len(set(capped_tips)) != len(capped_tips):
            problems.append("two caps attached to one tip")
        # An aliased body has one path per way down to a shared stage, which
        # can be exponentially many, so its tips and paths are not listed:
        # its caps and body ends go unchecked until the aliasing is gone.
        known_paths = None
        if _SHARED not in problems:
            body_tips = tips(cg.body)
            missing = set(body_tips) - set(capped_tips)
            unknown = set(capped_tips) - set(body_tips)
            for t in sorted(missing):
                problems.append(f"tip {t!r} has no cap")
            for t in sorted(unknown):
                problems.append(f"cap attached to unknown tip {t!r}")
            known_paths = {path for path, _ in iter_stages(cg.body)}

    sphere_ids = {s.sphere_id for s in cg.spheres}
    if len(sphere_ids) != len(cg.spheres):
        problems.append("duplicate sphere ids")

    def check_end(kind: str, point_id: str, end: SheetRef, strict: bool) -> None:
        """One end of an intersection or a pending pushoff; strict refuses body and sphere ends."""
        if isinstance(end, CapRef):
            if end.cap_id not in cg.caps:
                problems.append(f"{kind} {point_id}: unknown cap {end.cap_id!r}")
        elif isinstance(end, BodyRef):
            if strict:
                problems.append(f"{kind} {point_id}: body endpoint in strict mode")
            elif known_paths is not None and end.path not in known_paths:
                problems.append(f"{kind} {point_id}: no stage at path {list(end.path)}")
        elif isinstance(end, SphereRef):
            if strict:
                problems.append(f"{kind} {point_id}: sphere endpoint in strict mode")
            elif end.sphere_id not in sphere_ids:
                problems.append(f"{kind} {point_id}: unknown sphere {end.sphere_id!r}")

    seen_points: set[str] = set()
    for p in cg.intersections:
        if p.point_id in seen_points:
            problems.append(f"duplicate intersection id {p.point_id!r}")
        seen_points.add(p.point_id)
        check_end("intersection", p.point_id, p.end_a, strict)
        check_end("intersection", p.point_id, p.end_b, strict)
        if rank is not None and p.label.max_generator > rank:
            problems.append(
                f"intersection {p.point_id}: label uses x{p.label.max_generator}, rank is {rank}"
            )

    for s in cg.spheres:
        for q in s.pending:
            check_end("pending", q.point_id, q.other, False)

    return problems
