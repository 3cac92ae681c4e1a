"""Capped gropes: caps, labeled intersections, and validation."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gropes import (
    BodyRef,
    CapRef,
    CappedGrope,
    Grope,
    IDENTITY,
    Intersection,
    PendingPushoff,
    SphereRecord,
    SphereRef,
    Stage,
    Tip,
    ValidationError,
    generator,
    is_pi1_null,
    iter_stages,
    label_keys,
    piece_caps,
    random_capped_grope,
    unoriented_key,
    validate_capped,
    value_keys_by_cap,
)

from conftest import two_cap_grope, words


def _base():
    body = Grope(Stage(((Tip("t1"), Tip("t2")),)))
    return body, {"c1": "t1", "c2": "t2"}


# ---------------------------------------------------------------------------
# structure


def test_intersections_stored_sorted_by_id():
    body, caps = _base()
    f = generator(1)
    cg = CappedGrope(
        body,
        caps,
        (
            Intersection("z", CapRef("c1"), CapRef("c1"), f),
            Intersection("a", CapRef("c2"), CapRef("c2"), f),
        ),
    )
    assert [i.point_id for i in cg.intersections] == ["a", "z"]


def test_body_body_intersection_rejected():
    body, caps = _base()
    with pytest.raises(ValidationError):
        CappedGrope(
            body,
            caps,
            (Intersection("p", BodyRef(()), BodyRef(()), generator(1)),),
        )


def test_cap_order_follows_tip_order():
    body = Grope(Stage(((Tip("t2"), Tip("t1")),)))
    cg = CappedGrope(body, {"cB": "t1", "cA": "t2"})
    assert piece_caps(cg, 0) == ["cA", "cB"]


def test_tip_to_cap_mapping():
    cg = two_cap_grope(generator(1))
    assert cg.tip_to_cap == {"t1": "c1", "t2": "c2"}


# ---------------------------------------------------------------------------
# label reading


def test_label_read_direction():
    f = generator(1)
    i = Intersection("p", CapRef("c1"), CapRef("c2"), f)
    assert i.label_from(CapRef("c1")) == f
    assert i.label_from(CapRef("c2")) == f.inverse()


def test_self_intersection_counts_both_orientations():
    body, caps = _base()
    f = generator(1)
    for label in (f, f.inverse()):
        cg = CappedGrope(body, caps, (Intersection("s", CapRef("c1"), CapRef("c1"), label),))
        assert value_keys_by_cap(cg) == {"c1": {unoriented_key(f)}, "c2": set()}


def test_cap_value_keys_are_unoriented():
    body, caps = _base()
    f = generator(1)
    cg = CappedGrope(body, caps, (Intersection("p", CapRef("c1"), CapRef("c2"), f),))
    keys = value_keys_by_cap(cg)
    assert keys["c1"] == {unoriented_key(f)}
    assert keys["c1"] == keys["c2"]


def test_label_keys_exclude_identity():
    body, caps = _base()
    cg = CappedGrope(
        body,
        caps,
        (
            Intersection("p", CapRef("c1"), CapRef("c2"), generator(2)),
            Intersection("q", CapRef("c1"), CapRef("c1"), IDENTITY),
        ),
    )
    assert label_keys(cg) == {unoriented_key(generator(2))}
    assert len(label_keys(cg)) == 1
    # but the identity still shows up as a per-cap value key
    assert () in value_keys_by_cap(cg)["c1"]


def test_incident_lists_touching_points():
    body, caps = _base()
    f, g = generator(1), generator(2)
    cg = CappedGrope(
        body,
        caps,
        (
            Intersection("p", CapRef("c1"), CapRef("c2"), f),
            Intersection("q", CapRef("c2"), BodyRef(()), g),
        ),
    )
    keys = value_keys_by_cap(cg)
    assert keys["c1"] == {unoriented_key(f)}
    assert keys["c2"] == {unoriented_key(f), unoriented_key(g)}


def _scanned_value_keys(cg: CappedGrope, cap_id: str) -> set[tuple[int, ...]]:
    """One cap's values by a scan of every point, as the package once queried them."""
    ref = CapRef(cap_id)
    return {unoriented_key(p.label) for p in cg.intersections if ref in (p.end_a, p.end_b)}


@st.composite
def value_inputs(draw) -> CappedGrope:
    """A random_capped_grope plus extra points of arbitrary label, identity
    included, from a cap to a cap, itself, a body stage, a sphere or an
    unknown cap."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    pool = [generator(1), generator(2).inverse(), generator(1) * generator(2), IDENTITY]
    cg = random_capped_grope(
        rng,
        draw(st.integers(2, 4)),
        pool[: draw(st.integers(0, len(pool)))],
        genus=draw(st.integers(1, 2)),
        density=draw(st.floats(0, 2)),
    )
    others = [CapRef(c) for c in cg.caps] + [CapRef("ghost"), SphereRef("sph0"), None]
    others += [BodyRef(path) for path, _ in iter_stages(cg.body)]
    ends = st.tuples(st.sampled_from(sorted(cg.caps)), st.sampled_from(others))
    extra = draw(st.lists(st.tuples(ends, words, st.booleans()), max_size=10))
    points = list(cg.intersections)
    for k, ((cap, other), label, flip) in enumerate(extra):
        me = CapRef(cap)
        other = other or me
        a, b = (other, me) if flip else (me, other)
        points.append(Intersection(f"e{k}", a, b, label))
    sphere = SphereRecord("sph0", 0, "a", "b", IDENTITY)
    return CappedGrope(cg.body, cg.caps, tuple(points), (sphere,))


@given(value_inputs())
def test_value_keys_by_cap_matches_a_per_cap_scan(cg):
    assert value_keys_by_cap(cg) == {cap: _scanned_value_keys(cg, cap) for cap in cg.caps}


def test_is_pi1_null():
    assert is_pi1_null(two_cap_grope(IDENTITY))
    assert not is_pi1_null(two_cap_grope(generator(1)))
    body, caps = _base()
    assert is_pi1_null(CappedGrope(body, caps))  # no intersections at all


# ---------------------------------------------------------------------------
# validation


def test_validate_clean():
    cg = two_cap_grope(generator(1), generator(2))
    assert validate_capped(cg) == []


def test_validate_every_tip_needs_a_cap():
    body, _ = _base()
    cg = CappedGrope(body, {"c1": "t1"})
    assert any("has no cap" in p for p in validate_capped(cg))


def test_validate_unknown_tip():
    body, _ = _base()
    cg = CappedGrope(body, {"c1": "t1", "c2": "t2", "c3": "tX"})
    assert any("unknown tip" in p for p in validate_capped(cg))


def test_validate_two_caps_one_tip():
    body, _ = _base()
    cg = CappedGrope(body, {"c1": "t1", "c2": "t1"})
    assert any("two caps" in p for p in validate_capped(cg))


def test_validate_unknown_cap_in_intersection():
    body, caps = _base()
    cg = CappedGrope(
        body, caps, (Intersection("p", CapRef("cX"), CapRef("c1"), generator(1)),)
    )
    assert any("unknown cap" in p for p in validate_capped(cg))


def test_validate_bad_body_path():
    body, caps = _base()
    cg = CappedGrope(
        body, caps, (Intersection("p", CapRef("c1"), BodyRef(((9, 0),)), generator(1)),)
    )
    assert any("no stage at path" in p for p in validate_capped(cg))


def test_validate_duplicate_point_ids():
    body, caps = _base()
    f = generator(1)
    cg = CappedGrope(
        body,
        caps,
        (
            Intersection("p", CapRef("c1"), CapRef("c1"), f),
            Intersection("p", CapRef("c2"), CapRef("c2"), f),
        ),
    )
    assert any("duplicate intersection id" in p for p in validate_capped(cg))


def test_validate_strict_forbids_body_endpoints():
    body, caps = _base()
    cg = CappedGrope(
        body, caps, (Intersection("p", CapRef("c1"), BodyRef(()), generator(1)),)
    )
    assert validate_capped(cg) == []
    assert any("strict" in p for p in validate_capped(cg, strict=True))


def test_validate_rank_bound():
    cg = two_cap_grope(generator(3))
    assert validate_capped(cg, rank=3) == []
    assert any("rank" in p for p in validate_capped(cg, rank=2))


def test_validate_sphere_refs():
    body, caps = _base()
    sphere = SphereRecord("sph0", 0, "a", "b", IDENTITY)
    cg = CappedGrope(
        body,
        caps,
        (Intersection("p", SphereRef("sph0"), CapRef("c1"), IDENTITY),),
        spheres=(sphere,),
    )
    assert validate_capped(cg) == []
    missing = CappedGrope(
        body,
        caps,
        (Intersection("p", SphereRef("ghost"), CapRef("c1"), IDENTITY),),
    )
    assert any("sphere" in p for p in validate_capped(missing))


def test_validate_pending_pushoff_body_ends():
    body, caps = _base()
    x1 = generator(1)
    queue = (PendingPushoff("q", BodyRef(((5, 0),)), x1),)
    sphere = SphereRecord("sph0", 0, "ca", "cb", x1, queue)
    assert validate_capped(CappedGrope(body, caps, spheres=(sphere,))) == [
        "pending q: no stage at path [(5, 0)]"
    ]
    assert validate_capped(CappedGrope(None, {}, spheres=(sphere,))) == [
        "pending q: no stage at path [(5, 0)]"
    ]
    on_body = SphereRecord("sph0", 0, "ca", "cb", x1, (PendingPushoff("q", BodyRef(()), x1),))
    assert validate_capped(CappedGrope(body, caps, spheres=(on_body,))) == []
    for other, problem in [
        (CapRef("ghost"), "pending q: unknown cap 'ghost'"),
        (SphereRef("ghost"), "pending q: unknown sphere 'ghost'"),
    ]:
        lost = SphereRecord("sph0", 0, "ca", "cb", x1, (PendingPushoff("q", other, x1),))
        assert validate_capped(CappedGrope(body, caps, spheres=(lost,))) == [problem]
    # Strict mode judges intersection ends only: queued body and sphere ends pass.
    queue = (PendingPushoff("q", BodyRef(()), x1), PendingPushoff("r", SphereRef("sph0"), x1))
    strict = SphereRecord("sph0", 0, "ca", "cb", x1, queue)
    assert validate_capped(CappedGrope(body, caps, spheres=(strict,)), strict=True) == []


def test_validate_reads_sphere_ends_as_fast_as_cap_ends():
    """4000 spheres and 32,000 points: each sphere end is one lookup, not a scan."""
    body, caps = _base()
    spheres = tuple(SphereRecord(f"sph{n}", 0, "ca", "cb", IDENTITY) for n in range(4000))

    def grope(end) -> CappedGrope:
        points = (Intersection(f"i{k}", CapRef("c1"), end(k), IDENTITY) for k in range(32_000))
        return CappedGrope(body, caps, tuple(points), spheres)

    gropes = [grope(lambda k: SphereRef(f"sph{k % 4000}")), grope(lambda k: CapRef("c2"))]
    best = [float("inf")] * 2
    for _ in range(5):  # interleaved, so that a slow spell of the machine hits both
        for i, cg in enumerate(gropes):
            start = time.perf_counter()
            assert validate_capped(cg) == []
            best[i] = min(best[i], time.perf_counter() - start)
    sphere_s, cap_s = best
    assert sphere_s < 3 * cap_s, f"sphere ends {sphere_s:.3f} s, cap ends {cap_s:.3f} s"
