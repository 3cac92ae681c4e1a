"""Capped gropes: caps, labeled intersections, and validation."""

from __future__ import annotations

import pytest

from gropes import (
    BodyRef,
    CapRef,
    CappedGrope,
    Grope,
    IDENTITY,
    Intersection,
    SphereRecord,
    SphereRef,
    Stage,
    Tip,
    ValidationError,
    cap_labels,
    cap_order,
    cap_value_keys,
    generator,
    incident,
    is_pi1_null,
    label_keys,
    unoriented_key,
    validate_capped,
)

from conftest import two_cap_grope


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
    assert cap_order(cg) == ["cA", "cB"]


def test_tip_to_cap_mapping():
    cg = two_cap_grope(generator(1))
    assert cg.tip_to_cap == {"t1": "c1", "t2": "c2"}


# ---------------------------------------------------------------------------
# label reading


def test_label_read_direction():
    body, caps = _base()
    f = generator(1)
    i = Intersection("p", CapRef("c1"), CapRef("c2"), f)
    cg = CappedGrope(body, caps, (i,))
    assert cap_labels(cg, "c1") == [f]
    assert cap_labels(cg, "c2") == [f.inverse()]
    assert i.label_from(CapRef("c1")) == f
    assert i.label_from(CapRef("c2")) == f.inverse()


def test_self_intersection_counts_both_orientations():
    body, caps = _base()
    f = generator(1)
    cg = CappedGrope(body, caps, (Intersection("s", CapRef("c1"), CapRef("c1"), f),))
    assert sorted(map(str, cap_labels(cg, "c1"))) == ["x1", "x1^-1"]


def test_cap_value_keys_are_unoriented():
    body, caps = _base()
    f = generator(1)
    cg = CappedGrope(body, caps, (Intersection("p", CapRef("c1"), CapRef("c2"), f),))
    assert cap_value_keys(cg, "c1") == {unoriented_key(f)}
    assert cap_value_keys(cg, "c1") == cap_value_keys(cg, "c2")


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
    assert () in cap_value_keys(cg, "c1")


def test_incident_lists_touching_points():
    body, caps = _base()
    f = generator(1)
    cg = CappedGrope(
        body,
        caps,
        (
            Intersection("p", CapRef("c1"), CapRef("c2"), f),
            Intersection("q", CapRef("c2"), BodyRef(()), f),
        ),
    )
    assert [i.point_id for i in incident(cg, "c1")] == ["p"]
    assert [i.point_id for i in incident(cg, "c2")] == ["p", "q"]


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
