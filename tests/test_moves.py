"""Contraction and pushoff moves, and the cap-value helpers they rely on."""

import pytest

from gropes import (
    BodyRef,
    CappedGrope,
    CapRef,
    Grope,
    Intersection,
    PendingPushoff,
    SphereRecord,
    SphereRef,
    Stage,
    Tip,
    contract,
    effective_value,
    find_duplicate_pair,
    generator,
    label_keys,
    piece_caps,
    pushoff,
    unoriented_key,
    validate_capped,
    value_keys_by_cap,
)
from gropes.errors import (
    LabelMismatchError,
    MoveError,
    NotDyadicError,
    SplitFirstError,
    ValidationError,
)
from gropes.words import IDENTITY

from conftest import sphere_record, two_cap_grope

F = generator(1)
G = generator(2)


def flat_pairs_grope(n_pairs, label=F, points=True):
    """Genus-n first stage of bare tips, one cap per tip, one self point per cap."""
    pairs = tuple(
        (Tip(f"t{2 * i + 1}"), Tip(f"t{2 * i + 2}")) for i in range(n_pairs)
    )
    caps = {f"c{k}": f"t{k}" for k in range(1, 2 * n_pairs + 1)}
    pts = ()
    if points:
        pts = tuple(
            Intersection(f"i{k}", CapRef(f"c{k}"), CapRef(f"c{k}"), label)
            for k in range(1, 2 * n_pairs + 1)
        )
    return CappedGrope(Grope(Stage(pairs)), caps, pts)


# ---------------------------------------------------------------------------
# piece_caps


def test_piece_caps_groups_by_first_stage_pair():
    cg = flat_pairs_grope(2)
    assert piece_caps(cg, 0) == ["c1", "c2"]
    assert piece_caps(cg, 1) == ["c3", "c4"]


def test_piece_caps_walks_subtrees_in_traversal_order():
    body = Grope(
        Stage(((Stage(((Tip("t1"), Tip("t2")),)), Tip("t3")),))
    )
    caps = {"c1": "t1", "c2": "t2", "c3": "t3"}
    cg = CappedGrope(body, caps)
    assert piece_caps(cg, 0) == ["c1", "c2", "c3"]


def test_piece_caps_rejects_bad_pair_index():
    cg = flat_pairs_grope(2)
    with pytest.raises(ValidationError):
        piece_caps(cg, 2)
    with pytest.raises(ValidationError):
        piece_caps(cg, -1)


def test_piece_caps_rejects_fully_surgered_body():
    husk = CappedGrope(None, {}, (), (SphereRecord("sph0", 0, "c1", "c2", F),))
    with pytest.raises(MoveError):
        piece_caps(husk, 0)


# ---------------------------------------------------------------------------
# effective_value


def _effective(cg, cap_id):
    return effective_value(cap_id, value_keys_by_cap(cg)[cap_id])


def test_effective_value_is_the_unoriented_key():
    cg = two_cap_grope(F)
    assert _effective(cg, "c1") == unoriented_key(F)


def test_effective_value_of_untouched_cap_is_empty():
    pairs = ((Tip("t1"), Tip("t2")),)
    cg = CappedGrope(Grope(Stage(pairs)), {"c1": "t1", "c2": "t2"})
    assert _effective(cg, "c1") == ()


def test_effective_value_ignores_identity_crossings():
    pairs = ((Tip("t1"), Tip("t2")),)
    pts = (
        Intersection("i1", CapRef("c1"), CapRef("c1"), F),
        Intersection("i2", CapRef("c1"), SphereRef("sph0"), IDENTITY),
    )
    cg = CappedGrope(
        Grope(Stage(pairs)),
        {"c1": "t1", "c2": "t2"},
        pts,
        (SphereRecord("sph0", 0, "x", "y", IDENTITY),),
    )
    assert _effective(cg, "c1") == unoriented_key(F)


def test_effective_value_refuses_two_distinct_values():
    pairs = ((Tip("t1"), Tip("t2")),)
    pts = (
        Intersection("i1", CapRef("c1"), CapRef("c1"), F),
        Intersection("i2", CapRef("c1"), CapRef("c1"), G),
    )
    cg = CappedGrope(Grope(Stage(pairs)), {"c1": "t1", "c2": "t2"}, pts)
    with pytest.raises(SplitFirstError):
        _effective(cg, "c1")


# ---------------------------------------------------------------------------
# contract: the rewritten grope


def contracted_pair_fixture():
    """Two flat pieces, all value F, one cross-piece point c2<->c3."""
    cg = flat_pairs_grope(2)
    extra = Intersection("i9", CapRef("c2"), CapRef("c3"), F)
    return CappedGrope(cg.body, cg.caps, cg.intersections + (extra,))


def test_contract_removes_the_pair_and_its_caps():
    mid, record = contract(contracted_pair_fixture(), 0, "c1", "c2")
    assert mid.body.root.genus == 1
    assert sorted(mid.caps) == ["c3", "c4"]
    assert validate_capped(mid) == []


def test_contract_returns_a_sphere_record():
    mid, record = contract(contracted_pair_fixture(), 0, "c1", "c2")
    assert record == sphere_record(mid, "sph0")
    assert (record.sphere_id, record.piece) == ("sph0", 0)
    assert (record.cap_a, record.cap_b) == ("c1", "c2")
    assert unoriented_key(record.label) == unoriented_key(F)


def test_contract_piece_tag_can_be_overridden():
    _, record = contract(contracted_pair_fixture(), 0, "c1", "c2", piece=7)
    assert record.piece == 7


def test_contract_turns_inside_points_into_identity_sphere_points():
    mid, _ = contract(contracted_pair_fixture(), 0, "c1", "c2")
    ref = SphereRef("sph0")
    for pid in ("i1", "i2"):
        p = next(q for q in mid.intersections if q.point_id == pid)
        assert (p.end_a, p.end_b) == (ref, ref)
        assert p.label == IDENTITY


def test_contract_queues_points_that_reach_outside():
    mid, record = contract(contracted_pair_fixture(), 0, "c1", "c2")
    assert [q.point_id for q in record.pending] == ["i9"]
    (q,) = record.pending
    assert q.other == CapRef("c3")
    # i9 is stored as read from c2, so the queue reads it back from c3: inverse
    assert q.label == F.inverse()
    assert all(p.point_id != "i9" for p in mid.intersections)


def test_contract_queued_label_reads_from_the_surviving_end():
    cg = flat_pairs_grope(2)
    extra = Intersection("i9", CapRef("c3"), CapRef("c2"), F)  # survivor first
    cg = CappedGrope(cg.body, cg.caps, cg.intersections + (extra,))
    _, record = contract(cg, 0, "c1", "c2")
    assert record.pending[0].label == F


def test_contract_keeps_outside_points_untouched():
    mid, _ = contract(contracted_pair_fixture(), 0, "c1", "c2")
    for pid in ("i3", "i4"):
        p = next(q for q in mid.intersections if q.point_id == pid)
        assert p.label == F
        assert isinstance(p.end_a, CapRef)


def test_contract_shifts_body_paths_past_the_removed_pair():
    body = Grope(
        Stage(
            (
                (Tip("t1"), Tip("t2")),
                (Stage(((Tip("t3"), Tip("t4")),)), Tip("t5")),
            )
        )
    )
    caps = {f"c{k}": f"t{k}" for k in range(1, 6)}
    pts = (
        Intersection("i1", CapRef("c1"), CapRef("c1"), F),
        Intersection("i2", CapRef("c2"), CapRef("c2"), F),
        Intersection("i3", BodyRef(((1, 0),)), CapRef("c5"), G),
    )
    cg = CappedGrope(body, caps, pts)
    mid, _ = contract(cg, 0, "c1", "c2")
    p = next(q for q in mid.intersections if q.point_id == "i3")
    assert p.end_a == BodyRef(((0, 0),))
    assert validate_capped(mid) == []


def test_contract_absorbs_body_points_inside_the_piece():
    body = Grope(
        Stage(
            (
                (Stage(((Tip("t1"), Tip("t2")),)), Tip("t3")),
                (Tip("t4"), Tip("t5")),
            )
        )
    )
    caps = {f"c{k}": f"t{k}" for k in range(1, 6)}
    pts = (
        Intersection("i1", CapRef("c1"), CapRef("c1"), F),
        Intersection("i2", CapRef("c3"), CapRef("c3"), F),
        Intersection("i3", BodyRef(((0, 0),)), CapRef("c4"), G),
    )
    cg = CappedGrope(body, caps, pts)
    mid, record = contract(cg, 0, "c1", "c3")
    assert [q.point_id for q in record.pending] == ["i3"]
    assert record.pending[0].other == CapRef("c4")


def test_contract_last_pair_leaves_a_husk():
    cg = two_cap_grope(F, F)
    mid, record = contract(cg, 0, "c1", "c2")
    assert mid.body is None
    assert mid.caps == {}
    assert record.pending == ()
    assert validate_capped(mid) == []


def test_contract_sphere_ids_count_up():
    cg = flat_pairs_grope(2)
    mid, r0 = contract(cg, 0, "c1", "c2")
    after, _ = pushoff(mid, r0.sphere_id), None
    final, r1 = contract(after, 0, "c3", "c4")
    assert (r0.sphere_id, r1.sphere_id) == ("sph0", "sph1")


def test_contract_sphere_id_avoids_existing_names():
    cg = flat_pairs_grope(1)
    decoy = Intersection("sph0", CapRef("c1"), CapRef("c2"), F)
    cg = CappedGrope(cg.body, cg.caps, cg.intersections + (decoy,))
    _, record = contract(cg, 0, "c1", "c2")
    assert record.sphere_id == "sph1"


def test_contract_trace_entry_shape():
    trace = []
    contract(contracted_pair_fixture(), 0, "c1", "c2", trace=trace)
    assert trace == [
        {
            "op": "contract",
            "pairIndex": 0,
            "piece": 0,
            "capA": "c1",
            "capB": "c2",
            "label": "x1^-1",
            "sphere": "sph0",
            "selfPoints": [
                {"point": "i1", "was": "x1", "result": "1"},
                {"point": "i2", "was": "x1", "result": "1"},
            ],
            "queued": ["i9"],
        }
    ]


def test_contract_accepts_a_dyadic_subtree_piece():
    body = Grope(
        Stage(((Stage(((Tip("t1"), Tip("t2")),)), Tip("t3")),)), closed=True
    )
    caps = {"c1": "t1", "c2": "t2", "c3": "t3"}
    pts = tuple(
        Intersection(f"i{k}", CapRef(f"c{k}"), CapRef(f"c{k}"), F)
        for k in (1, 2, 3)
    )
    cg = CappedGrope(body, caps, pts)
    mid, record = contract(cg, 0, "c1", "c3")
    assert mid.body is None  # single-pair first stage: nothing left
    assert record.pending == ()


# ---------------------------------------------------------------------------
# contract: refusals


def test_contract_rejects_the_same_cap_twice():
    with pytest.raises(MoveError, match="two distinct caps"):
        contract(flat_pairs_grope(2), 0, "c1", "c1")


def test_contract_rejects_caps_off_the_piece():
    with pytest.raises(MoveError, match="not on the piece"):
        contract(flat_pairs_grope(2), 0, "c1", "c3")


def test_contract_rejects_mismatched_values():
    cg = flat_pairs_grope(1, points=False)
    pts = (
        Intersection("i1", CapRef("c1"), CapRef("c1"), F),
        Intersection("i2", CapRef("c2"), CapRef("c2"), G),
    )
    cg = CappedGrope(cg.body, cg.caps, pts)
    with pytest.raises(LabelMismatchError):
        contract(cg, 0, "c1", "c2")


def test_contract_rejects_non_dyadic_pieces():
    body = Grope(
        Stage(((Stage(((Tip("t1"), Tip("t2")), (Tip("t3"), Tip("t4")))), Tip("t5")),))
    )
    caps = {f"c{k}": f"t{k}" for k in range(1, 6)}
    cg = CappedGrope(body, caps)
    with pytest.raises(NotDyadicError):
        contract(cg, 0, "c1", "c2")


def test_contract_rejects_multi_valued_caps():
    cg = flat_pairs_grope(1, points=False)
    pts = (
        Intersection("i1", CapRef("c1"), CapRef("c1"), F),
        Intersection("i2", CapRef("c1"), CapRef("c1"), G),
        Intersection("i3", CapRef("c2"), CapRef("c2"), F),
    )
    cg = CappedGrope(cg.body, cg.caps, pts)
    with pytest.raises(SplitFirstError):
        contract(cg, 0, "c1", "c2")


def test_contract_waits_for_pending_pushoffs():
    mid, _ = contract(contracted_pair_fixture(), 0, "c1", "c2")
    with pytest.raises(MoveError, match="pending pushoff"):
        contract(mid, 0, "c3", "c4")


def test_contract_rejects_a_fully_surgered_body():
    husk = CappedGrope(None, {}, (), (SphereRecord("sph0", 0, "c1", "c2", F),))
    with pytest.raises(MoveError, match="fully surgered"):
        contract(husk, 0, "c1", "c2")


def test_piece_reads_refuse_a_tip_without_a_cap():
    """An API-built grope need not cap every tip; the piece reads name the first bare one."""
    cg = CappedGrope(Grope(Stage(((Tip("t1"), Tip("t2")),))), {"c2": "t2"})
    for read in (
        lambda: piece_caps(cg, 0),
        lambda: find_duplicate_pair(cg, 0),
        lambda: contract(cg, 0, "c1", "c2"),
    ):
        with pytest.raises(ValidationError, match="^tip 't1' has no cap$"):
            read()


def test_contract_and_pushoff_refuse_duplicate_point_ids():
    twice = Intersection("i1", CapRef("c1"), CapRef("c1"), F)
    queue = (PendingPushoff("q", CapRef("c1"), F),)
    cg = CappedGrope(
        two_cap_grope(F).body,
        {"c1": "t1", "c2": "t2"},
        (twice, twice),
        (SphereRecord("s", 0, "a", "b", F, queue),),
    )
    with pytest.raises(ValidationError, match="duplicate intersection ids"):
        contract(cg, 0, "c1", "c2")
    with pytest.raises(ValidationError, match="duplicate intersection ids"):
        pushoff(cg, "s")


# ---------------------------------------------------------------------------
# pushoff


def test_pushoff_replaces_each_queued_point_with_two_parallel_crossings():
    mid, record = contract(contracted_pair_fixture(), 0, "c1", "c2")
    after = pushoff(mid, "sph0")
    assert sphere_record(after, "sph0").pending == ()
    made = [p for p in after.intersections if p.point_id.startswith("i9.")]
    assert [p.point_id for p in made] == ["i9.1", "i9.2"]
    for p in made:
        assert p.end_a == CapRef("c3")
        assert p.end_b == SphereRef("sph0")
        assert p.label == IDENTITY
    assert validate_capped(after) == []


def test_pushoff_keeps_other_spheres_untouched():
    cg = flat_pairs_grope(2)
    cross = Intersection("i9", CapRef("c2"), CapRef("c3"), F)
    cg = CappedGrope(cg.body, cg.caps, cg.intersections + (cross,))
    mid, _ = contract(cg, 0, "c1", "c2")
    after = pushoff(mid, "sph0")
    final, r1 = contract(after, 0, "c3", "c4")
    assert sphere_record(final, "sph0").pending == ()
    done = pushoff(final, r1.sphere_id)
    assert sphere_record(done, "sph0") == sphere_record(final, "sph0")


def test_pushoff_point_names_avoid_collisions():
    cg = flat_pairs_grope(2)
    pts = cg.intersections + (
        Intersection("i9", CapRef("c2"), CapRef("c3"), F),
        Intersection("i9.1", CapRef("c4"), CapRef("c4"), F),
    )
    cg = CappedGrope(cg.body, cg.caps, pts)
    mid, _ = contract(cg, 0, "c1", "c2")
    after = pushoff(mid, "sph0")
    names = {p.point_id for p in after.intersections}
    assert "i9.1.1" in names and "i9.2" in names


def test_pushoff_with_empty_queue_is_a_no_op():
    mid, record = contract(flat_pairs_grope(2), 0, "c1", "c2")
    assert record.pending == ()
    assert pushoff(mid, "sph0") is mid


def test_pushoff_rejects_unknown_spheres():
    mid, _ = contract(flat_pairs_grope(2), 0, "c1", "c2")
    with pytest.raises(ValidationError, match="unknown sphere"):
        pushoff(mid, "nope")


def test_pushoff_trace_entry_shape():
    mid, _ = contract(contracted_pair_fixture(), 0, "c1", "c2")
    trace = []
    pushoff(mid, "sph0", trace=trace)
    assert trace == [
        {
            "op": "pushoff",
            "sphere": "sph0",
            "points": [
                {
                    "from": "i9",
                    "hadLabel": "x1^-1",
                    "created": ["i9.1", "i9.2"],
                    "result": "1",
                }
            ],
        }
    ]


# ---------------------------------------------------------------------------
# the point of it all


def test_contract_plus_pushoff_never_adds_label_values():
    cg = contracted_pair_fixture()
    before = label_keys(cg)
    mid, record = contract(cg, 0, "c1", "c2")
    after = pushoff(mid, record.sphere_id)
    assert label_keys(after) <= before
    assert validate_capped(after) == []


def test_full_surgery_of_both_pieces_leaves_identity_only():
    cg = contracted_pair_fixture()
    mid, r0 = contract(cg, 0, "c1", "c2")
    mid = pushoff(mid, r0.sphere_id)
    final, r1 = contract(mid, 0, "c3", "c4")
    final = pushoff(final, r1.sphere_id)
    assert final.body is None
    assert label_keys(final) == set()
    assert all(p.label == IDENTITY for p in final.intersections)
    assert len(final.spheres) == 2
    assert validate_capped(final) == []
