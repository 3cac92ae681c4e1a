"""Cap and stage splitting: partitions, dual duplication, fixpoint."""

from __future__ import annotations

import hashlib
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gropes import (
    BodyRef,
    CapRef,
    CappedGrope,
    GrowthLimitError,
    Grope,
    Intersection,
    RewriteError,
    SphereRecord,
    SphereRef,
    SplitLimits,
    Stage,
    SurgeryKernel,
    Tip,
    IDENTITY,
    ValidationError,
    canonical_dumps,
    class_of,
    contract,
    dumps_capped,
    find_duplicate_pair,
    full_split,
    generate_kernel,
    generator,
    iter_stages,
    label_keys,
    pushoff,
    replay_trace,
    run_surgery,
    split_cap,
    split_stage,
    stage_at,
    tips,
    unoriented_key,
    validate_capped,
    value_keys_by_cap,
)
import gropes.pipeline as pipeline_module
from gropes.moves import _contract_at, _pushoff_at, _sweep
from gropes.splitting import _full_split, _predicted_size, _RewriteState, _split_cap_at

from conftest import (
    dyadic_tower,
    ghost_tip_grope,
    over_the_guards_grope,
    random_capped_grope,
    report,
    seeded,
    split_genus3_grope,
    stage_dual_grope,
)

F, G, H = generator(1), generator(2), generator(3)


def _two_value_cap():
    body = Grope(Stage(((Tip("t1"), Tip("t2")),)))
    caps = {"c1": "t1", "c2": "t2"}
    pts = (
        Intersection("i1", CapRef("c1"), CapRef("c1"), F),
        Intersection("i2", CapRef("c1"), CapRef("c1"), G),
        Intersection("i3", CapRef("c1"), CapRef("c2"), G),
        Intersection("i4", CapRef("c2"), CapRef("c2"), F),
    )
    return CappedGrope(body, caps, pts)


# ---------------------------------------------------------------------------
# split_cap


def test_splits_refuse_a_fully_surgered_grope():
    husk = CappedGrope(None, {}, (), (SphereRecord("sph0", 0, "c1", "c2", IDENTITY),))
    for split in (full_split, lambda cg: split_cap(cg, "c1")):
        with pytest.raises(ValidationError, match="^cannot split a fully surgered grope$"):
            split(husk)


def test_split_cap_partitions_by_least_key():
    cg = _two_value_cap()
    trace: list = []
    out = split_cap(cg, "c1", trace=trace)
    # x2's unoriented key (-2,) sorts below x1's (-1,): x2 points go to copy .1.
    assert trace[0]["least"] == "x2^-1"
    assert trace[0]["into"] == ["c1.1", "c1.2"]
    by_id = {i.point_id: i for i in out.intersections}
    assert by_id["i2"].end_a == CapRef("c1.1")  # x2 self point
    assert by_id["i1"].end_a == CapRef("c1.2")  # x1 self point
    keys = value_keys_by_cap(out)
    assert keys["c1.1"] == {unoriented_key(G)}
    assert keys["c1.2"] == {unoriented_key(F)}


def test_split_cap_duplicates_dual():
    cg = _two_value_cap()
    out = split_cap(cg, "c1")
    assert len(out.body.root.pairs) == 2  # genus grew by one
    assert sorted(out.caps) == ["c1.1", "c1.2", "c2.1", "c2.2"]
    # c2's self point is inherited once per copy, no cross-copy points
    ids = {i.point_id: i for i in out.intersections}
    assert ids["i4.1"].end_a == CapRef("c2.1") and ids["i4.1"].end_b == CapRef("c2.1")
    assert ids["i4.2"].end_a == CapRef("c2.2") and ids["i4.2"].end_b == CapRef("c2.2")


def test_split_cap_duplicates_points_into_dual():
    cg = _two_value_cap()
    out = split_cap(cg, "c1")
    # i3 ran from c1 (x2 side) into the dual cap: one copy per dual copy.
    ids = {i.point_id: i for i in out.intersections}
    assert ids["i3.1"].end_a == CapRef("c1.1") and ids["i3.1"].end_b == CapRef("c2.1")
    assert ids["i3.2"].end_a == CapRef("c1.1") and ids["i3.2"].end_b == CapRef("c2.2")


def test_split_cap_class_preserved_and_valid():
    cg = _two_value_cap()
    out = split_cap(cg, "c1")
    assert class_of(out.body) == class_of(cg.body)
    assert validate_capped(out) == []


def test_split_cap_single_value_is_noop():
    body = Grope(Stage(((Tip("t1"), Tip("t2")),)))
    caps = {"c1": "t1", "c2": "t2"}
    cg = CappedGrope(body, caps, (Intersection("i1", CapRef("c1"), CapRef("c1"), F),))
    assert split_cap(cg, "c1") is cg
    clean = CappedGrope(body, caps)
    assert split_cap(clean, "c1") is clean


def test_split_cap_unknown_cap():
    with pytest.raises(ValidationError):
        split_cap(_two_value_cap(), "ghost")


def test_split_cap_on_a_tip_outside_the_body():
    with pytest.raises(ValidationError, match="not in the body"):
        split_cap(ghost_tip_grope(), "cx")


def test_split_cap_copies_a_stage_dual():
    cg = stage_dual_grope()
    out = split_cap(cg, "c3")
    # the dual subtree was parallel-copied wholesale
    assert sorted(out.caps) == ["c1.1", "c1.2", "c2.1", "c2.2", "c3.1", "c3.2"]
    assert class_of(out.body) == class_of(cg.body)
    assert validate_capped(out) == []


def test_split_cap_ids_stay_unique_under_collisions():
    body = Grope(Stage(((Tip("t1"), Tip("t2")),)))
    cg = CappedGrope(
        body,
        {"c1": "t1", "c1.1": "t2"},  # the first child name is already taken
        (
            Intersection("i1", CapRef("c1"), CapRef("c1"), F),
            Intersection("i2", CapRef("c1"), CapRef("c1"), G),
        ),
    )
    out = split_cap(cg, "c1")
    assert len(out.caps) == 4
    assert len(set(out.caps)) == 4
    assert len({i.point_id for i in out.intersections}) == len(out.intersections)
    assert validate_capped(out) == []


def test_split_cap_names_skip_the_id_of_the_cap_being_split():
    """The split cap c.1 holds its id until the rewrite has derived its last name."""
    body = Grope(Stage(((Tip("t1"), Tip("t2")),)))
    cg = CappedGrope(
        body,
        {"c.1": "t1", "c": "t2"},
        (
            Intersection("i1", CapRef("c.1"), CapRef("c.1"), F),
            Intersection("i2", CapRef("c.1"), CapRef("c.1"), G),
            Intersection("i3", CapRef("c"), CapRef("c"), F),
        ),
    )
    out = split_cap(cg, "c.1")
    assert out.caps == {"c.1.1": "t1.1", "c.1.2": "t1.2", "c.1.3": "t2.1", "c.2": "t2.2"}
    assert validate_capped(out) == []


def test_split_never_reuses_the_id_of_an_uncapped_tip():
    """t1.1 has no cap, yet its id stays taken: the new tips are t1.1.1 and t1.2."""
    body = Grope(Stage(((Tip("t1"), Tip("t2")), (Tip("t1.1"), Tip("t9")))))
    cg = CappedGrope(
        body,
        {"c1": "t1", "c2": "t2", "c9": "t9"},
        (
            Intersection("i1", CapRef("c1"), CapRef("c1"), F),
            Intersection("i2", CapRef("c1"), CapRef("c1"), G),
        ),
    )
    out = split_cap(cg, "c1")
    assert tips(out.body) == ["t1.1.1", "t2.1", "t1.2", "t2.2", "t1.1", "t9"]
    assert (out.caps["c1.1"], out.caps["c1.2"]) == ("t1.1.1", "t1.2")


def test_split_point_copies_skip_the_ids_of_the_copied_dual():
    """The dual's cap p.1 and tip p.2 go only after the copies of point p are named."""
    body = Grope(Stage(((Tip("t1"), Tip("p.2")),)))
    cg = CappedGrope(
        body,
        {"c1": "t1", "p.1": "p.2"},
        (
            Intersection("i1", CapRef("c1"), CapRef("c1"), F),
            Intersection("i2", CapRef("c1"), CapRef("c1"), G),
            Intersection("p", CapRef("p.1"), CapRef("p.1"), F),
        ),
    )
    out = split_cap(cg, "c1")
    assert out.caps == {"c1.1": "t1.1", "c1.2": "t1.2", "p.1.1": "p.2.1", "p.1.2": "p.2.2"}
    assert [p.point_id for p in out.intersections] == ["i1", "i2", "p.1.3", "p.2.3"]


@pytest.mark.parametrize("stage_path", [(), ((0, 0),)], ids=["first stage", "above the first stage"])
def test_split_cap_trace_reads_the_genus_before_the_widen(stage_path):
    """The entry gives the genus of the cap's stage before and after, both read directly."""
    wide = Stage(((Tip("t1"), Tip("t2")), (Tip("t3"), Tip("t4"))))
    body = Grope(wide if not stage_path else Stage(((wide, Tip("t5")),)))
    caps = {f"c{k}": f"t{k}" for k in range(1, 6 if stage_path else 5)}
    pts = (
        Intersection("i1", CapRef("c3"), CapRef("c3"), F),
        Intersection("i2", CapRef("c3"), CapRef("c3"), G),
    )
    cg = CappedGrope(body, caps, pts)
    trace: list = []
    out = split_cap(cg, "c3", trace=trace)
    (entry,) = trace
    assert (entry["stage"], entry["pair"]) == ([[0, "alpha"]] if stage_path else [], 1)
    assert (entry["genusBefore"], entry["genusAfter"]) == (2, 3)
    assert stage_at(out.body, stage_path).genus == 3


def test_split_cap_deterministic():
    a = split_cap(_two_value_cap(), "c1")
    b = split_cap(_two_value_cap(), "c1")
    assert a == b


# ---------------------------------------------------------------------------
# split_stage


def _genus3_above_first():
    deep = Stage(((Tip("t1"), Tip("t2")), (Tip("t3"), Tip("t4")), (Tip("t5"), Tip("t6"))))
    body = Grope(Stage(((deep, Tip("t7")),)))
    caps = {f"c{i}": f"t{i}" for i in range(1, 8)}
    pts = (
        Intersection("i1", CapRef("c7"), CapRef("c1"), F),
        Intersection("i2", CapRef("c3"), BodyRef(((0, 0),)), G),
    )
    return CappedGrope(body, caps, pts)


def test_split_stage_spreads_genus_to_first_stage():
    cg = _genus3_above_first()
    trace: list = []
    out = split_stage(cg, ((0, 0),), trace=trace)
    assert trace[0]["genus"] == 3
    assert trace[0]["parentGenusBefore"] == 1
    assert trace[0]["parentGenusAfter"] == 3
    assert len(out.body.root.pairs) == 3
    # every stage above the first now has genus 1
    assert all(len(s.pairs) == 1 for p, s in iter_stages(out.body) if p != ())


def test_split_stage_keeps_piece_caps_and_copies_dual():
    cg = _genus3_above_first()
    out = split_stage(cg, ((0, 0),))
    assert sorted(out.caps) == ["c1", "c2", "c3", "c4", "c5", "c6", "c7.1", "c7.2", "c7.3"]
    ids = {i.point_id: i for i in out.intersections}
    # the dual-cap point is copied once per dual copy, piece end untouched
    assert {ids[f"i1.{k}"].end_a for k in (1, 2, 3)} == {
        CapRef("c7.1"),
        CapRef("c7.2"),
        CapRef("c7.3"),
    }
    assert all(ids[f"i1.{k}"].end_b == CapRef("c1") for k in (1, 2, 3))


def test_split_stage_remaps_body_paths():
    cg = _genus3_above_first()
    out = split_stage(cg, ((0, 0),))
    ids = {i.point_id: i for i in out.intersections}
    path = ids["i2"].end_b.path
    # the path still resolves to a real stage
    assert stage_at(out.body, path) is not None
    assert validate_capped(out) == []


def test_split_stage_first_stage_rejected():
    with pytest.raises(RewriteError):
        split_stage(_genus3_above_first(), ())


def test_split_stage_genus_one_is_noop():
    body = Grope(Stage(((Stage(((Tip("t1"), Tip("t2")),)), Tip("t3")),)))
    cg = CappedGrope(body, {"c1": "t1", "c2": "t2", "c3": "t3"})
    assert split_stage(cg, ((0, 0),)) is cg


def test_split_stage_class_preserved():
    cg = _genus3_above_first()
    out = split_stage(cg, ((0, 0),))
    assert class_of(out.body) == class_of(cg.body)


# ---------------------------------------------------------------------------
# full_split


def _postconditions(cg: CappedGrope, out: CappedGrope) -> None:
    assert validate_capped(out) == []
    # every cap carries at most one distinct value
    for cap, keys in value_keys_by_cap(out).items():
        assert len(keys) <= 1, cap
    # everything above the first stage is genus 1
    for path, stage in iter_stages(out.body):
        if path != ():
            assert len(stage.pairs) == 1
    assert class_of(out.body) == class_of(cg.body)
    assert label_keys(out) <= label_keys(cg)


def test_full_split_multi_value_chain():
    body = Grope(Stage(((Tip("t1"), Tip("t2")),)))
    cg = CappedGrope(
        body,
        {"c1": "t1", "c2": "t2"},
        (
            Intersection("i1", CapRef("c1"), CapRef("c1"), F),
            Intersection("i2", CapRef("c1"), CapRef("c1"), G),
            Intersection("i3", CapRef("c1"), CapRef("c1"), H),
        ),
    )
    out = full_split(cg)
    _postconditions(cg, out)
    assert len(out.body.root.pairs) == 3  # one pair per value


def test_full_split_random_postconditions():
    rng = seeded(20260814)
    labels = [generator(i) for i in range(1, 7)]
    for trial in range(60):
        c = rng.randint(2, 5)
        k = rng.randint(1, 6)
        cg = random_capped_grope(rng, c, labels[:k], density=rng.uniform(0.3, 1.0))
        out = full_split(cg)
        _postconditions(cg, out)


def test_full_split_idempotent():
    rng = seeded(7)
    cg = random_capped_grope(rng, 3, [F, G], density=1.0)
    once = full_split(cg)
    again = full_split(once)
    assert again == once


def test_full_split_trace_replays():
    rng = seeded(99)
    cg = random_capped_grope(rng, 4, [F, G, H], density=1.2)
    trace: list = []
    out = full_split(cg, trace=trace)
    kernel = SurgeryKernel(3, (cg,), ())
    assert replay_trace(kernel, [{"grope": 0, **e} for e in trace]) == (out,)


def test_full_split_growth_limit():
    body = Grope(Stage(((Tip("t1"), Tip("t2")),)))
    cg = CappedGrope(
        body,
        {"c1": "t1", "c2": "t2"},
        tuple(
            Intersection(f"i{k}", CapRef("c1"), CapRef("c1"), generator(k))
            for k in range(1, 6)
        ),
    )
    with pytest.raises(GrowthLimitError):
        full_split(cg, limits=SplitLimits(max_first_stage_genus=3))
    out = full_split(cg)
    assert len(out.body.root.pairs) == 5


def _uniform_tower(n: int, k: int) -> CappedGrope:
    """A class-k dyadic tower whose every cap carries n values on self points."""
    tower, _ = dyadic_tower(k)
    caps = {f"c{i}": t for i, t in enumerate(tips(tower), start=1)}
    pts = tuple(
        Intersection(f"p{i}_{j}", CapRef(c), CapRef(c), generator(j))
        for i, c in enumerate(caps, start=1)
        for j in range(1, n + 1)
    )
    return CappedGrope(tower, caps, pts)


def test_full_split_uniform_growth_small():
    """Uniform dyadic input, n values on every cap: first-stage genus n^k."""
    for n in (2, 3):
        for k in (2, 3):
            cg = _uniform_tower(n, k)
            out = full_split(cg)
            _postconditions(cg, out)
            assert len(out.body.root.pairs) == n**k


# ---------------------------------------------------------------------------
# golden outputs: ids, paths, traces and serialized bytes are pinned


def _golden_random(seed: int, grope_class: int, values: int) -> CappedGrope:
    rng = seeded(seed)
    labels = [generator(i) for i in range(1, values + 1)]
    return random_capped_grope(rng, grope_class, labels, density=1.0)


def _golden_tower() -> CappedGrope:
    """Class-3 dyadic tower: x1 and x2 on every cap, an x3 point into every stage."""
    tower, _ = dyadic_tower(3)
    caps = {f"c{i}": t for i, t in enumerate(tips(tower), start=1)}
    pts = [
        Intersection(f"p{i}_{j}", CapRef(c), CapRef(c), generator(j))
        for i, c in enumerate(caps, start=1)
        for j in (1, 2)
    ]
    pts += [
        Intersection(f"b{k}", CapRef(c), BodyRef(path), generator(3))
        for k, (c, (path, _)) in enumerate(zip(caps, iter_stages(tower)))
    ]
    return CappedGrope(tower, caps, tuple(pts))


def _golden_stage_dual() -> CappedGrope:
    """Cap c5 whose dual is a genus-2 stage reached by caps and body points."""
    dual = Stage(((Tip("t1"), Tip("t2")), (Tip("t3"), Tip("t4"))))
    body = Grope(Stage(((dual, Tip("t5")), (Tip("t6"), Tip("t7")))))
    caps = {f"c{i}": f"t{i}" for i in range(1, 8)}
    pts = (
        Intersection("i1", CapRef("c5"), CapRef("c5"), F),
        Intersection("i2", CapRef("c5"), CapRef("c1"), G),
        Intersection("i3", CapRef("c5"), BodyRef(((0, 0),)), H),
        Intersection("i4", CapRef("c3"), CapRef("c6"), F),
        Intersection("i5", CapRef("c7"), BodyRef(()), G),
        Intersection("i6", CapRef("c2"), CapRef("c4"), G * H),
        Intersection("i7", CapRef("c6"), CapRef("c6"), H),
        Intersection("i8", CapRef("c6"), CapRef("c6"), F),
    )
    return CappedGrope(body, caps, pts)


def _golden_body_paths() -> CappedGrope:
    """Body endpoints where rewrites copy, remap and shift them.

    Root pair 0 holds a genus-2 stage S (split by split_stage, so its own
    surface and the stage above its pair 1 are remapped) opposite a stage D
    (copied once per piece of S); root pair 1 holds a stage L, shifted when
    pair 0 widens.  Multi-valued caps in S, D and L widen pairs that have
    body endpoints on their dual, on themselves and on later pairs.
    """
    s = Stage(((Tip("t1"), Tip("t2")), (Tip("t3"), Stage(((Tip("t4"), Tip("t5")),)))))
    d = Stage(((Tip("t6"), Stage(((Tip("t7"), Tip("t8")),))),))
    later = Stage(((Tip("t9"), Stage(((Tip("t10"), Tip("t11")),))), (Tip("t12"), Tip("t13"))))
    body = Grope(Stage(((s, d), (later, Tip("t14")))))
    caps = {f"c{i}": f"t{i}" for i in range(1, 15)}
    s_path, d_path, l_path = ((0, 0),), ((0, 1),), ((1, 0),)
    pts = (
        Intersection("i1", CapRef("c1"), CapRef("c1"), F),
        Intersection("i2", CapRef("c1"), BodyRef(s_path + ((1, 1),)), G),
        Intersection("i3", CapRef("c2"), BodyRef(s_path), H),
        Intersection("i4", CapRef("c4"), BodyRef(d_path), F),
        Intersection("i5", CapRef("c6"), CapRef("c6"), G),
        Intersection("i6", CapRef("c6"), BodyRef(d_path + ((0, 1),)), H),
        Intersection("i7", CapRef("c7"), BodyRef(l_path), F),
        Intersection("i8", CapRef("c9"), CapRef("c9"), G),
        Intersection("i9", CapRef("c9"), BodyRef(l_path + ((0, 1),)), F),
        Intersection("i10", CapRef("c12"), BodyRef(l_path + ((0, 1),)), H),
        Intersection("i11", CapRef("c14"), BodyRef(()), G),
        Intersection("i12", CapRef("c14"), CapRef("c14"), F),
        Intersection("i13", CapRef("c5"), BodyRef(s_path + ((1, 1),)), G * H),
        Intersection("i14", CapRef("c13"), BodyRef(d_path), G),
    )
    return CappedGrope(body, caps, pts)


GOLDEN = {
    "random-s1": (
        lambda: _golden_random(1, 3, 2),
        "c4ab3d077bbcfa540e44542678e41fbe9c6ec6428c8f3dc0c08605b35afbe8ab",
    ),
    "random-s2": (
        lambda: _golden_random(2, 4, 3),
        "0454523c906b242f72a1a9e4447486d384ceb052c8c17422898080576f0cad7a",
    ),
    "random-s3": (
        lambda: _golden_random(3, 4, 2),
        "5873f77563035467bd3e19c50b5f8379e6781333a1f233937403895bdb59c4b7",
    ),
    "random-s4": (
        lambda: _golden_random(4, 5, 2),
        "ab00aac78b5c282e6d71f528a2ead818fbe7744882dc8822e3411caad60d0f4a",
    ),
    "kernel-s5": (
        lambda: generate_kernel(5, labels=3).gropes[0],
        "a0568049bf6152d9c69e0752b199ce05c9137173dd578fb3a75194abcb070b68",
    ),
    "dyadic-tower": (
        _golden_tower,
        "336b4d4127ea149189b93f6ef94087e649bd2bcefc71ec384c8056256df857df",
    ),
    "stage-dual": (
        _golden_stage_dual,
        "4a3d93211029554973cdd3c4652d15aca767c5d503c3db751cf0c935f335993c",
    ),
    "body-paths": (
        _golden_body_paths,
        "dd61266e4f93e1046b8d6b67ae5137c7e2751edfa18543f8eb1884f02e249a6f",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_full_split_golden(name):
    build, digest = GOLDEN[name]
    cg = build()
    trace: list = []
    out = full_split(cg, trace=trace)
    text = dumps_capped(out) + canonical_dumps(trace)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    kernel = SurgeryKernel(3, (cg,), ())
    assert replay_trace(kernel, [{"grope": 0, **e} for e in trace]) == (out,)


# ---------------------------------------------------------------------------
# the input is never edited


# Each public rewrite, with a builder of a grope it changes.
INPUT_MOVES = {
    "split_cap": (_golden_tower, lambda cg: split_cap(cg, "c1")),
    "split_stage": (_genus3_above_first, lambda cg: split_stage(cg, ((0, 0),))),
    "full_split": (_golden_stage_dual, full_split),
    "contract": (split_genus3_grope, lambda cg: contract(cg, 1, "c3", "c5")[0]),
    "pushoff": (
        lambda: contract(split_genus3_grope(), 1, "c3", "c5")[0],
        lambda cg: pushoff(cg, cg.spheres[-1].sphere_id),
    ),
}


@pytest.mark.parametrize("name", INPUT_MOVES)
def test_rewrites_leave_their_input_unchanged(name):
    """The state edits its own live copy, so the input reads the same and rewrites the same."""
    build, move = INPUT_MOVES[name]
    cg = build()
    before = dumps_capped(cg)
    out = move(cg)
    assert out != cg
    assert dumps_capped(cg) == before
    assert move(cg) == out


def test_replay_leaves_its_kernel_unchanged():
    cg = _golden_body_paths()
    trace: list = []
    out = full_split(cg, trace=trace)
    kernel = SurgeryKernel(3, (cg,), ())
    before = dumps_capped(cg)
    assert replay_trace(kernel, [{"grope": 0, **e} for e in trace]) == (out,)
    assert dumps_capped(cg) == before
    # Twice on the same kernel: the first replay left nothing behind for the second.
    assert replay_trace(kernel, [{"grope": 0, **e} for e in trace]) == (out,)


def _shared_body_grope(depth: int) -> CappedGrope:
    """depth levels of (s, s) over one genus-1 stage: 2^depth paths to each of its two tips."""
    stage = Stage(((Tip("t1"), Tip("t2")),))
    for _ in range(depth):
        stage = Stage(((stage, stage),))
    return CappedGrope(Grope(stage), {"c1": "t1", "c2": "t2"})


REPEATED_TIP_MOVES = {
    "full_split": full_split,
    "split_cap": lambda cg: split_cap(cg, "c1"),
    "split_stage": lambda cg: split_stage(cg, ((0, 0),)),
    "contract": lambda cg: contract(cg, 0, "c1", "c2"),
    "pushoff": lambda cg: pushoff(cg, "sph0"),
    "find_duplicate_pair": lambda cg: find_duplicate_pair(cg, 0),
}


@pytest.mark.parametrize("name", REPEATED_TIP_MOVES)
def test_a_body_that_repeats_a_tip_is_refused_as_the_state_opens(name):
    """A shared stage is refused at its second tip, in well under a second, not unfolded.

    A tree body that repeats a tip id is refused the same way.
    """
    move = REPEATED_TIP_MOVES[name]
    start = time.perf_counter()
    with pytest.raises(ValidationError, match="tip id 't1' occurs twice in the body"):
        move(_shared_body_grope(40))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
    tree = Stage(((Stage(((Tip("t1"), Tip("t2")),)), Tip("t1")),))
    cg = CappedGrope(Grope(tree), {"c1": "t1", "c2": "t2"})
    with pytest.raises(ValidationError, match="tip id 't1' occurs twice in the body"):
        move(cg)


def test_a_state_that_only_contracts_keeps_the_other_pairs():
    cg = split_genus3_grope()
    state = _RewriteState(cg)
    _contract_at(state, 1, "c3", "c5", None)
    _pushoff_at(state, state.spheres[-1].sphere_id)
    assert state.result().body.root.pairs == tuple(cg.body.root.pairs[j] for j in (0, 2))


def _live_end_types(state: _RewriteState) -> set[type]:
    return {type(end) for p in state.points.values() for end in (p.end_a, p.end_b)}


def _queue_ends(state: _RewriteState) -> dict[str, object]:
    """The surviving end of every queued point of the open state, by point id."""
    return {point_id: end for queue in state.queues.values() for point_id, end, _ in queue}


def _end_types(cg: CappedGrope) -> set[type]:
    """The types of every point end and every pending pushoff's other end."""
    ends = [end for p in cg.intersections for end in (p.end_a, p.end_b)]
    return {type(end) for end in ends + [q.other for s in cg.spheres for q in s.pending]}


LIVE_ENDS, REF_ENDS = {str, tuple, SphereRef}, {CapRef, BodyRef, SphereRef}


def test_the_state_keeps_ends_as_sheet_keys_and_builds_refs_only_at_its_edges(monkeypatch):
    """A live end is a cap id, a stage path or a SphereRef; result() gives SheetRefs back."""
    kernel = generate_kernel(3, labels=3, pair_count=2)
    live, out = set(), set()
    for gi, cg in enumerate(kernel.gropes):
        state = _RewriteState(cg)
        _full_split(state)
        live |= _live_end_types(state)
        _sweep(state, gi)
        live |= _live_end_types(state)
        out |= _end_types(state.result()) | _end_types(full_split(cg))
    assert live == LIVE_ENDS and out == REF_ENDS

    # A contraction queues its outward points with live ends, which a split
    # renumbers with the points; result() writes them as PendingPushoffs, and
    # a state opened on that grope takes them off its sphere records again.
    state = _RewriteState(split_genus3_grope())
    _contract_at(state, 0, "c1", "c2", None)
    assert {type(end) for end in _queue_ends(state).values()} == {str, tuple} < LIVE_ENDS
    _split_cap_at(state, "c3")  # one value: it only renumbers
    assert _live_end_types(state) == LIVE_ENDS
    queued = {"b1": ((0, 0),), "b2": ((1, 1), (0, 1)), "x1": "c7"}
    assert _queue_ends(state) == queued
    cg = state.result()
    assert _end_types(cg) == REF_ENDS
    assert {q.point_id: q.other for q in cg.spheres[-1].pending} == {
        "b1": BodyRef(((0, 0),)),
        "b2": BodyRef(((1, 1), (0, 1))),
        "x1": CapRef("c7"),
    }
    reopened = _RewriteState(cg)
    assert _queue_ends(reopened) == queued
    assert not any(s.pending for s in reopened.spheres)

    seen = []

    class Recording(_RewriteState):
        def result(self) -> CappedGrope:
            seen.append(_live_end_types(self))
            return super().result()

    monkeypatch.setattr(pipeline_module, "_RewriteState", Recording)
    result = run_surgery(kernel)
    replayed = replay_trace(kernel, result.trace)
    assert seen and set().union(*seen) <= LIVE_ENDS
    assert replayed == result.gropes


# ---------------------------------------------------------------------------
# the rescanning loop full_split replaced, kept as its oracle


def _oracle_full_split(cg: CappedGrope, trace: list) -> CappedGrope:
    """Rescan every cap and stage before every rewrite, as full_split once did."""
    while True:
        keys, by_tip = value_keys_by_cap(cg), cg.tip_to_cap
        for cap in [by_tip[t] for t in tips(cg.body) if t in by_tip]:
            if len(keys[cap]) > 1:
                cg = split_cap(cg, cap, trace=trace)
                break
        else:
            deepest = None
            for path, stage in iter_stages(cg.body):
                if path and stage.genus > 1 and (deepest is None or len(path) > len(deepest)):
                    deepest = path
            if deepest is None:
                return cg
            cg = split_stage(cg, deepest, trace=trace)


def _split_text(split, cg: CappedGrope) -> str:
    trace: list = []
    return dumps_capped(split(cg, trace=trace)) + canonical_dumps(trace)


# Ids with dots, several spelled like the lineage names splitting derives,
# and drawn for every kind from one pool so that a cap, a tip and a point can
# share a spelling.
NAME_POOL = (
    "a", "a.1", "a.2", "a.1.1", "b", "b.1", "e", "e.1",
    "t1", "t1.1", "c1", "c1.1", "i1", "i1.1", "x", "x.2",
)
MAX_TIPS = 6
ORACLE_LABELS = (F, G.inverse(), F * G, IDENTITY)


@st.composite
def split_inputs(draw) -> CappedGrope:
    """Small capped gropes with multi-valued caps, body endpoints and stage duals."""
    tip_names = draw(st.permutations(NAME_POOL))
    cap_names = draw(st.permutations(NAME_POOL))
    point_names = draw(st.permutations(NAME_POOL))
    made: list[str] = []

    def slot(depth: int):
        if depth == 0 or len(made) >= MAX_TIPS - 1 or draw(st.booleans()):
            made.append(tip_names[len(made)])
            return Tip(made[-1])
        return stage(depth - 1)

    def stage(depth: int) -> Stage:
        genus = draw(st.integers(1, 2))
        return Stage(tuple((slot(depth), slot(depth)) for _ in range(genus)))

    body = Grope(stage(2))
    caps = dict(zip(cap_names, made))
    cap_ids = list(caps)
    paths = [path for path, _ in iter_stages(body)]
    points = []
    for point_id in point_names[: draw(st.integers(0, 12))]:
        end_a = CapRef(draw(st.sampled_from(cap_ids)))
        if draw(st.booleans()):
            end_b = CapRef(draw(st.sampled_from(cap_ids)))
        else:
            end_b = BodyRef(draw(st.sampled_from(paths)))
        label = draw(st.sampled_from(ORACLE_LABELS))
        points.append(Intersection(point_id, end_a, end_b, label))
    return CappedGrope(body, caps, tuple(points))


@settings(max_examples=150, deadline=None)
@given(split_inputs())
def test_full_split_matches_the_rescanning_oracle(cg):
    before = dumps_capped(cg)
    assert _split_text(full_split, cg) == _split_text(_oracle_full_split, cg)
    assert dumps_capped(cg) == before  # the input is never mutated


def _capped(root: Stage, values: dict[str, tuple], body_points=()) -> CappedGrope:
    """The capped grope on root with cap ck on each tip tk.

    values maps a cap to the labels of its self points, and body_points
    lists (cap, stage path, label) for points from a cap to a stage.
    """
    caps = {"c" + t[1:]: t for t in tips(root)}
    pts = [
        Intersection(f"{cap}v{k}", CapRef(cap), CapRef(cap), label)
        for cap, labels in values.items()
        for k, label in enumerate(labels)
    ]
    pts += [
        Intersection(f"b{k}", CapRef(cap), BodyRef(path), label)
        for k, (cap, path, label) in enumerate(body_points)
    ]
    return CappedGrope(Grope(root), caps, tuple(pts))


def _splice_alpha_cap_with_a_multivalued_dual() -> CappedGrope:
    """c1 splits on the alpha side; its dual stage holds c2, which carries two values."""
    dual = Stage(((Tip("t2"), Tip("t3")),))
    root = Stage(((Tip("t1"), dual), (Tip("t4"), Tip("t5"))))
    return _capped(root, {"c1": (F, G), "c2": (G, H), "c4": (F,)}, [("c3", ((0, 1),), H)])


def _splice_beta_cap_with_two_values_left() -> CappedGrope:
    """c3 splits on the beta side into a one-value cap and a rest cap of two values."""
    alpha = Stage(((Tip("t1"), Tip("t2")),))
    root = Stage(((alpha, Tip("t3")), (Tip("t4"), Tip("t5"))))
    return _capped(root, {"c3": (F, G, H), "c1": (G,)}, [("c2", ((0, 0),), F)])


def _splice_two_wide_stages_at_one_depth() -> CappedGrope:
    """Two genus-2 stages two deep in one stage, the first on a beta side."""
    first = Stage(((Tip("t2"), Tip("t3")), (Tip("t4"), Tip("t5"))))
    second = Stage(((Tip("t6"), Tip("t7")), (Tip("t8"), Tip("t9"))))
    middle = Stage(((Tip("t1"), first), (second, Tip("t10"))))
    root = Stage(((middle, Tip("t11")),))
    paths = (((0, 0), (0, 1)), ((0, 0), (1, 0)), ((0, 0),))
    body_points = [(f"c{k}", p, F) for k, p in zip((1, 8, 11), paths)]
    return _capped(root, {"c3": (G,), "c6": (F,)}, body_points)


@pytest.mark.parametrize(
    "make",
    [
        _splice_alpha_cap_with_a_multivalued_dual,
        _splice_beta_cap_with_two_values_left,
        _splice_two_wide_stages_at_one_depth,
    ],
)
def test_full_split_matches_the_oracle_where_rewrites_splice(make):
    """Each phase walks on through the pairs a rewrite splices in; the rescan agrees."""
    cg = make()
    assert _split_text(full_split, cg) == _split_text(_oracle_full_split, cg)
    _postconditions(cg, full_split(cg))


def test_rewrites_refuse_only_growth_past_a_guard():
    """A figure already over its guard may stay there; growing it further is refused."""
    cg = over_the_guards_grope()
    out = split_cap(cg, "ca", limits=SplitLimits(max_first_stage_genus=2))
    assert (out.body.root.genus, len(out.intersections)) == (3, 2)
    assert split_cap(cg, "ca", limits=SplitLimits(max_intersections=1)) == out
    full = full_split(cg, limits=SplitLimits(max_intersections=1))
    assert (full.body.root.genus, len(full.intersections)) == (4, 2)
    with pytest.raises(GrowthLimitError, match="first-stage genus 4 exceeds the limit 2"):
        split_stage(out, ((0, 0),), limits=SplitLimits(max_first_stage_genus=2))


def test_full_split_keeps_an_id_taken_by_another_kind():
    """Copying point a.1 must not free the name while cap a.1 still holds it."""
    body = Grope(Stage(((Tip("tb"), Tip("te")), (Tip("ta"), Tip("tx")))))
    caps = {"b": "tb", "e": "te", "a": "ta", "a.1": "tx"}
    pts = (
        Intersection("p1", CapRef("b"), CapRef("b"), F),
        Intersection("p2", CapRef("b"), CapRef("b"), G),
        Intersection("a.1", CapRef("e"), CapRef("e"), F),
        Intersection("p3", CapRef("a"), CapRef("a"), F),
        Intersection("p4", CapRef("a"), CapRef("a"), G),
    )
    cg = CappedGrope(body, caps, pts)
    trace: list = []
    out = full_split(cg, trace=trace)
    assert validate_capped(out) == []
    assert [e["into"] for e in trace if e["cap"] == "a"] == [["a.1.3", "a.2"]]
    assert _split_text(full_split, cg) == _split_text(_oracle_full_split, cg)


def test_copies_take_lineage_names_in_point_id_order():
    """Copies of p, p.1, p.1.1, ... collide on names, so their order fixes them."""
    body = Grope(Stage(((Tip("t1"), Tip("t2")),)))
    pts = [Intersection("i1", CapRef("c1"), CapRef("c1"), F)]
    pts += [Intersection("i2", CapRef("c1"), CapRef("c1"), G)]
    pts += [
        Intersection(name, CapRef("c2"), CapRef("c2"), F)
        for name in ("p.2", "p.1.1.1", "p.1", "p", "p.1.1")
    ]
    out = full_split(CappedGrope(body, {"c1": "t1", "c2": "t2"}, tuple(pts)))
    assert [p.point_id for p in out.intersections] == [
        "i1", "i2", "p.1.1.1.1", "p.1.1.1.1.1", "p.1.1.1.2", "p.1.1.2",
        "p.1.1.2.1", "p.1.2", "p.1.2.1", "p.2.1", "p.2.1.1", "p.2.2",
    ]


@settings(max_examples=150, deadline=None)
@given(split_inputs())
def test_predicted_genus_is_the_split_genus(cg):
    predicted = _predicted_size(_RewriteState(cg))[0]
    assert predicted == full_split(cg).body.root.genus


def test_full_split_refuses_from_the_predicted_genus():
    cg = _uniform_tower(3, 4)
    trace: list = []
    with pytest.raises(GrowthLimitError, match="genus to 81"):
        full_split(cg, limits=SplitLimits(max_first_stage_genus=80), trace=trace)
    assert trace == []  # refused before the first rewrite
    assert full_split(cg, limits=SplitLimits(max_first_stage_genus=81)).body.root.genus == 81


def _predicted(cg: CappedGrope) -> int:
    return _predicted_size(_RewriteState(cg))[1]


@settings(max_examples=150, deadline=None)
@given(split_inputs())
def test_predicted_points_bound_the_split(cg):
    assert len(cg.intersections) <= _predicted(cg) <= len(full_split(cg).intersections)


def test_predicted_points_are_exact_on_dyadic_towers():
    towers = [_uniform_tower(n, k) for n in (1, 2, 3) for k in (2, 3, 4, 5)]
    for cg in towers + [_golden_tower()]:
        assert _predicted(cg) == len(full_split(cg).intersections)


def test_full_split_refuses_from_the_predicted_points():
    cg = _uniform_tower(3, 4)
    points = _predicted(cg)
    trace: list = []
    with pytest.raises(GrowthLimitError, match=f"at least {points} intersections"):
        full_split(cg, limits=SplitLimits(max_intersections=points - 1), trace=trace)
    assert trace == []  # refused before the first rewrite
    out = full_split(cg, limits=SplitLimits(max_intersections=points))
    assert len(out.intersections) == points


def test_full_split_keeps_points_over_the_guard_that_need_no_growth():
    cg = _uniform_tower(1, 3)
    assert full_split(cg, limits=SplitLimits(max_intersections=1)) is cg


def test_each_rewrite_checks_the_point_count():
    cg = _two_value_cap()  # splitting c1 copies i3 and i4 with the dual: 6 points
    with pytest.raises(GrowthLimitError, match="6 intersections exceed the limit 5"):
        split_cap(cg, "c1", limits=SplitLimits(max_intersections=5))
    assert len(split_cap(cg, "c1", limits=SplitLimits(max_intersections=6)).intersections) == 6


def test_each_rewrite_checks_the_genus_guard():
    cg = _two_value_cap()  # splitting c1 widens the first stage to genus 2
    with pytest.raises(GrowthLimitError, match="first-stage genus 2 exceeds the limit 1"):
        split_cap(cg, "c1", limits=SplitLimits(max_first_stage_genus=1))
    assert split_cap(cg, "c1", limits=SplitLimits(max_first_stage_genus=2)).body.root.genus == 2


def test_full_split_moves_points_that_end_on_a_sphere():
    """Points from a multi-valued cap and from a shifted stage to sphere s keep that end."""
    wide = Stage(((Tip("t1"), Tip("t2")), (Stage(((Tip("t3"), Tip("t4")),)), Tip("t6"))))
    body = Grope(Stage(((wide, Tip("t5")),)))
    caps = {f"c{k}": f"t{k}" for k in range(1, 7)}
    s = SphereRef("s")
    pts = (
        Intersection("i1", CapRef("c1"), CapRef("c1"), F),
        Intersection("i2", CapRef("c1"), s, G),
        Intersection("i3", BodyRef(((0, 0), (1, 0))), s, F),
        Intersection("i4", s, CapRef("c5"), H),
    )
    cg = CappedGrope(body, caps, pts, (SphereRecord("s", 0, "ca", "cb", IDENTITY),))
    trace: list = []
    out = full_split(cg, trace=trace)
    assert _split_text(full_split, cg) == _split_text(_oracle_full_split, cg)
    assert validate_capped(out) == []
    assert sum(p.end_b == s for p in out.intersections) == 2
    assert sum(p.end_a == s for p in out.intersections) == 3  # i4 on each copy of c5
    assert replay_trace(SurgeryKernel(3, (cg,), ()), [{"grope": 0, **e} for e in trace]) == (out,)


def test_split_refuses_duplicate_point_ids():
    body = Grope(Stage(((Tip("t1"), Tip("t2")),)))
    twice = Intersection("i1", CapRef("c1"), CapRef("c1"), F)
    cg = CappedGrope(body, {"c1": "t1", "c2": "t2"}, (twice, twice))
    with pytest.raises(ValidationError, match="duplicate intersection ids"):
        full_split(cg)


def test_full_split_skips_untouched_points(capsys):
    """Peeling 100 values off c1 reads c1's points, not pair 1's 20000."""
    body = Grope(Stage(((Tip("t1"), Tip("t2")), (Tip("t3"), Tip("t4")))))
    caps = {f"c{k}": f"t{k}" for k in range(1, 5)}
    pts = [Intersection(f"v{j}", CapRef("c1"), CapRef("c1"), generator(j)) for j in range(1, 101)]
    pair1 = (CapRef("c3"), CapRef("c4"))
    pts += [Intersection(f"s{j}", pair1[j % 2], pair1[j % 2], F) for j in range(20000)]
    cg = CappedGrope(body, caps, tuple(pts))
    start = time.perf_counter()
    trace: list = []
    out = full_split(cg, trace=trace)
    elapsed = time.perf_counter() - start
    assert (len(trace), out.body.root.genus, len(out.intersections)) == (99, 101, 20100)
    report(
        capsys,
        "split skips untouched points",
        elapsed < 1.0,
        f"{len(trace)} rewrites of c1 beside {len(pts) - 100} points on pair 1 "
        f"[{elapsed:.2f}s < 1s]",
    )


def test_full_split_replays_within_3x_its_time(capsys):
    """The 1107 rewrites of a genus-1024 tower replay on one split state, as full_split runs."""
    cg = _uniform_tower(4, 5)
    start = time.perf_counter()
    trace: list = []
    out = full_split(cg, trace=trace)
    split_s = time.perf_counter() - start
    start = time.perf_counter()
    replayed = replay_trace(SurgeryKernel(4, (cg,), ()), [{"grope": 0, **e} for e in trace])
    replay_s = time.perf_counter() - start
    assert (len(trace), out.body.root.genus, replayed) == (1107, 1024, (out,))
    report(
        capsys,
        "replay of a full split",
        replay_s < 3 * split_s,
        f"{len(trace)} rewrites to genus 1024 [{replay_s:.2f}s < 3 x {split_s:.2f}s]",
    )


def test_full_split_keeps_a_wide_first_stage_that_needs_no_growth():
    """Only growth is refused: a first stage already over the guard is kept."""
    body = Grope(Stage(tuple((Tip(f"a{k}"), Tip(f"b{k}")) for k in range(3))))
    cg = CappedGrope(body, {f"c{k}": f"a{k}" for k in range(3)})
    assert full_split(cg, limits=SplitLimits(max_first_stage_genus=2)) == cg


def test_full_split_rejects_a_fully_surgered_grope():
    with pytest.raises(ValidationError, match="fully surgered"):
        full_split(CappedGrope(None))
