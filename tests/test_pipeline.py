"""Kernel validation, hypothesis counting, and the full surgery pipeline."""

import gc
import hashlib
import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gropes import (
    BodyRef,
    CappedGrope,
    CapRef,
    HypothesisReport,
    Intersection,
    PendingPushoff,
    SphereRecord,
    SphereRef,
    SurgeryKernel,
    SurgeryResult,
    boundary_word,
    canonical_dumps,
    check_hypotheses,
    class_of,
    contract,
    dumps_capped,
    dumps_kernel,
    dumps_result,
    effective_value,
    find_duplicate_pair,
    full_split,
    generate_kernel,
    generator,
    grope_from_expression,
    is_pi1_null,
    label_keys,
    lcs_depth,
    parse_expression,
    piece_caps,
    pushoff,
    random_grope,
    replay_trace,
    run_surgery,
    split_cap,
    tips,
    validate_kernel,
    value_keys_by_cap,
)
from gropes.errors import (
    GropeError,
    HypothesisError,
    LabelMismatchError,
    MoveError,
    NotDyadicError,
    ParseError,
    PigeonholeFailure,
    RewriteError,
    SplitFirstError,
    ValidationError,
)
from gropes.grope import Grope, Stage, Tip, iter_stages
import gropes.pipeline as pipeline_module
from gropes.pipeline import _expected_tips, _random_stage
from gropes.words import IDENTITY, GroupWord

from conftest import (
    dyadic_tower,
    is_dyadic,
    random_capped_grope,
    report,
    sphere_record,
    split_genus3_grope,
    stage_dual_grope,
    two_cap_grope,
)

F = generator(1)
G = generator(2)


def small_kernel(**kw):
    return generate_kernel(11, labels=2, **kw)


# ---------------------------------------------------------------------------
# SurgeryKernel / validate_kernel


def test_kernel_rejects_negative_rank():
    with pytest.raises(ValidationError):
        SurgeryKernel(-1, (), ())


def test_kernel_rejects_malformed_pairs():
    cg = two_cap_grope(F, F)
    with pytest.raises(ValidationError):
        SurgeryKernel(1, (cg,), ((0, 1, 2),))


def test_validate_kernel_accepts_generated_kernels():
    assert validate_kernel(small_kernel()) == []


def test_validate_kernel_flags_missing_bodies():
    husk = CappedGrope(None, {}, ())
    kernel = SurgeryKernel(0, (husk, husk), ((0, 1),))
    assert "grope 0: no body" in validate_kernel(kernel)


def test_validate_kernel_prefixes_capped_grope_issues():
    body = Grope(Stage(((Tip("t1"), Tip("t2")),)))
    uncapped = CappedGrope(body, {"c1": "t1"}, ())  # t2 is bare
    kernel = SurgeryKernel(1, (uncapped, uncapped), ((0, 1),))
    assert any(p.startswith("grope 1: ") for p in validate_kernel(kernel))


def test_validate_kernel_flags_bad_pairings():
    cg = two_cap_grope(F, F)
    gropes = (cg, cg, cg)
    self_dual = SurgeryKernel(1, gropes, ((0, 0), (1, 2)))
    assert any("own dual" in p for p in validate_kernel(self_dual))
    dangling = SurgeryKernel(1, gropes, ((0, 1), (2, 5)))
    assert any("no grope 5" in p for p in validate_kernel(dangling))
    doubled = SurgeryKernel(1, gropes, ((0, 1), (1, 2)))
    assert any("already paired" in p for p in validate_kernel(doubled))
    unpaired = SurgeryKernel(1, gropes, ((0, 1),))
    assert any("not in any hyperbolic pair" in p for p in validate_kernel(unpaired))


# ---------------------------------------------------------------------------
# hypotheses


def test_report_thresholds_differ_by_one():
    at_boundary = HypothesisReport(label_count=3, min_class=3)
    assert at_boundary.boundary_ok and not at_boundary.ok
    above = HypothesisReport(label_count=3, min_class=4)
    assert above.ok and above.required_class == 4


def test_report_as_doc():
    doc = HypothesisReport(2, 3).as_doc()
    assert doc == {
        "labelCount": 2,
        "minClass": 3,
        "requiredClass": 3,
        "ok": True,
        "boundaryOk": True,
    }


def test_check_hypotheses_counts_distinct_values_across_gropes():
    a = two_cap_grope(F, F)
    b = two_cap_grope(G, G.inverse())  # inverse orientation, same value
    kernel = SurgeryKernel(2, (a, b), ((0, 1),))
    report = check_hypotheses(kernel)
    assert report.label_count == 2
    assert report.min_class == 2
    assert not report.ok and report.boundary_ok


def test_check_hypotheses_rejects_empty_and_bodiless():
    with pytest.raises(ValidationError):
        check_hypotheses(SurgeryKernel(0, (), ()))
    husk = CappedGrope(None, {}, ())
    with pytest.raises(ValidationError):
        check_hypotheses(SurgeryKernel(0, (husk,), ()))


# ---------------------------------------------------------------------------
# find_duplicate_pair


def flat_grope(cap_labels):
    """One dyadic piece whose caps (in traversal order) carry the labels.

    None means the cap stays clean.  All caps land on the piece at pair 0.
    """
    n = len(cap_labels)
    counter = [0]

    def chain(k):
        counter[0] += 1
        me = Tip(f"t{counter[0]}")
        return me if k == 1 else Stage(((me, chain(k - 1)),))

    pair = (chain(n // 2), chain(n - n // 2))
    caps = {f"c{k}": f"t{k}" for k in range(1, n + 1)}
    pts = tuple(
        Intersection(f"i{k}", CapRef(f"c{k}"), CapRef(f"c{k}"), lab)
        for k, lab in enumerate(cap_labels, start=1)
        if lab is not None
    )
    return CappedGrope(Grope(Stage((pair,))), caps, pts)


def test_duplicate_pair_prefers_clean_caps():
    cg = flat_grope([F, None, F, None])
    assert find_duplicate_pair(cg, 0) == ("c2", "c4")


def test_duplicate_pair_takes_first_match_in_cap_order():
    cg = flat_grope([G, F, G, F])
    assert find_duplicate_pair(cg, 0) == ("c1", "c3")


def test_duplicate_pair_matches_values_up_to_orientation():
    cg = flat_grope([F, G, F.inverse(), G.inverse()])
    assert find_duplicate_pair(cg, 0) == ("c1", "c3")


def test_duplicate_pair_reports_pigeonhole_failure():
    cg = flat_grope([F, G])
    with pytest.raises(PigeonholeFailure) as exc:
        find_duplicate_pair(cg, 0, piece_name="piece zero")
    assert exc.value.piece == "piece zero"
    assert "piece zero" in str(exc.value)
    assert "distinct values" in str(exc.value)


def test_duplicate_pair_demands_split_caps():
    cg = flat_grope([F, F])
    extra = Intersection("i9", CapRef("c1"), CapRef("c1"), G)
    cg = CappedGrope(cg.body, cg.caps, cg.intersections + (extra,))
    with pytest.raises(SplitFirstError):
        find_duplicate_pair(cg, 0)


# ---------------------------------------------------------------------------
# run_surgery


def test_surgery_produces_identity_labeled_sphere_families():
    result = run_surgery(small_kernel())
    assert len(result.gropes) == 2
    for husk in result.gropes:
        assert husk.body is None
        assert husk.caps == {}
        assert is_pi1_null(husk)
        assert label_keys(husk) == set()
        assert len(husk.spheres) >= 1


def test_surgery_stats_are_consistent():
    result = run_surgery(small_kernel())
    stats = result.stats
    assert stats["labelCount"] == 2
    assert stats["minClass"] >= 3
    assert stats["pieceCount"] == sum(stats["firstStageGenus"])
    assert stats["spherePairCount"] == len(result.sphere_pairs)
    assert stats["outputPi1Null"] is True


def test_surgery_pairs_spheres_piece_by_piece():
    result = run_surgery(generate_kernel(5, labels=2, pair_count=2))
    seen = set()
    for (gi, si), (gj, sj) in result.sphere_pairs:
        assert (gi, gj) in ((0, 1), (2, 3))
        a, b = sphere_record(result.gropes[gi], si), sphere_record(result.gropes[gj], sj)
        assert a.piece == b.piece
        seen.add((gi, si))
        seen.add((gj, sj))
    total = sum(len(h.spheres) for h in result.gropes)
    assert len(seen) == total == 2 * result.stats["spherePairCount"]


def test_surgery_trace_tags_entries_with_the_grope_index():
    result = run_surgery(small_kernel())
    assert {e["grope"] for e in result.trace} == {0, 1}
    ops = {e["op"] for e in result.trace}
    assert "contract" in ops


def test_surgery_rejects_invalid_kernels():
    husk = CappedGrope(None, {}, ())
    with pytest.raises(ValidationError, match="invalid kernel"):
        run_surgery(SurgeryKernel(0, (husk, husk), ((0, 1),)))


def test_surgery_refuses_a_pair_that_splits_unevenly():
    left = generate_kernel(1, labels=2).gropes[0]
    right = generate_kernel(3, labels=2).gropes[0]
    kernel = SurgeryKernel(2, (left, right), ((0, 1),))
    with pytest.raises(ValidationError) as exc:
        run_surgery(kernel)
    assert str(exc.value) == "gropes 0 and 1 are paired but split into 3 and 2 pieces"


def test_surgery_enforces_the_class_hypothesis():
    a = two_cap_grope(F, F)
    kernel = SurgeryKernel(1, (a, a), ((0, 1),))  # class 2 == labels + 1 is fine
    run_surgery(kernel)
    b = two_cap_grope(F, F)
    c = two_cap_grope(G, G)
    short = SurgeryKernel(2, (b, c), ((0, 1),))  # class 2 == labels: boundary
    with pytest.raises(HypothesisError, match="pass force"):
        run_surgery(short)


def test_forced_surgery_fails_honestly_on_adversarial_kernels():
    kernel = generate_kernel(3, labels=3, adversarial=True)
    with pytest.raises(HypothesisError):
        run_surgery(kernel)
    with pytest.raises(PigeonholeFailure):
        run_surgery(kernel, force=True)


def test_forced_surgery_can_still_succeed_when_values_repeat():
    a = two_cap_grope(F, F)
    b = two_cap_grope(G, G)
    kernel = SurgeryKernel(2, (a, a, b, b), ((0, 1), (2, 3)))
    result = run_surgery(kernel, force=True)  # boundary class, but values pair up
    assert result.stats["outputPi1Null"] is True


# ---------------------------------------------------------------------------
# replay


def test_replay_reproduces_the_surgery_exactly():
    kernel = generate_kernel(29, labels=3, pair_count=2, density=1.2)
    result = run_surgery(kernel)
    replayed = replay_trace(kernel, result.trace)
    assert [dumps_capped(g) for g in replayed] == [
        dumps_capped(g) for g in result.gropes
    ]


def test_surgery_replays_within_3x_its_time(capsys):
    """Replay keeps one state per grope across the sweep's contract and pushoff entries."""
    kernel = generate_kernel(26, labels=5, pair_count=1, density=1.2)
    start = time.perf_counter()
    result = run_surgery(kernel)
    surgery_s = time.perf_counter() - start
    start = time.perf_counter()
    replayed = replay_trace(kernel, result.trace)
    replay_s = time.perf_counter() - start
    points = sum(len(g.intersections) for g in result.gropes)
    assert (result.stats["pieceCount"], points, replayed) == (240, 6186, result.gropes)
    report(
        capsys,
        "replay of a surgery",
        replay_s < 3 * surgery_s,
        f"240 pieces, {points} points [{replay_s:.2f}s < 3 x {surgery_s:.2f}s]",
    )


def _forced_random_kernel(seed: int) -> SurgeryKernel:
    """Class-3 random gropes over two labels, each paired with itself."""
    rng = random.Random(seed)
    cg = random_capped_grope(rng, 3, [F, G], density=1.0)
    return SurgeryKernel(2, (cg, cg), ((0, 1),))


# name -> (kernel builder, force, sha256 of dumps_result or of the failure message)
SURGERY_GOLDEN = {
    "generated-s11": (
        lambda: generate_kernel(11, labels=2),
        False,
        "3921c0a262707be14811009e1228ee4c794e64ce8005379aaceb2696652ffeb9",
    ),
    "generated-s5-pairs": (
        lambda: generate_kernel(5, labels=3, pair_count=2, density=1.2),
        False,
        "faeb87fc705236c12dd0abf00dc041fc8d87c23c0e65b981be54397887c1197e",
    ),
    "generated-s8-dense": (
        lambda: generate_kernel(8, labels=4, density=0.7),
        False,
        "2d5f7655e2c1cfaa2a1f047ec25873363d9f4dc76b3bbe019e0770bbd4ab3155",
    ),
    "generated-s2-unlabeled": (
        lambda: generate_kernel(2, labels=0),
        False,
        "349c723c7ae44dc25159bd5d66860e306e34e7f83e597d29f02dca3fc750cfe1",
    ),
    "adversarial-s3": (
        lambda: generate_kernel(3, labels=3, adversarial=True),
        True,
        "62082fc156c1e72445fc70b692f318f9fb56948748709f5e58956e8d68dc2e6b",
    ),
    "adversarial-s17-pairs": (
        lambda: generate_kernel(17, labels=4, pair_count=2, adversarial=True),
        True,
        "aa649397a00daf4249cbad3be67e65ce89bda67151e00afb1475cab6fbd732af",
    ),
    "forced-random-s0": (
        lambda: _forced_random_kernel(0),
        True,
        "8381493c26459cb895beb70e4a9a8971171f34400e5222fa24535e2db7f7d348",
    ),
    "forced-random-s2": (
        lambda: _forced_random_kernel(2),
        True,
        "accec74024d325e2dbaa2168e8cb0d238e81fa68ca6d0aeb3e304ab016578a2b",
    ),
}


@pytest.mark.parametrize("name", sorted(SURGERY_GOLDEN))
def test_run_surgery_golden(name):
    build, force, digest = SURGERY_GOLDEN[name]
    kernel = build()
    try:
        result = run_surgery(kernel, force=force)
    except PigeonholeFailure as e:
        text = f"PigeonholeFailure: {e}"
    else:
        text = dumps_result(result)
        replayed = replay_trace(kernel, result.trace)
        assert [dumps_capped(g) for g in replayed] == [dumps_capped(g) for g in result.gropes]
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# the sweep against the per-piece loop


def _oracle_contract(cg, pair_index, cap_a, cap_b, *, piece=None, trace=None):
    """contract as a whole scan: every point is classified against the piece and remapped.

    Body paths through later pairs shift down by one at each contraction.
    """
    if cg.body is None:
        raise MoveError("nothing to contract: the body is fully surgered")
    for s in cg.spheres:
        if s.pending:
            raise MoveError(f"sphere {s.sphere_id!r} has a pending pushoff queue")
    root = cg.body.root
    caps_here = piece_caps(cg, pair_index)
    if not all(is_dyadic(slot) for slot in root.pairs[pair_index] if isinstance(slot, Stage)):
        raise NotDyadicError(
            f"pair {pair_index} heads a subtree with genus above 1; split stages first"
        )
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

    def in_piece(end):
        if isinstance(end, CapRef):
            return end.cap_id in caps_here
        if isinstance(end, BodyRef):
            return last_pair or (bool(end.path) and end.path[0][0] == pair_index)
        return False

    def remap(end):
        if isinstance(end, BodyRef) and end.path and end.path[0][0] > pair_index:
            (j, side), rest = end.path[0], end.path[1:]
            return BodyRef(((j - 1, side),) + rest)
        return end

    n = len(cg.spheres)
    taken = {p.point_id for p in cg.intersections} | {s.sphere_id for s in cg.spheres}
    while f"sph{n}" in taken:
        n += 1
    ref = SphereRef(f"sph{n}")
    kept, self_log, queued = [], [], []
    for p in cg.intersections:
        a_in, b_in = in_piece(p.end_a), in_piece(p.end_b)
        if a_in and b_in:
            kept.append(Intersection(p.point_id, ref, ref, IDENTITY))
            self_log.append({"point": p.point_id, "was": str(p.label), "result": "1"})
        elif a_in or b_in:
            # The label is stored as read from end A, and reads inverted from end B.
            other, label = (p.end_b, p.label.inverse()) if a_in else (p.end_a, p.label)
            queued.append(PendingPushoff(p.point_id, remap(other), label))
        else:
            kept.append(Intersection(p.point_id, remap(p.end_a), remap(p.end_b), p.label))
    pairs = root.pairs[:pair_index] + root.pairs[pair_index + 1 :]
    body = Grope(Stage(pairs), cg.body.closed) if pairs else None
    caps = {c: t for c, t in cg.caps.items() if c not in caps_here}
    piece = pair_index if piece is None else piece
    record = SphereRecord(ref.sphere_id, piece, cap_a, cap_b, GroupWord(key_a), tuple(queued))
    if trace is not None:
        trace.append(
            {
                "op": "contract",
                "pairIndex": pair_index,
                "piece": piece,
                "capA": cap_a,
                "capB": cap_b,
                "label": str(record.label),
                "sphere": ref.sphere_id,
                "selfPoints": self_log,
                "queued": [q.point_id for q in queued],
            }
        )
    return CappedGrope(body, caps, tuple(kept), cg.spheres + (record,)), record


def _oracle_pushoff(cg, sphere_id, *, trace=None):
    """pushoff as a whole scan: two identity copies per queued point, named past every id."""
    record = sphere_record(cg, sphere_id)
    if not record.pending:
        return cg
    taken = {p.point_id for p in cg.intersections}
    made, logged = [], []
    for q in record.pending:
        created = []
        for k in (1, 2):
            name, m = f"{q.point_id}.{k}", 0
            while name in taken:
                m += 1
                name = f"{q.point_id}.{k}.{m}"
            taken.add(name)
            made.append(Intersection(name, q.other, SphereRef(sphere_id), IDENTITY))
            created.append(name)
        logged.append(
            {"from": q.point_id, "hadLabel": str(q.label), "created": created, "result": "1"}
        )
    spheres = tuple(
        SphereRecord(s.sphere_id, s.piece, s.cap_a, s.cap_b, s.label, ())
        if s.sphere_id == sphere_id
        else s
        for s in cg.spheres
    )
    if trace is not None:
        trace.append({"op": "pushoff", "sphere": sphere_id, "points": logged})
    return CappedGrope(cg.body, cg.caps, cg.intersections + tuple(made), spheres)


def _oracle_run_surgery(kernel, *, force=False, limits=None):
    """run_surgery as the per-piece loop over find_duplicate_pair and the oracle moves.

    Every piece is found, contracted and pushed off as pair 0 of the grope
    left by the previous piece, rescanning every point each time.
    """
    problems = validate_kernel(kernel)
    if problems:
        raise ValidationError("invalid kernel: " + "; ".join(problems))
    report = check_hypotheses(kernel)
    if not report.ok and not force:
        raise HypothesisError(
            f"kernel has {report.label_count} label values but class "
            f"{report.min_class} < {report.required_class}; pass force to attempt anyway"
        )
    trace, husks, genera = [], [], []
    for gi, cg in enumerate(kernel.gropes):
        steps = []
        work = full_split(cg, limits=limits, trace=steps)
        genus = work.body.root.genus
        genera.append(genus)
        for ordinal in range(genus):
            cap_a, cap_b = find_duplicate_pair(
                work, 0, piece_name=f"grope {gi} piece {ordinal}"
            )
            work, sphere = _oracle_contract(work, 0, cap_a, cap_b, piece=ordinal, trace=steps)
            work = _oracle_pushoff(work, sphere.sphere_id, trace=steps)
        husks.append(work)
        trace.extend({"grope": gi, **entry} for entry in steps)
    pairs = []
    for i, j in kernel.hyperbolic_pairs:
        left, right = husks[i].spheres, husks[j].spheres
        if len(left) != len(right):
            raise ValidationError(
                f"gropes {i} and {j} are paired but split into "
                f"{len(left)} and {len(right)} pieces"
            )
        pairs.extend(((i, a.sphere_id), (j, b.sphere_id)) for a, b in zip(left, right))
    stats = {
        "labelCount": report.label_count,
        "minClass": report.min_class,
        "firstStageGenus": genera,
        "pieceCount": sum(genera),
        "spherePairCount": len(pairs),
        "outputPi1Null": all(is_pi1_null(h) for h in husks),
    }
    return SurgeryResult(tuple(husks), tuple(pairs), tuple(trace), stats)


def _outcome(run, kernel, force):
    """dumps_result of the run, or the type and message of its error."""
    try:
        return dumps_result(run(kernel, force=force))
    except GropeError as e:
        return f"{type(e).__name__}: {e}"


def _matches_oracle(kernel, force=False):
    """The sweep's outcome, after checking it against the per-piece loop."""
    before = dumps_kernel(kernel)
    got = _outcome(run_surgery, kernel, force)
    assert got == _outcome(_oracle_run_surgery, kernel, force)
    assert dumps_kernel(kernel) == before
    return got


surgery_inputs = st.one_of(
    st.builds(
        lambda seed, labels, pairs, density: generate_kernel(
            seed, labels=labels, pair_count=pairs, density=density
        ),
        st.integers(0, 2**32 - 1),
        st.integers(0, 3),
        st.integers(1, 2),
        st.floats(0.3, 1.2),
    ),
    st.builds(
        lambda seed, labels, pairs: generate_kernel(
            seed, labels=labels, pair_count=pairs, adversarial=True
        ),
        st.integers(0, 2**32 - 1),
        st.integers(2, 4),
        st.integers(1, 2),
    ),
    st.builds(_forced_random_kernel, st.integers(0, 2**32 - 1)),
)


@settings(max_examples=60, deadline=None)
@given(surgery_inputs, st.booleans())
def test_run_surgery_matches_the_per_piece_loop(kernel, force):
    _matches_oracle(kernel, force)


def _genus2_kernel(points, spheres=()):
    """A genus-2 class-2 first stage, caps c1..c4 on t1..t4, paired with itself.

    Piece 0 holds c1 and c2, piece 1 holds c3 and c4; full_split leaves it
    alone when every cap carries one value.
    """
    body = Grope(Stage(((Tip("t1"), Tip("t2")), (Tip("t3"), Tip("t4")))))
    caps = {f"c{k}": f"t{k}" for k in range(1, 5)}
    cg = CappedGrope(body, caps, tuple(points), tuple(spheres))
    return SurgeryKernel(2, (cg, cg), ((0, 1),))


def _self(point_id, cap, label=F):
    return Intersection(point_id, CapRef(cap), CapRef(cap), label)


def _grope0_steps(result, op):
    return [e for e in result.trace if e["grope"] == 0 and e["op"] == op]


def _husk_points(result):
    return {p.point_id: (p.end_a, p.end_b) for p in result.gropes[0].intersections}


def test_sweep_consumes_first_stage_points_at_the_last_piece():
    kernel = _genus2_kernel(
        [Intersection("b0", CapRef("c1"), BodyRef(()), F), _self("s2", "c2")]
    )
    _matches_oracle(kernel)
    result = run_surgery(kernel)
    first, last = _grope0_steps(result, "contract")
    assert first["queued"] == ["b0"]
    assert last["queued"] == ["b0.1", "b0.2"]
    both = (SphereRef("sph0"), SphereRef("sph1"))
    for name in ("b0.1.1", "b0.1.2", "b0.2.1", "b0.2.2"):
        assert _husk_points(result)[name] == both


def test_sweep_requeues_pushoff_copies_on_a_later_piece():
    kernel = _genus2_kernel(
        [
            Intersection("i1", CapRef("c1"), CapRef("c3"), F),
            _self("i2", "c2"),
            _self("i3", "c3"),
            _self("i4", "c4"),
        ]
    )
    _matches_oracle(kernel)
    result = run_surgery(kernel)
    first, last = _grope0_steps(result, "contract")
    assert first["queued"] == ["i1"] and last["queued"] == ["i1.1", "i1.2"]
    created = [c for e in _grope0_steps(result, "pushoff") for p in e["points"] for c in p["created"]]
    assert created == ["i1.1", "i1.2", "i1.1.1", "i1.1.2", "i1.2.1", "i1.2.2"]


def test_sweep_names_around_ids_already_in_use():
    kernel = _genus2_kernel(
        [
            Intersection("i3", CapRef("c1"), CapRef("c3"), F),
            _self("i3.1", "c4"),
            _self("sph0", "c2"),
            _self("i5", "c3"),
        ]
    )
    _matches_oracle(kernel)
    result = run_surgery(kernel)
    assert [s.sphere_id for s in result.gropes[0].spheres] == ["sph1", "sph2"]
    created = [c for e in _grope0_steps(result, "pushoff") for p in e["points"] for c in p["created"]]
    assert created[:2] == ["i3.1.1", "i3.2"]
    assert _husk_points(result)["sph0"] == (SphereRef("sph1"), SphereRef("sph1"))


def test_sweep_reads_a_reused_id_as_its_newest_point():
    """Piece 0 queues i1.1, and a copy of i1 takes its id; the old point stays in a bucket."""
    kernel = _genus2_kernel(
        [
            Intersection("i1", CapRef("c1"), CapRef("c3"), F),
            Intersection("i1.1", CapRef("c2"), BodyRef(()), F),
            _self("i3", "c3"),
            _self("i4", "c4"),
        ]
    )
    _matches_oracle(kernel)
    first, last = _grope0_steps(run_surgery(kernel), "contract")
    assert first["queued"] == ["i1", "i1.1"]
    assert last["queued"] == ["i1.1", "i1.1.1", "i1.1.2", "i1.2"]
    assert [p["point"] for p in last["selfPoints"]] == ["i3", "i4"]


def test_sweep_numbers_spheres_after_the_input_spheres():
    old = SphereRecord("sph1", 0, "a", "b", F)
    kernel = _genus2_kernel(
        [
            Intersection("i1", CapRef("c1"), SphereRef("sph1"), F),
            _self("i2", "c2"),
            Intersection("i3", SphereRef("sph1"), SphereRef("sph1"), G),
        ],
        spheres=[old],
    )
    _matches_oracle(kernel, force=True)
    result = run_surgery(kernel, force=True)
    husk = result.gropes[0]
    assert [s.sphere_id for s in husk.spheres] == ["sph1", "sph2", "sph3"]
    points = _husk_points(result)
    assert points["i3"] == (SphereRef("sph1"), SphereRef("sph1"))
    assert points["i1.1"] == (SphereRef("sph1"), SphereRef("sph2"))


def test_sweep_refuses_a_pending_input_sphere_after_the_first_pair_search():
    pending = (PendingPushoff("q", CapRef("c3"), F),)
    old = SphereRecord("s", 0, "a", "b", F, pending)
    kernel = _genus2_kernel([_self("i1", "c1"), _self("i2", "c2")], spheres=[old])
    assert _matches_oracle(kernel) == (
        "MoveError: sphere 's' has a pending pushoff queue"
    )
    with pytest.raises(MoveError, match="pending pushoff"):
        run_surgery(kernel)
    # With no pair on piece 0 the pair search fails first, as in the loop.
    unpaired = _genus2_kernel([_self("i1", "c1"), _self("i2", "c2", G)], spheres=[old])
    assert _matches_oracle(unpaired, force=True).startswith(
        "PigeonholeFailure: grope 0 piece 0"
    )


def test_sweep_on_genus_one_gropes_takes_every_body_point():
    body, _ = dyadic_tower(3)
    caps = {"c1": "t1", "c2": "t2", "c3": "t3"}
    points = (
        Intersection("i1", CapRef("c1"), BodyRef(()), F),
        Intersection("i2", BodyRef(((0, 1),)), CapRef("c2"), F),
        _self("i3", "c3"),
    )
    cg = CappedGrope(body, caps, points)
    kernel = SurgeryKernel(1, (cg, cg), ((0, 1),))
    _matches_oracle(kernel)
    result = run_surgery(kernel)
    (entry,) = _grope0_steps(result, "contract")
    assert [p["point"] for p in entry["selfPoints"]] == ["i1", "i2", "i3"]
    assert entry["queued"] == [] and _grope0_steps(result, "pushoff") == []


def test_sweep_leaves_its_input_unchanged():
    kernel = generate_kernel(5, labels=3, pair_count=2, density=1.2)
    points = [cg.intersections for cg in kernel.gropes]
    _matches_oracle(kernel)
    assert [cg.intersections for cg in kernel.gropes] == points
    # full_split returns this grope as it is, so the sweep sees the input itself.
    unsplit = _genus2_kernel(
        [Intersection("b0", CapRef("c1"), BodyRef(()), F), _self("s2", "c2")]
    )
    cg = unsplit.gropes[0]
    assert full_split(cg) is cg
    kept = cg.intersections
    _matches_oracle(unsplit)
    assert cg.intersections is kept and cg.spheres == () and cg.caps == {
        f"c{k}": f"t{k}" for k in range(1, 5)
    }


def _contract_and_push(moves, cg, pair_index, trace):
    """The grope after contracting pair pair_index along its first duplicate pair, and after pushoff."""
    contract_move, pushoff_move = moves
    cap_a, cap_b = find_duplicate_pair(cg, pair_index)
    mid, sphere = contract_move(cg, pair_index, cap_a, cap_b, trace=trace)
    return mid, pushoff_move(mid, sphere.sphere_id, trace=trace)


@pytest.mark.parametrize("pair_index", [0, 1, 2])
def test_contract_at_every_pair_matches_the_whole_scan(pair_index):
    cg = split_genus3_grope()
    assert full_split(cg) is cg
    got_trace, want_trace = [], []
    got = _contract_and_push((contract, pushoff), cg, pair_index, got_trace)
    want = _contract_and_push((_oracle_contract, _oracle_pushoff), cg, pair_index, want_trace)
    assert [dumps_capped(g) for g in got] == [dumps_capped(g) for g in want]
    assert got_trace == want_trace


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))), ids=str)
def test_replay_contracts_the_pieces_in_any_order_on_one_state(order):
    """Every prefix of a trace that contracts the pieces in this order replays to the oracle's grope."""
    work = split_genus3_grope()
    kernel = SurgeryKernel(2, (work,), ())
    trace, left, want = [], list(range(3)), {0: work}
    for piece in order:
        pair_index = left.index(piece)
        left.remove(piece)
        cap_a, cap_b = find_duplicate_pair(work, pair_index)
        work, sphere = _oracle_contract(work, pair_index, cap_a, cap_b, piece=piece, trace=trace)
        want[len(trace)] = work
        work = _oracle_pushoff(work, sphere.sphere_id, trace=trace)
        want[len(trace)] = work
    assert work.body is None and len(trace) == 6
    entries = [{"grope": 0, **e} for e in trace]
    for n, grope in want.items():
        assert [dumps_capped(g) for g in replay_trace(kernel, entries[:n])] == [dumps_capped(grope)]


def test_replay_splits_after_a_contraction_on_the_same_grope():
    """A split after a contraction first renumbers the body paths, in replay as in the moves."""
    body = Grope(
        Stage(((Tip("t1"), Tip("t2")), (Tip("t3"), Stage(((Tip("t4"), Tip("t5")),)))))
    )
    caps = {f"c{k}": f"t{k}" for k in range(1, 6)}
    points = (
        _self("i1", "c1"),
        _self("i2", "c2"),
        Intersection("b1", CapRef("c1"), BodyRef(((1, 1),)), F),
        _self("i4", "c4", F),
        _self("i5", "c4", G),
    )
    cg = CappedGrope(body, caps, points)
    trace: list = []
    work, sphere = contract(cg, 0, "c1", "c2", trace=trace)
    work = pushoff(work, sphere.sphere_id, trace=trace)
    work = split_cap(work, "c4", trace=trace)
    assert [e["op"] for e in trace] == ["contract", "pushoff", "split_cap"]
    assert trace[2]["stage"] == [[0, "beta"]]
    stage = BodyRef(((0, 1),))
    assert {p.point_id: p.end_a for p in work.intersections if p.point_id.startswith("b1")} == {
        "b1.1": stage,
        "b1.2": stage,
    }
    replayed = replay_trace(SurgeryKernel(2, (cg,), ()), [{"grope": 0, **e} for e in trace])
    assert [dumps_capped(g) for g in replayed] == [dumps_capped(work)]


def test_a_value_that_reaches_a_cap_through_a_pushoff_splits_it():
    """A split reads the values pushoff copies put on a cap, in replay as in the moves."""
    body = Grope(
        Stage(((Tip("t1"), Stage(((Tip("t5"), Tip("t6")),))), (Tip("t3"), Tip("t4"))))
    )
    caps = {f"c{k}": f"t{k}" for k in (1, 5, 6, 3, 4)}
    points = tuple(_self(f"i{k}", f"c{k}", G if k == 3 else F) for k in (1, 5, 6, 3, 4))
    points += (Intersection("i2", BodyRef(((0, 1),)), CapRef("c3"), G),)
    cg = CappedGrope(body, caps, points)
    trace: list = []
    work, sphere = contract(cg, 0, "c1", "c5", trace=trace)
    work = pushoff(work, sphere.sphere_id, trace=trace)
    work = split_cap(work, "c3", trace=trace)
    assert [e["op"] for e in trace] == ["contract", "pushoff", "split_cap"]
    on_cap: dict = {}
    for p in work.intersections:
        for end in {p.end_a, p.end_b}:
            if type(end) is CapRef and end.cap_id.startswith("c3"):
                on_cap.setdefault(end.cap_id, []).append(p.point_id)
    assert on_cap == {"c3.1": ["i2.1", "i2.2"], "c3.2": ["i3"]}
    replayed = replay_trace(SurgeryKernel(2, (cg,), ()), [{"grope": 0, **e} for e in trace])
    assert [dumps_capped(g) for g in replayed] == [dumps_capped(work)]


def test_replay_rejects_unknown_ops():
    kernel = small_kernel()
    with pytest.raises(ValidationError, match="unknown trace op"):
        replay_trace(kernel, [{"grope": 0, "op": "teleport"}])


@pytest.mark.parametrize(
    "stage, where",
    [([[0, "gamma"]], "trace[0].stage[0]"), ("0a", "trace[0].stage"), ([[0]], "trace[0].stage[0]")],
    ids=["unknown-side", "string", "short-step"],
)
def test_replay_refuses_a_malformed_stage_path(stage, where):
    with pytest.raises(GropeError) as exc:
        replay_trace(small_kernel(), [{"grope": 0, "op": "split_stage", "stage": stage}])
    message = str(exc.value)
    assert message.startswith(f"{where}: expected ") and "\n" not in message


_CONTRACT = {"grope": 1, "op": "contract", "pairIndex": 0, "capA": "c1", "capB": "c3", "piece": 0}


def _two_valued_kernel() -> SurgeryKernel:
    """Two copies of a grope whose cap c3 carries two values; its dual is a stage."""
    cg = stage_dual_grope()
    return SurgeryKernel(2, (cg, cg), ((0, 1),))


# The split of c3 as full_split records it: its tip t3 is the beta slot of
# pair 0 of the first stage.
_SPLIT_CAP = {"grope": 0, "op": "split_cap", "cap": "c3", "stage": [], "pair": 0}


def test_replay_applies_split_cap_at_its_recorded_pair():
    """The entry the malformed-entry cases mutate is the one full_split writes first."""
    kernel = _two_valued_kernel()
    trace: list = []
    full_split(kernel.gropes[0], trace=trace)
    assert {**trace[0], "grope": 0} == {**trace[0], **_SPLIT_CAP}
    assert replay_trace(kernel, [_SPLIT_CAP])[0] == split_cap(kernel.gropes[0], "c3")


@pytest.mark.parametrize(
    "entry, where",
    [
        (5, "trace[0]"),
        ({"op": "pushoff", "sphere": "sph0"}, "trace[0].grope"),
        ({"grope": "0", "op": "pushoff", "sphere": "sph0"}, "trace[0].grope"),
        ({"grope": True, "op": "pushoff", "sphere": "sph0"}, "trace[0].grope"),
        ({"grope": 9, "op": "pushoff", "sphere": "sph0"}, "trace[0].grope"),
        ({"grope": -1, "op": "pushoff", "sphere": "sph0"}, "trace[0].grope"),
        ({"grope": 0}, "trace[0].op"),
        ({"grope": 0, "op": "split_cap"}, "trace[0].cap"),
        ({"grope": 0, "op": "split_cap", "cap": 3}, "trace[0].cap"),
        ({**_SPLIT_CAP, "pair": 1}, "trace[0]"),
        ({**_SPLIT_CAP, "pair": -1}, "trace[0]"),
        ({**_SPLIT_CAP, "stage": [[0, "alpha"]]}, "trace[0]"),
        ({**_SPLIT_CAP, "stage": [[0, "beta"]]}, "trace[0]"),
        ({**_SPLIT_CAP, "stage": [[1, "alpha"]]}, "trace[0]"),
        ({**_SPLIT_CAP, "stage": [[0, "alpha"], [0, "alpha"], [0, "beta"]]}, "trace[0]"),
        ({**_SPLIT_CAP, "cap": "c1", "stage": [[9, "beta"]], "pair": 7}, "trace[0]"),
        ({k: v for k, v in _SPLIT_CAP.items() if k != "stage"}, "trace[0].stage"),
        ({**_SPLIT_CAP, "stage": 0}, "trace[0].stage"),
        ({k: v for k, v in _SPLIT_CAP.items() if k != "pair"}, "trace[0].pair"),
        ({**_SPLIT_CAP, "pair": "0"}, "trace[0].pair"),
        ({**_SPLIT_CAP, "pair": False}, "trace[0].pair"),
        ({**_CONTRACT, "pairIndex": "0"}, "trace[0].pairIndex"),
        ({**_CONTRACT, "capA": None}, "trace[0].capA"),
        ({**_CONTRACT, "capB": ["c3"]}, "trace[0].capB"),
        ({k: v for k, v in _CONTRACT.items() if k != "piece"}, "trace[0].piece"),
        ({"grope": 0, "op": "pushoff", "sphere": {}}, "trace[0].sphere"),
    ],
    ids=[
        "not-an-object",
        "no-grope",
        "string-grope",
        "bool-grope",
        "grope-past-the-end",
        "negative-grope",
        "no-op",
        "no-cap",
        "int-cap",
        "pair-past-the-end",
        "negative-pair",
        "pair-without-the-tip",
        "stage-at-a-tip",
        "stage-off-the-tree",
        "stage-through-a-tip",
        "one-valued-cap-off-the-tree",
        "no-stage",
        "int-stage",
        "no-pair",
        "string-pair",
        "bool-pair",
        "string-pair-index",
        "null-cap-a",
        "list-cap-b",
        "no-piece",
        "object-sphere",
    ],
)
def test_replay_refuses_a_malformed_entry(entry, where):
    kernel = _two_valued_kernel()
    assert len(kernel.gropes) == 2
    # A stage path is read as a document path; every other refusal is a ValidationError.
    error = ParseError if where.startswith("trace[0].stage") else ValidationError
    with pytest.raises(error) as exc:
        replay_trace(kernel, [entry])
    message = str(exc.value)
    assert message.startswith(f"{where}: ") and "\n" not in message


def test_replay_names_the_entry_it_refuses():
    result = run_surgery(small_kernel())
    with pytest.raises(ValidationError, match=r"^trace\[2\]\.grope: "):
        replay_trace(small_kernel(), [*result.trace[:2], {**result.trace[0], "grope": -1}])


@pytest.mark.parametrize(
    "entry, error, message",
    [
        (
            {**_CONTRACT, "grope": 0, "pairIndex": -1},
            ValidationError,
            "no pair -1 at a genus-1 first stage",
        ),
        (
            {"grope": 0, "op": "pushoff", "sphere": "nope"},
            ValidationError,
            "unknown sphere 'nope'",
        ),
        ({**_SPLIT_CAP, "cap": "zz"}, ValidationError, "unknown cap 'zz'"),
        (
            {"grope": 0, "op": "split_stage", "stage": [[5, "alpha"]]},
            ValidationError,
            "no pair 5 at a genus-1 stage",
        ),
        (
            {"grope": 0, "op": "split_stage", "stage": []},
            RewriteError,
            "the first stage is never split; it absorbs the genus",
        ),
    ],
    ids=[
        "contract-negative-pair",
        "pushoff-unknown-sphere",
        "split-unknown-cap",
        "split-stage-off-the-tree",
        "split-first-stage",
    ],
)
def test_replay_names_the_entry_of_a_failing_move(entry, error, message):
    """A move's own error keeps its type and gains the entry's index, on one line."""
    kernel = small_kernel()
    trace = [run_surgery(kernel).trace[1], entry]  # grope 1's contraction replays first
    with pytest.raises(error) as exc:
        replay_trace(kernel, trace)
    assert type(exc.value) is error and str(exc.value) == f"trace[1]: {message}"


# ---------------------------------------------------------------------------
# generators


def test_generate_kernel_is_deterministic():
    a = generate_kernel(42, labels=3, pair_count=2, density=0.7)
    b = generate_kernel(42, labels=3, pair_count=2, density=0.7)
    assert [dumps_capped(g) for g in a.gropes] == [dumps_capped(g) for g in b.gropes]
    assert a.hyperbolic_pairs == b.hyperbolic_pairs
    c = generate_kernel(43, labels=3, pair_count=2, density=0.7)
    assert [dumps_capped(g) for g in a.gropes] != [dumps_capped(g) for g in c.gropes]


# name -> (generate_kernel arguments, sha256 of dumps_kernel of its kernel)
GENERATOR_GOLDEN = {
    "labels-0": (
        dict(seed=2, labels=0, density=0.5, pair_count=2),
        "9c23844c8cbe210e6de761710549c2a3547b4f4d6bb2700f126bb85f1c7eb948",
    ),
    "labels-2": (
        dict(seed=11, labels=2),
        "a673839563dcfc90d7f1a331b5da34579ee81969a9173295854bc141b06335ac",
    ),
    "labels-5": (
        dict(seed=4, labels=5),
        "98a1a68a6de7486f28a06d35d2e5915681ee4c1e864a88529cbe5d692c9b7c09",
    ),
    "density-0": (
        dict(seed=6, labels=0, density=0.0, pair_count=2),
        "176fcf6402668ca08e2cf32fcbaad5bbc9d36c2c6c644cac19ea82539ffe924e",
    ),
    "density-1.2": (
        dict(seed=5, labels=3, density=1.2),
        "39133d029d47c74efde7778c43796900c49847888266a9834c3dd7931a3382b6",
    ),
    "class-above": (
        dict(seed=9, labels=2, grope_class=5),
        "18776886bc5881b97e1afb297e6ebcf09df74becda3b51238d3e3ec1a64367f7",
    ),
    "pairs-3": (
        dict(seed=9, labels=2, pair_count=3),
        "6c89e89750430f76bd317d8831ea7d8d2c896d839518938a8a3743a13ef11d28",
    ),
    "adversarial-pairs-2": (
        dict(seed=17, labels=4, pair_count=2, adversarial=True),
        "d0c60c3d606fa8296e04d8868f8ecd73193cb1ddb337bbbe0c9f40dae1db40f1",
    ),
}

# genus -> sha256 of the grope document of random_grope(Random(genus), 4, genus=genus)
RANDOM_GROPE_GOLDEN = {
    1: "c7ed2d67e55aeb020be29a11c47d0dc3f02599b693daf872969ee3a6100347df",
    2: "635afa3799172c2c3408ea31a9c386d328391a5a1b7a9bff52bd62dc2aa540b3",
    3: "14c0365b5f77bffc4e95c494a4bd99c66ea9c0dafb7515769fc57851c35e8230",
}


@pytest.mark.parametrize("name", sorted(GENERATOR_GOLDEN))
def test_generate_kernel_golden(name):
    kwargs, digest = GENERATOR_GOLDEN[name]
    text = dumps_kernel(generate_kernel(**kwargs))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("genus", sorted(RANDOM_GROPE_GOLDEN))
def test_random_grope_golden(genus):
    text = canonical_dumps(random_grope(random.Random(genus), 4, genus=genus))
    assert hashlib.sha256(text.encode()).hexdigest() == RANDOM_GROPE_GOLDEN[genus]


def test_random_stage_lists_its_tips_and_stage_paths_in_traversal_order():
    """Body-ended points draw from these lists, so their order is part of the generators' output."""
    for seed in range(60):
        tip_ids, stage_paths = [], []
        stage = _random_stage(random.Random(seed), 6, 1 + seed % 3, tip_ids, stage_paths)
        assert tip_ids == tips(stage)
        assert stage_paths == [path for path, _ in iter_stages(stage)]


def test_split_and_surgery_leave_no_reference_cycles():
    """Their state is freed when each call returns, not by a later full collection.

    A cycle anywhere in the rewrite state, or a walk that closes over
    itself, leaves garbage that only the cyclic collector finds.  The depth
    path (parse, build the grope, read its boundary word, take its depth)
    is held to the same.
    """
    kernel = generate_kernel(1, labels=3, pair_count=2)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for cg in kernel.gropes:
            full_split(cg)
        run_surgery(kernel)
        for text in ("[[x1,x2],x3]", "[[x1,x2],[x3,x4]]", "[x1,x2][x2^-1,[x3,x1]]"):
            grope, assignment = grope_from_expression(parse_expression(text))
            lcs_depth(boundary_word(grope), 5)
            boundary_word(grope, assignment)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_generate_kernel_defaults_to_the_minimal_class():
    for labels in (0, 1, 2, 3):
        kernel = generate_kernel(7, labels=labels)
        report = check_hypotheses(kernel)
        assert report.ok
        assert report.min_class == max(labels + 1, 2)
        assert report.label_count <= labels


def test_generate_kernel_builds_dual_pairs():
    kernel = generate_kernel(9, labels=2, pair_count=3)
    assert len(kernel.gropes) == 6
    assert kernel.hyperbolic_pairs == ((0, 1), (2, 3), (4, 5))
    for i, j in kernel.hyperbolic_pairs:
        assert dumps_capped(kernel.gropes[i]) == dumps_capped(kernel.gropes[j])
    assert validate_kernel(kernel) == []


def test_generate_kernel_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        generate_kernel(1, labels=-1)
    with pytest.raises(ValidationError):
        generate_kernel(1, labels=0, grope_class=1)
    with pytest.raises(ValidationError):
        generate_kernel(1, labels=1, adversarial=True)
    with pytest.raises(ValidationError):
        generate_kernel(1, labels=3, grope_class=4, adversarial=True)


def test_generators_refuse_counts_below_one_instead_of_rounding_up():
    for pair_count in (0, -5):
        with pytest.raises(ValidationError, match=f"pair count must be >= 1, got {pair_count}"):
            generate_kernel(1, labels=2, pair_count=pair_count)
    with pytest.raises(ValidationError, match="genus must be >= 1, got 0"):
        random_grope(random.Random(1), 3, genus=0)
    # The label count is still checked first.
    with pytest.raises(ValidationError, match="label count must be >= 0, got -1"):
        generate_kernel(1, labels=-1, pair_count=0)


def test_expected_tips_track_the_generator():
    for labels in (2, 6):
        got = [len(tips(generate_kernel(seed, labels=labels).gropes[0].body)) for seed in range(300)]
        expected = _expected_tips(labels + 1, adversarial=False)
        assert abs(sum(got) / len(got) - expected) < 0.1 * expected
    chain = generate_kernel(1, labels=5, adversarial=True).gropes[0]
    assert len(tips(chain.body)) == _expected_tips(5, adversarial=True) == 5


def test_generate_kernel_refuses_from_the_predicted_size(monkeypatch):
    monkeypatch.setattr(pipeline_module, "_MAX_GENERATED_TIPS", 100)
    with pytest.raises(ValidationError, match="2 gropes of class 41 would hold about"):
        generate_kernel(1, labels=40)
    with pytest.raises(ValidationError, match="20 gropes of class 4 would hold about 147 tips"):
        generate_kernel(1, labels=3, pair_count=10)
    with pytest.raises(ValidationError, match="at least 400 tips, over the bound 100"):
        generate_kernel(1, labels=2, grope_class=200)
    with pytest.raises(ValidationError, match="200 labels are over the bound 100"):
        generate_kernel(1, labels=200, grope_class=3)
    assert len(generate_kernel(1, labels=3, pair_count=2).gropes) == 4


def test_adversarial_kernels_put_one_distinct_value_on_every_cap():
    kernel = generate_kernel(17, labels=4, adversarial=True)
    report = check_hypotheses(kernel)
    assert report.label_count == 4
    assert report.min_class == 4
    assert report.boundary_ok and not report.ok
    for cg in kernel.gropes:
        values = [p.label for p in cg.intersections]
        assert len({v for v in values}) == len(values) == len(cg.caps)


def test_surgery_succeeds_across_seeds_and_sizes():
    for seed in range(25):
        rng = random.Random(seed)
        labels = rng.randint(1, 3)
        kernel = generate_kernel(
            seed,
            labels=labels,
            pair_count=rng.randint(1, 2),
            density=rng.uniform(0.3, 1.2),
        )
        assert validate_kernel(kernel) == []
        result = run_surgery(kernel)
        assert result.stats["outputPi1Null"] is True
        replayed = replay_trace(kernel, result.trace)
        assert [dumps_capped(g) for g in replayed] == [
            dumps_capped(g) for g in result.gropes
        ]


def test_random_grope_has_the_requested_class_and_genus():
    rng = random.Random(0)
    for _ in range(50):
        c = rng.randint(2, 6)
        genus = rng.randint(1, 3)
        g = random_grope(rng, c, genus=genus)
        assert class_of(g) == c
        assert g.root.genus == genus
    with pytest.raises(ValidationError):
        random_grope(rng, 1)


def test_random_capped_grope_caps_every_tip_and_labels_every_cap():
    rng = random.Random(4)
    for _ in range(25):
        cg = random_capped_grope(rng, rng.randint(2, 5), [F, G], density=0.5)
        assert sorted(cg.caps.values()) == sorted(tips(cg.body))
        touched = set()
        for p in cg.intersections:
            for end in (p.end_a, p.end_b):
                if isinstance(end, CapRef):
                    touched.add(end.cap_id)
        assert touched == set(cg.caps)


def test_random_capped_grope_with_no_labels_has_no_points():
    cg = random_capped_grope(random.Random(1), 3, [])
    assert cg.intersections == ()
