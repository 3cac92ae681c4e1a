"""Acceptance gate: one test per top-level guarantee, at full stated size.

Every test prints exactly one PASS/FAIL line (bypassing capture) with the
sizes it ran and the time it took against its budget, then asserts.  These
are the binding end-to-end checks; the per-module files cover the details.
"""

import itertools
import json
import random
import sys
import time

sys.path.insert(0, "tests")  # the oracle lives next to the tests

import pytest

from gropes import (
    CappedGrope,
    CapRef,
    Depth,
    Grope,
    GroupWord,
    Intersection,
    Stage,
    Tip,
    boundary_word,
    class_of,
    contract,
    dumps_capped,
    dumps_kernel,
    dumps_result,
    evaluate,
    full_split,
    generate_kernel,
    generator,
    grope_from_expression,
    is_pi1_null,
    iter_stages,
    label_keys,
    lcs_depth,
    loads_document,
    parse_expression,
    pushoff,
    random_grope,
    run_surgery,
    tips,
    validate_capped,
    value_keys_by_cap,
)
from conftest import dumps_grope, dyadic_tower, is_dyadic, random_capped_grope, report
from gropes.cli import main
from gropes.errors import GrowthLimitError, PigeonholeFailure
from magnus_oracle import depth_oracle, left_normed_letters, magnus_oracle, poly_mul


def dyadic_shapes(k, fresh):
    """All genus-1-everywhere tree shapes of class exactly k."""
    if k == 1:
        yield Tip(f"t{next(fresh)}")
        return
    for a in range(1, k):
        for left in dyadic_shapes(a, fresh):
            for right in dyadic_shapes(k - a, fresh):
                yield Stage(((left, right),))


def random_dyadic_slot(rng, k, fresh):
    if k == 1:
        return Tip(f"t{next(fresh)}")
    a = rng.randint(1, k - 1)
    return Stage(
        ((random_dyadic_slot(rng, a, fresh), random_dyadic_slot(rng, k - a, fresh)),)
    )


def test_cap_count_law(capsys):
    """A dyadic class-k grope has exactly k tips, over every tree shape."""
    start = time.perf_counter()
    exhaustive = 0
    for k in range(2, 9):
        for root in dyadic_shapes(k, itertools.count(1)):
            g = Grope(root)
            assert is_dyadic(g)
            assert (class_of(g), len(tips(g))) == (k, k)
            exhaustive += 1
    rng = random.Random(401)
    sampled = 0
    for k in range(9, 13):
        for _ in range(30):
            g = Grope(Stage(((random_dyadic_slot(rng, k - 1, itertools.count(1)),
                              Tip("t0")),)))
            assert is_dyadic(g)
            assert (class_of(g), len(tips(g))) == (k, k)
            sampled += 1
    elapsed = time.perf_counter() - start
    report(
        capsys,
        "cap-count law",
        elapsed < 1.0,
        f"tips == class on {exhaustive} exhaustive shapes (class <= 8) "
        f"and {sampled} sampled (class <= 12) [{elapsed:.2f}s < 1s]",
    )


def test_genus_growth_law(capsys):
    """n values on every cap of a class-k tower: first-stage genus n^k."""
    start = time.perf_counter()
    checked = []
    for n in (1, 2, 3):
        for k in range(2, 6):
            body, _ = dyadic_tower(k)
            assert is_dyadic(body) and class_of(body) == k
            caps = {f"c{i}": t for i, t in enumerate(tips(body), start=1)}
            pts = tuple(
                Intersection(f"p{i}_{j}", CapRef(c), CapRef(c), generator(j))
                for i, c in enumerate(caps, start=1)
                for j in range(1, n + 1)
            )
            out = full_split(CappedGrope(body, caps, pts))
            assert validate_capped(out) == []
            got = out.body.root.genus
            assert got == n**k, f"n={n} k={k}: genus {got} != {n ** k}"
            checked.append((n, k))
    elapsed = time.perf_counter() - start
    report(
        capsys,
        "genus-growth law",
        elapsed < 10.0,
        f"first-stage genus == n^k on {len(checked)} towers, "
        f"n in 1..3, class in 2..5, up to genus {3 ** 5} [{elapsed:.2f}s < 10s]",
    )


def test_split_postconditions(capsys):
    """Full splitting normalizes every cap and stage without changing class."""
    start = time.perf_counter()
    pool = [generator(i) for i in range(1, 7)]
    rng = random.Random(2025)
    trials = 200
    for _ in range(trials):
        c = rng.randint(2, 5)
        m = rng.randint(1, 6)
        cg = random_capped_grope(
            rng,
            c,
            pool[:m],
            genus=rng.choice((1, 1, 2)),
            density=rng.uniform(0.3, 1.0),
        )
        out = full_split(cg)
        assert validate_capped(out) == []
        assert all(len(v) <= 1 for v in value_keys_by_cap(out).values())
        assert all(s.genus == 1 for p, s in iter_stages(out.body) if p != ())
        assert class_of(out.body) == class_of(cg.body)
        assert label_keys(out) <= label_keys(cg)
    elapsed = time.perf_counter() - start
    report(
        capsys,
        "split postconditions",
        elapsed < 30.0,
        f"{trials} random capped gropes (class <= 5, <= 6 values): caps hold "
        f"<= 1 value, upper stages genus 1, class and values preserved "
        f"[{elapsed:.2f}s < 30s]",
    )


def test_growth_bomb_is_refused_up_front(capsys, tmp_path):
    """A class-7 tower with 10 values per cap would split to genus 10^7."""
    body, _ = dyadic_tower(7)
    caps = {f"c{i}": t for i, t in enumerate(tips(body), start=1)}
    pts = tuple(
        Intersection(f"p{i}_{j}", CapRef(c), CapRef(c), generator(j))
        for i, c in enumerate(caps, start=1)
        for j in range(1, 11)
    )
    cg = CappedGrope(body, caps, pts)
    path = tmp_path / "bomb.json"
    path.write_text(dumps_capped(cg), encoding="utf-8")

    start = time.perf_counter()
    with pytest.raises(GrowthLimitError, match="10000000"):
        full_split(cg)
    api = time.perf_counter() - start
    start = time.perf_counter()
    code = main(["split", str(path)])
    cli = time.perf_counter() - start
    err = capsys.readouterr().err
    report(
        capsys,
        "growth bomb refused",
        api < 1.0 and cli < 1.0 and code == 3 and "growth limit" in err,
        f"{len(pts)} points predicting genus 10^7: API raised in {api:.3f}s, "
        f"`gropes split` exited {code} in {cli:.3f}s [each < 1s]",
    )


def test_surgery_pipeline(capsys):
    """Surgery succeeds with class == values + 1 and fails at class == values."""
    start = time.perf_counter()
    kernels = 100
    for seed in range(kernels):
        r = random.Random(seed)
        m = r.randint(1, 4)
        kernel = generate_kernel(
            seed, labels=m, pair_count=r.randint(1, 2), density=r.uniform(0.4, 1.2)
        )
        result = run_surgery(kernel)
        for husk in result.gropes:
            assert husk.body is None
            assert is_pi1_null(husk)
            assert all(p.label.is_identity for p in husk.intersections)
        assert result.stats["outputPi1Null"] is True
    failures = trials = 0
    for m in (2, 3, 4):
        for seed in range(34):
            trials += 1
            kernel = generate_kernel(seed, labels=m, adversarial=True)
            with pytest.raises(PigeonholeFailure):
                run_surgery(kernel, force=True)
            failures += 1
    elapsed = time.perf_counter() - start
    report(
        capsys,
        "surgery pipeline",
        failures == trials and elapsed < 60.0,
        f"{kernels} generated kernels (m <= 4) -> all-identity sphere pairs; "
        f"{failures}/{trials} adversarial class==m kernels fail the pigeonhole "
        f"[{elapsed:.2f}s < 60s]",
    )


def test_depth_reaches_class(capsys):
    """Boundary words sit at least class-deep; dyadic towers sit exactly."""
    start = time.perf_counter()
    rng = random.Random(77)
    trials = 200
    for _ in range(trials):
        c = rng.randint(2, 6)
        g = random_grope(rng, c, genus=rng.choice((1, 1, 2)))
        d = lcs_depth(boundary_word(g), 8)
        assert d.bound is None or d.bound >= c, (c, d)
    exact_checked = 0
    for k in range(2, 7):
        expr = "x1"
        for i in range(2, k + 1):
            expr = f"[{expr}, x{i}]"
        g, _ = grope_from_expression(parse_expression(expr))
        assert is_dyadic(g) and class_of(g) == k
        w = boundary_word(g)
        assert lcs_depth(w, 8) == Depth.exact(k)
        assert depth_oracle(w.letters, 8) == k
        assert depth_oracle(left_normed_letters(tuple(range(1, k + 1))), 8) == k
        exact_checked += 1
    elapsed = time.perf_counter() - start
    report(
        capsys,
        "depth reaches class",
        elapsed < 60.0,
        f"depth >= class on {trials} random gropes (class <= 6); equality on "
        f"{exact_checked} left-normed towers vs the independent oracle "
        f"[{elapsed:.2f}s < 60s, cutoff 8]",
    )


def test_expansion_is_a_homomorphism(capsys):
    """The oracle's truncated expansion turns products into products; frozen depths agree."""
    start = time.perf_counter()
    rng = random.Random(13)
    pairs = 200
    def random_word():
        return GroupWord(
            tuple(
                rng.choice((1, -1)) * rng.randint(1, 4)
                for _ in range(rng.randint(0, 8))
            )
        )

    for _ in range(pairs):
        u, v = random_word(), random_word()
        uv = poly_mul(magnus_oracle(u.letters, 4), magnus_oracle(v.letters, 4), 4)
        assert magnus_oracle((u * v).letters, 4) == uv
    frozen = {"[x1, x2]": 2, "[[x1, x2], x2]": 3}
    for text, depth in frozen.items():
        w = evaluate(parse_expression(text))
        assert lcs_depth(w, 8) == Depth.exact(depth)
        assert depth_oracle(w.letters, 8) == depth
    elapsed = time.perf_counter() - start
    report(
        capsys,
        "expansion homomorphism",
        True,
        f"expansion(u*v) == expansion(u)*expansion(v) on {pairs} random pairs "
        f"(cutoff 4); frozen depths {frozen} match the oracle [{elapsed:.2f}s]",
    )


def test_determinism_and_round_trip(capsys, tmp_path):
    """Same seed, same bytes; every document survives parse <-> serialize."""
    start = time.perf_counter()

    def build():
        kernel = generate_kernel(20260814, labels=3, pair_count=2, density=0.9)
        result = run_surgery(kernel)
        return (
            dumps_kernel(kernel),
            json.dumps(list(result.trace)),
            dumps_result(result),
        )

    assert build() == build()

    corpus = []
    rng = random.Random(5150)
    for i in range(18):  # bare gropes
        corpus.append(dumps_grope(random_grope(rng, rng.randint(2, 6), genus=rng.randint(1, 2))))
    pool = [generator(i) for i in range(1, 5)]
    for i in range(15):  # capped gropes, including split output
        cg = random_capped_grope(rng, rng.randint(2, 4), pool[: rng.randint(1, 4)])
        corpus.append(dumps_capped(cg if i % 3 else full_split(cg)))
    mid_body = Grope(Stage(((Tip("t1"), Tip("t2")), (Tip("t3"), Tip("t4")))))
    mid = CappedGrope(
        mid_body,
        {f"c{k}": f"t{k}" for k in range(1, 5)},
        tuple(
            Intersection(f"i{k}", CapRef(f"c{k}"), CapRef(f"c{k}"), generator(1))
            for k in range(1, 5)
        )
        + (Intersection("i9", CapRef("c2"), CapRef("c3"), generator(1)),),
    )
    queued, record = contract(mid, 0, "c1", "c2")
    corpus.append(dumps_capped(queued))  # pending pushoff queue on a sphere
    corpus.append(dumps_capped(pushoff(queued, record.sphere_id)))
    for seed in range(10):  # kernels, a few adversarial
        adversarial = seed % 5 == 0
        corpus.append(
            dumps_kernel(
                generate_kernel(
                    seed,
                    labels=3 if adversarial else seed % 3 + 1,
                    adversarial=adversarial,
                )
            )
        )
    for seed in range(5):  # full surgery results
        corpus.append(dumps_result(run_surgery(generate_kernel(seed, labels=2))))
    assert len(corpus) == 50

    dump_by_kind = {
        "grope": dumps_grope,
        "capped": dumps_capped,
        "kernel": dumps_kernel,
        "result": dumps_result,
    }
    kinds = set()
    for i, text in enumerate(corpus):
        path = tmp_path / f"doc{i:02}.json"
        path.write_text(text, encoding="utf-8")
        kind, obj = loads_document(path.read_text(encoding="utf-8"))
        kinds.add(kind)
        assert dump_by_kind[kind](obj) == text  # serialize . parse == id
        assert loads_document(dump_by_kind[kind](obj)) == (kind, obj)  # parse . serialize == id
    elapsed = time.perf_counter() - start
    report(
        capsys,
        "determinism and round-trip",
        kinds == set(dump_by_kind),
        f"byte-identical kernel/trace/result on repeated seeded runs; "
        f"50-file corpus round-trips both ways across kinds {sorted(kinds)} "
        f"[{elapsed:.2f}s]",
    )
