"""The command-line interface: subcommands, exit codes, and I/O conventions."""

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gropes import (
    BodyRef,
    CappedGrope,
    CapRef,
    Grope,
    Intersection,
    Stage,
    SurgeryKernel,
    Tip,
    dumps_capped,
    dumps_kernel,
    dumps_result,
    generate_kernel,
    generator,
    loads_document,
    replay_trace,
    run_surgery,
)
import gropes.pipeline as pipeline_module
from gropes.cli import main
from gropes.commutators import MAX_NESTING

from conftest import (
    chain_stage_text,
    collision_kernel,
    dumps_grope,
    ghost_tip_grope,
    over_the_guards_grope,
    split_genus3_grope,
)

F = generator(1)
G = generator(2)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def grope_file(tmp_path):
    body = Grope(Stage(((Stage(((Tip("t1"), Tip("t2")),)), Tip("t3")),)))
    return write(tmp_path, "g.json", dumps_grope(body))


@pytest.fixture
def capped_file(tmp_path):
    body = Grope(Stage(((Tip("t1"), Tip("t2")),)))
    cg = CappedGrope(
        body,
        {"c1": "t1", "c2": "t2"},
        (
            Intersection("i1", CapRef("c1"), CapRef("c1"), F),
            Intersection("i2", CapRef("c2"), CapRef("c2"), F),
        ),
    )
    return write(tmp_path, "c.json", dumps_capped(cg))


@pytest.fixture
def multivalue_file(tmp_path):
    body = Grope(Stage(((Tip("t1"), Tip("t2")),)))
    cg = CappedGrope(
        body,
        {"c1": "t1", "c2": "t2"},
        (
            Intersection("i1", CapRef("c1"), CapRef("c1"), F),
            Intersection("i2", CapRef("c1"), CapRef("c1"), G),
            Intersection("i3", CapRef("c2"), CapRef("c2"), F),
        ),
    )
    return write(tmp_path, "m.json", dumps_capped(cg))


@pytest.fixture
def kernel_file(tmp_path):
    return write(tmp_path, "k.json", dumps_kernel(generate_kernel(11, labels=2)))


# ---------------------------------------------------------------------------
# usage and global behavior


def test_no_arguments_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 64


def test_unknown_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 64


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("gropes ")


def test_missing_file_is_a_data_error(capsys):
    code, _, err = run(capsys, "class", "/no/such/file.json")
    assert code == 65
    assert "cannot read" in err


def test_malformed_json_is_a_data_error(capsys, tmp_path):
    path = write(tmp_path, "bad.json", "{not json")
    code, _, err = run(capsys, "validate", path)
    assert code == 65


def chain_grope_text(depth):
    return '{"closed": false, "root": %s}' % chain_stage_text(depth)


def test_deep_chain_grope_document_is_a_data_error(capsys, tmp_path):
    """Stage depth is bounded by MAX_NESTING; the decoder's own limit is a parse error too."""
    at_bound = write(tmp_path, "at_bound.json", chain_grope_text(MAX_NESTING))
    assert run(capsys, "class", at_bound)[:2] == (0, f"{MAX_NESTING + 1}\n")
    # Whether 3000 stages trip the decoder or the stage bound depends on the Python version.
    for depth, reason in ((MAX_NESTING + 1, "stages nest deeper"), (3000, "nest")):
        path = write(tmp_path, f"chain{depth}.json", chain_grope_text(depth))
        code, out, err = run(capsys, "class", path)
        assert (code, out) == (65, ""), depth
        assert err.count("\n") == 1 and reason in err, err[:200]


def test_deeply_nested_json_is_a_data_error(capsys, tmp_path):
    path = write(tmp_path, "brackets.json", "[" * 100_000)
    for command in ("class", "validate", "pipeline"):
        code, out, err = run(capsys, command, path)
        assert (code, out) == (65, ""), command
        assert err.count("\n") == 1 and "nest too deeply" in err, err[:200]


def test_deep_documents_end_without_a_traceback(tmp_path):
    """The same refusals through the installed entry point: one stderr line, exit 65."""
    chain = write(tmp_path, "chain.json", chain_grope_text(3000))
    brackets = write(tmp_path, "brackets.json", "[" * 100_000)
    for path in (chain, brackets):
        proc = subprocess.run(
            [sys.executable, "-m", "gropes", "class", path], capture_output=True, text=True
        )
        assert (proc.returncode, proc.stdout) == (65, "")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_wrong_document_kind_is_a_data_error(capsys, kernel_file):
    code, _, err = run(capsys, "class", kernel_file)
    assert code == 65
    assert "expected a grope or capped document" in err


def test_stdin_dash_reads_a_document(capsys, monkeypatch):
    body = Grope(Stage(((Tip("t1"), Tip("t2")),)))
    monkeypatch.setattr(sys, "stdin", io.StringIO(dumps_grope(body)))
    code, out, _ = run(capsys, "class", "-")
    assert (code, out) == (0, "2\n")


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "gropes", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("gropes ")


@pytest.mark.parametrize("command", ["pipeline", "split", "contract"])
def test_an_unwritable_trace_fails_in_one_line(tmp_path, command):
    """A --trace path in a missing directory, or naming one, ends in exit 1 and one line."""
    kernel = generate_kernel(11, labels=2)
    text = dumps_kernel(kernel) if command == "pipeline" else dumps_capped(kernel.gropes[0])
    argv = ["--pair", "0", "--caps", "c1,c2"] if command == "contract" else []
    path = write(tmp_path, "in.json", text)
    for trace in (tmp_path / "none" / "t.jsonl", tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "gropes", command, *argv, "--trace", str(trace), path],
            capture_output=True,
            text=True,
        )
        assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr
        assert proc.stderr.startswith(f"error: cannot write {trace}: ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert not (tmp_path / "none").exists()


def test_pipeline_refuses_an_unwritable_trace_before_the_surgery(capsys, tmp_path, monkeypatch):
    """The heaviest seed-1 benchmark kernel: refused in a small part of its surgery's time."""
    kernel = generate_kernel(3207407755, labels=5, pair_count=3, density=1.113)
    path = write(tmp_path, "k.json", dumps_kernel(kernel))
    start = time.perf_counter()
    run_surgery(kernel)
    surgery = time.perf_counter() - start
    calls = []
    monkeypatch.setattr("gropes.cli.run_surgery", lambda *a, **k: calls.append(a))
    start = time.perf_counter()
    code, out, err = run(capsys, "pipeline", "--trace", str(tmp_path / "none" / "t.jsonl"), path)
    refusal = time.perf_counter() - start
    assert (code, out, calls) == (1, "", [])
    assert err.count("\n") == 1 and "No such file or directory" in err
    assert refusal < surgery / 4, (refusal, surgery)


def test_a_refused_run_leaves_nothing_at_the_trace_path(capsys, tmp_path):
    kernel = generate_kernel(5, labels=2, adversarial=True)
    path = write(tmp_path, "k.json", dumps_kernel(kernel))
    trace = tmp_path / "t.jsonl"
    code, out, _ = run(capsys, "pipeline", "--force", "--trace", str(trace), path)
    assert (code, out) == (2, "")
    assert not trace.exists()


@pytest.mark.parametrize("stdout", ["/dev/full", "/dev/full unbuffered", "closed pipe"])
def test_an_unwritable_stdout_fails_in_one_line(stdout):
    """A full device or a closed pipe on stdout ends in exit 1 and one line, buffered or not."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if stdout.endswith("unbuffered"):
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", "gropes", "generate", "--seed", "1", "--labels", "2"]
    if stdout == "closed pipe":
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=env, text=True)
        finally:
            os.close(write_end)
        reason = "Broken pipe"
    else:
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        with open("/dev/full", "w") as full:
            proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, env=env, text=True)
        reason = "No space left on device"
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == f"error: cannot write stdout: {reason}\n"


def _tower_file(tmp_path, n: int, k: int) -> str:
    """A dyadic class-k tower whose every cap carries n values; full_split makes genus n**k."""
    rng = random.Random(1)
    slot = Tip(f"t{k}")
    for i in range(k - 1, 0, -1):
        slot = Stage(((Tip(f"t{i}"), slot),))
    points = [
        Intersection(f"c{i}p{j}", CapRef(f"c{i}"), CapRef(f"c{i}"), generator(g) ** rng.choice((1, -1)))
        for i in range(1, k + 1)
        for j, g in enumerate(rng.sample(range(1, 7), n))
    ]
    cg = CappedGrope(Grope(slot), {f"c{i}": f"t{i}" for i in range(1, k + 1)}, tuple(points))
    return write(tmp_path, f"tower-{n}-{k}.json", dumps_capped(cg))


def test_a_large_document_goes_to_stdout_in_bounded_writes(tmp_path, monkeypatch):
    """The split of a class-6 tower is 12.6 MB; stdout never receives it in one piece."""
    sizes = []

    class Stdout:
        def write(self, text):
            sizes.append(len(text))
            return len(text)

        def flush(self):
            pass

    path = _tower_file(tmp_path, 4, 6)
    monkeypatch.setattr(sys, "stdout", Stdout())
    assert main(["split", path]) == 0
    assert sum(sizes) > 12_000_000
    assert max(sizes) < 1_000_000


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_stdout_that_fails_part_way_through_a_document_fails_in_one_line(tmp_path, unbuffered):
    """Part of the document has gone out when the reader leaves; the rest is refused."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", "gropes", "split", _tower_file(tmp_path, 4, 5)]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(100_000)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1, err
    assert head.startswith(b'{\n  "closed": false,\n  "root": {')
    assert err == b"error: cannot write stdout: Broken pipe\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("split", "MULTI"),
        ("split", "--cap", "c1", "MULTI"),
        ("contract", "--pair", "0", "--caps", "c1,c2", "GENUS3"),
        ("contract", "--pair", "0", "--caps", "c1,c2", "--skip-pushoff", "GENUS3"),
        ("pipeline", "KERNEL"),
        ("pipeline", "--stats-only", "KERNEL"),
        ("pipeline", "--check", "KERNEL"),
        ("generate", "--seed", "1", "--labels", "3"),
        ("generate", "--seed", "1", "--labels", "3", "--adversarial"),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_every_streamed_document_is_canonical_json(capsys, tmp_path, multivalue_file, kernel_file, argv):
    """A streamed document cannot fall back to json.dumps once it has started, so every
    value in it must be one the emitter writes itself."""
    files = {
        "MULTI": multivalue_file,
        "GENUS3": write(tmp_path, "g3.json", dumps_capped(split_genus3_grope())),
        "KERNEL": kernel_file,
    }
    code, out, err = run(capsys, *(files.get(a, a) for a in argv))
    assert (code, err) == (0, "")
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


# ---------------------------------------------------------------------------
# validate


def test_validate_accepts_each_document_kind(capsys, tmp_path, grope_file, capped_file, kernel_file):
    for path, kind in ((grope_file, "grope"), (capped_file, "capped"), (kernel_file, "kernel")):
        code, out, _ = run(capsys, "validate", path)
        assert code == 0
        assert out == f"ok: valid {kind}\n"


def test_validate_lists_problems_and_fails(capsys, tmp_path):
    body = Grope(Stage(((Tip("t1"), Tip("t2")),)))
    path = write(tmp_path, "bad.json", dumps_capped(CappedGrope(body, {"c1": "t1"}, ())))
    code, out, _ = run(capsys, "validate", path)
    assert code == 1
    assert "t2" in out


def test_validate_strict_rejects_body_endpoints(capsys, tmp_path):
    from gropes import BodyRef

    body = Grope(Stage(((Stage(((Tip("t1"), Tip("t2")),)), Tip("t3")),)))
    cg = CappedGrope(
        body,
        {"c1": "t1", "c2": "t2", "c3": "t3"},
        (Intersection("i1", CapRef("c1"), BodyRef(((0, 0),)), F),),
    )
    path = write(tmp_path, "b.json", dumps_capped(cg))
    assert run(capsys, "validate", path)[0] == 0
    code, out, _ = run(capsys, "validate", "--strict", path)
    assert code == 1


def _seed1_result_doc() -> dict:
    return json.loads(dumps_result(run_surgery(generate_kernel(1, labels=2))))


def test_validate_accepts_a_pipeline_result(capsys, tmp_path):
    path = write(tmp_path, "r.json", json.dumps(_seed1_result_doc()))
    assert run(capsys, "validate", path) == (0, "ok: valid result\n", "")


def test_validate_checks_the_husks_and_sphere_pairs_of_a_result(capsys, tmp_path):
    doc = _seed1_result_doc()
    husk = doc["gropes"][0]
    sphere = husk["spheres"][0]["id"]
    ghost = {"id": "zz", "endA": {"sphere": "ghost"}, "endB": {"sphere": sphere}, "label": "1"}
    husk["intersections"].append(ghost)
    doc["spherePairs"].append([{"grope": 7, "sphere": sphere}, {"grope": 0, "sphere": "nope"}])
    path = write(tmp_path, "r.json", json.dumps(doc))
    code, out, _ = run(capsys, "validate", path)
    k = len(doc["spherePairs"]) - 1
    assert code == 1
    assert out.splitlines() == [
        "grope 0: intersection zz: unknown sphere 'ghost'",
        f"sphere pair {k}: no grope 7",
        f"sphere pair {k}: grope 0 has no sphere 'nope'",
    ]


# ---------------------------------------------------------------------------
# class / tips / boundary / lcs


def test_class_of_a_grope(capsys, grope_file):
    assert run(capsys, "class", grope_file) == (0, "3\n", "")


def test_class_of_a_capped_grope_uses_its_body(capsys, capped_file):
    assert run(capsys, "class", capped_file)[:2] == (0, "2\n")


def test_tips_lists_names_in_order(capsys, grope_file):
    code, out, _ = run(capsys, "tips", grope_file)
    assert (code, out.split()) == (0, ["t1", "t2", "t3"])


def test_tips_count(capsys, grope_file):
    assert run(capsys, "tips", "--count", grope_file)[:2] == (0, "3\n")


def test_boundary_with_default_assignment(capsys, tmp_path):
    body = Grope(Stage(((Tip("t1"), Tip("t2")),)))
    path = write(tmp_path, "g.json", dumps_grope(body))
    code, out, _ = run(capsys, "boundary", path)
    assert (code, out) == (0, "x1*x2*x1^-1*x2^-1\n")


def test_boundary_with_explicit_assignment(capsys, tmp_path):
    body = Grope(Stage(((Tip("t1"), Tip("t2")),)))
    path = write(tmp_path, "g.json", dumps_grope(body))
    code, out, _ = run(
        capsys, "boundary", path, "--assign", "t1=x2", "--assign", "t2=x2"
    )
    assert (code, out) == (0, "1\n")


def test_boundary_rejects_bad_assignments(capsys, tmp_path):
    body = Grope(Stage(((Tip("t1"), Tip("t2")),)))
    path = write(tmp_path, "g.json", dumps_grope(body))
    assert run(capsys, "boundary", path, "--assign", "t1:x2")[0] == 65


def test_boundary_refuses_a_word_over_the_length_bound(capsys, tmp_path):
    """A chain doubles its word per stage: 40 stages would spell over 2^40 letters."""
    chain = write(tmp_path, "chain40.json", chain_grope_text(40))
    # 15 stages spell 98302 letters with one letter per tip, 1572832 with 16.
    short = write(tmp_path, "chain15.json", chain_grope_text(15))
    long_tips = [f"--assign={tip}=x1^16" for tip in ["t0"] + [f"u{k}" for k in range(15)]]
    for argv in (["boundary", chain], ["boundary", short, *long_tips]):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        elapsed = time.perf_counter() - start
        assert (code, out) == (65, ""), argv
        assert err.count("\n") == 1 and "exceeds the bound of 1000000 letters" in err
        assert elapsed < 1.0, f"{argv[-1]} refused after {elapsed:.2f}s"


def test_lcs_of_a_commutator_expression(capsys):
    assert run(capsys, "lcs", "[[x1, x2], x3]")[:2] == (0, "3\n")


def test_lcs_of_a_plain_word(capsys):
    assert run(capsys, "lcs", "--word", "x1*x2")[:2] == (0, "1\n")
    assert run(capsys, "lcs", "--word", "1")[:2] == (0, "oo\n")


def test_lcs_reports_cutoff_saturation(capsys):
    code, out, _ = run(capsys, "lcs", "--cutoff", "2", "[[x1, x2], x3]")
    assert (code, out) == (0, ">=3\n")


def test_lcs_refuses_a_cutoff_that_needs_too_many_terms(capsys):
    """Weight 12 over x1, x2 at cutoff 14 must expand to degree 11: exit 3 after about 2M terms.

    Two essential generators cannot settle a depth of 12, so the expansion runs.
    """
    text = "[" * 11 + "x1" + ",x2],x1]" * 5 + ",x2]"  # [[..[x1,x2],x1],..],x2]
    start = time.perf_counter()
    code, out, err = run(capsys, "lcs", "--cutoff", "14", text)
    elapsed = time.perf_counter() - start
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and err.startswith("growth limit:") and "terms" in err
    assert elapsed < 20, f"refused after {elapsed:.2f}s"


def test_lcs_of_distinct_generators_needs_no_expansion(capsys):
    """Weight 12 over x1..x12: every generator is essential, so the witness's 12 is exact."""
    text = "[" * 11 + "x1" + "".join(f",x{i}]" for i in range(2, 13))
    start = time.perf_counter()
    assert run(capsys, "lcs", "--cutoff", "14", text)[:2] == (0, "12\n")
    elapsed = time.perf_counter() - start
    assert elapsed < 2, f"took {elapsed:.2f}s"


def test_lcs_help_explains_the_cutoff(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["lcs", "--help"])
    assert exit_info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "default 8" in text and "'>=N' means the word is deeper than the cutoff" in text


def test_lcs_nesting_bound(capsys):
    at_bound = "(" * MAX_NESTING + "x1" + ")" * MAX_NESTING
    assert run(capsys, "lcs", at_bound)[:2] == (0, "1\n")
    deep = "[x1," * 3000 + "x2" + "]" * 3000
    for text in ("(" + at_bound + ")", "(" * 3000 + "x1" + ")" * 3000, deep):
        code, out, err = run(capsys, "lcs", text)
        assert (code, out) == (65, "")
        assert err.count("\n") == 1 and "nest deeper" in err


def test_lcs_refuses_words_over_the_length_bound(capsys, tmp_path):
    """Powers and bracket chains that would spell huge words exit 65 at once."""
    chain = "[x1," * 40 + "x2" + "]" * 40  # 2^41 + ... letters, well inside MAX_NESTING
    cg = CappedGrope(
        Grope(Stage(((Tip("t1"), Tip("t2")),))),
        {"c1": "t1", "c2": "t2"},
        (Intersection("i1", CapRef("c1"), CapRef("c1"), F),),
    )
    huge = json.loads(dumps_capped(cg))
    huge["intersections"][0]["label"] = "x1^99999999"
    doc = write(tmp_path, "huge.json", json.dumps(huge))
    digits = "9" * 5000  # more digits than int() converts from text
    for argv in (["lcs", "x1^99999999"], ["lcs", "--word", "x1^99999999"],
                 ["lcs", chain], ["validate", doc], ["lcs", "x1^" + digits],
                 ["lcs", "x" + digits], ["lcs", "[[x1,x2],[x1,x2]]^" + digits[:4290]]):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        elapsed = time.perf_counter() - start
        assert (code, out) == (65, ""), argv
        assert err.count("\n") == 1, argv
        assert "exceeds the bound" in err or "digits is too long" in err, argv
        assert elapsed < 1.0, f"{argv[:2]} took {elapsed:.2f}s"


def test_lcs_refuses_a_cutoff_below_one(capsys):
    code, out, err = run(capsys, "lcs", "--cutoff", "0", "x1")
    assert (code, out, err) == (1, "", "error: cutoff must be >= 1, got 0\n")


def test_lcs_parse_error(capsys):
    code, _, err = run(capsys, "lcs", "[x1,")
    assert code == 65
    assert "position" in err


# ---------------------------------------------------------------------------
# split


def test_split_full_output_is_a_capped_document(capsys, multivalue_file):
    code, out, _ = run(capsys, "split", multivalue_file)
    assert code == 0
    kind, cg = loads_document(out)
    assert kind == "capped"
    from gropes import value_keys_by_cap

    assert all(len(keys) <= 1 for keys in value_keys_by_cap(cg).values())


def test_split_single_cap(capsys, multivalue_file):
    code, out, _ = run(capsys, "split", "--cap", "c1", multivalue_file)
    assert code == 0
    _, cg = loads_document(out)
    assert "c1.1" in cg.caps and "c1.2" in cg.caps


def test_split_cap_copies_a_stage_dual(capsys, tmp_path):
    """split --cap c3 makes the rewrite a full split starts with: c3's dual is a genus-2 stage."""
    dual = Stage(((Tip("t1"), Tip("t2")), (Tip("t4"), Tip("t5"))))
    caps = {f"c{k}": f"t{k}" for k in (1, 2, 3, 4, 5)}
    points = (
        Intersection("i1", CapRef("c3"), CapRef("c3"), F),
        Intersection("i2", CapRef("c3"), CapRef("c3"), G),
    )
    cg = CappedGrope(Grope(Stage(((dual, Tip("t3")),))), caps, points)
    path = write(tmp_path, "dual.json", dumps_capped(cg))
    full, one = tmp_path / "full.jsonl", tmp_path / "one.jsonl"
    assert run(capsys, "split", "--trace", str(full), path)[0] == 0
    code, out, err = run(capsys, "split", "--cap", "c3", "--trace", str(one), path)
    assert (code, err) == (0, "")
    first, *rest = full.read_text().splitlines()
    assert one.read_text().splitlines() == [first] and rest  # the full split goes on
    entry = json.loads(first)
    assert (entry["op"], entry["cap"]) == ("split_cap", "c3")
    (after,) = replay_trace(SurgeryKernel(2, (cg,), ()), [{"grope": 0, **entry}])
    assert out == dumps_capped(after)


def test_split_unknown_cap_fails(capsys, multivalue_file):
    code, _, err = run(capsys, "split", "--cap", "zz", multivalue_file)
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [("split", "--cap", "cx"), ("split",), ("contract", "--pair", "0", "--caps", "c1,c2")],
)
def test_rewrites_refuse_an_invalid_capped_grope(capsys, tmp_path, argv):
    path = write(tmp_path, "ghost.json", dumps_capped(ghost_tip_grope()))
    code, out, err = run(capsys, *argv[:1], path, *argv[1:])
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "unknown tip 'ghost'" in err


def test_split_stage_by_path(capsys, tmp_path):
    body = Grope(
        Stage(((Stage(((Tip("t1"), Tip("t2")), (Tip("t3"), Tip("t4")))), Tip("t5")),))
    )
    caps = {f"c{k}": f"t{k}" for k in range(1, 6)}
    path = write(tmp_path, "s.json", dumps_capped(CappedGrope(body, caps)))
    code, out, _ = run(capsys, "split", "--stage", "0a", path)
    assert code == 0
    _, cg = loads_document(out)
    assert cg.body.root.genus == 2


def test_split_stage_rejects_the_first_stage(capsys, multivalue_file):
    code, _, err = run(capsys, "split", "--stage", "root", multivalue_file)
    assert code == 65
    assert "0a.1b" in err


def test_split_stage_rejects_bad_paths(capsys, multivalue_file):
    code, _, err = run(capsys, "split", "--stage", "0c", multivalue_file)
    assert code == 65
    assert "bad path step" in err


def test_split_trace_is_json_lines(capsys, tmp_path, multivalue_file):
    trace_path = tmp_path / "trace.jsonl"
    code, _, _ = run(capsys, "split", "--trace", str(trace_path), multivalue_file)
    assert code == 0
    lines = trace_path.read_text().splitlines()
    assert lines
    entries = [json.loads(line) for line in lines]
    assert all(e["op"] in ("split_cap", "split_stage") for e in entries)


def test_split_growth_guard_exit_code(capsys, multivalue_file):
    code, _, err = run(capsys, "split", "--max-genus", "1", multivalue_file)
    assert code == 3
    assert "growth limit" in err


def test_split_growth_guard_from_environment(capsys, monkeypatch, multivalue_file):
    monkeypatch.setenv("GROPE_MAX_GENUS", "1")
    assert run(capsys, "split", multivalue_file)[0] == 3


def test_split_flag_overrides_environment(capsys, monkeypatch, multivalue_file):
    monkeypatch.setenv("GROPE_MAX_GENUS", "1")
    assert run(capsys, "split", "--max-genus", "64", multivalue_file)[0] == 0


def test_bad_environment_guard_is_a_data_error(capsys, monkeypatch, multivalue_file):
    monkeypatch.setenv("GROPE_MAX_GENUS", "lots")
    assert run(capsys, "split", multivalue_file)[0] == 65


def test_split_cap_growth_guard_exit_code(capsys, multivalue_file):
    """split --cap checks the guard after its one rewrite, not from a prediction."""
    code, out, err = run(capsys, "split", "--cap", "c1", "--max-genus", "1", multivalue_file)
    assert (code, out) == (3, "")
    assert err == "growth limit: first-stage genus 2 exceeds the limit 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("--cap", "ca", "--max-genus", "2"),
        ("--max-intersections", "1"),
        ("--cap", "ca", "--max-intersections", "1"),
    ],
)
def test_split_keeps_figures_over_a_guard_that_do_not_grow(capsys, tmp_path, argv):
    """Genus 3 and 2 points, both over the guard: splitting ca grows neither, so exit 0."""
    path = write(tmp_path, "over.json", dumps_capped(over_the_guards_grope()))
    code, out, err = run(capsys, "split", *argv, path)
    assert (code, err) == (0, "")
    _, cg = loads_document(out)
    assert len(cg.intersections) == 2


@pytest.mark.parametrize("command", ["split", "pipeline"])
def test_growth_guard_flags_have_help(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    out = capsys.readouterr().out
    assert "write one JSON line per rewrite" in out
    assert "first-stage genus guard" in out and "intersection count guard" in out


# ---------------------------------------------------------------------------
# contract


def test_contract_then_pushoff_emits_the_surgered_grope(capsys, capped_file):
    code, out, _ = run(capsys, "contract", "--pair", "0", "--caps", "c1,c2", capped_file)
    assert code == 0
    _, cg = loads_document(out)
    assert cg.body is None
    assert len(cg.spheres) == 1
    assert cg.spheres[0].pending == ()


def test_contract_skip_pushoff_keeps_the_queue(capsys, tmp_path):
    body = Grope(Stage(((Tip("t1"), Tip("t2")), (Tip("t3"), Tip("t4")))))
    cg = CappedGrope(
        body,
        {f"c{k}": f"t{k}" for k in range(1, 5)},
        (
            Intersection("i1", CapRef("c1"), CapRef("c1"), F),
            Intersection("i2", CapRef("c2"), CapRef("c2"), F),
            Intersection("i3", CapRef("c2"), CapRef("c3"), F),
        ),
    )
    path = write(tmp_path, "c.json", dumps_capped(cg))
    code, out, _ = run(
        capsys, "contract", "--pair", "0", "--caps", "c1,c2", "--skip-pushoff", path
    )
    assert code == 0
    _, mid = loads_document(out)
    assert [q.point_id for q in mid.spheres[0].pending] == ["i3"]


def test_contract_at_a_later_pair_shifts_the_body_paths_after_it(capsys, tmp_path):
    cg = split_genus3_grope()
    path = write(tmp_path, "c.json", dumps_capped(cg))
    trace_path = tmp_path / "t.jsonl"
    code, out, err = run(
        capsys, "contract", "--pair", "1", "--caps", "c3,c4", "--trace", str(trace_path), path
    )
    assert (code, err) == (0, "")
    _, after = loads_document(out)
    assert len(after.body.root.pairs) == 2 and "c5" not in after.caps
    # b3 joined c5 to the stage at 2b, which is 1b once pair 1 is gone.
    copies = {p.point_id: p.end_a for p in after.intersections if p.point_id.startswith("b3.")}
    assert copies == {"b3.1": BodyRef(((1, 1),)), "b3.2": BodyRef(((1, 1),))}
    entries = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert [(e["op"], e.get("pairIndex")) for e in entries] == [("contract", 1), ("pushoff", None)]
    kernel = SurgeryKernel(2, (cg,), ())
    assert replay_trace(kernel, [{"grope": 0, **e} for e in entries]) == (after,)


def test_contract_rejects_malformed_cap_pairs(capsys, capped_file):
    code, _, err = run(capsys, "contract", "--pair", "0", "--caps", "c1", capped_file)
    assert code == 65
    assert "capA,capB" in err


def test_contract_label_mismatch_is_an_operation_failure(capsys, tmp_path):
    body = Grope(Stage(((Tip("t1"), Tip("t2")),)))
    cg = CappedGrope(
        body,
        {"c1": "t1", "c2": "t2"},
        (
            Intersection("i1", CapRef("c1"), CapRef("c1"), F),
            Intersection("i2", CapRef("c2"), CapRef("c2"), G),
        ),
    )
    path = write(tmp_path, "c.json", dumps_capped(cg))
    code, _, err = run(capsys, "contract", "--pair", "0", "--caps", "c1,c2", path)
    assert code == 1
    assert "different values" in err


# ---------------------------------------------------------------------------
# pipeline


def test_pipeline_emits_a_result_document(capsys, kernel_file):
    code, out, _ = run(capsys, "pipeline", kernel_file)
    assert code == 0
    kind, result = loads_document(out)
    assert kind == "result"
    assert result.stats["outputPi1Null"] is True


def test_pipeline_stats_only(capsys, kernel_file):
    code, out, _ = run(capsys, "pipeline", "--stats-only", kernel_file)
    assert code == 0
    stats = json.loads(out)
    assert set(stats) >= {"labelCount", "minClass", "pieceCount", "spherePairCount"}


def test_pipeline_check_reports_hypotheses(capsys, kernel_file):
    code, out, _ = run(capsys, "pipeline", "--check", kernel_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True and doc["minClass"] >= doc["labelCount"] + 1


def test_pipeline_check_fails_on_boundary_kernels(capsys, tmp_path):
    kernel = generate_kernel(5, labels=3, adversarial=True)
    path = write(tmp_path, "k.json", dumps_kernel(kernel))
    code, out, _ = run(capsys, "pipeline", "--check", path)
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False and doc["boundaryOk"] is True


def test_pipeline_check_lists_the_problems_of_an_invalid_kernel(capsys, tmp_path):
    doc = json.loads(dumps_kernel(generate_kernel(11, labels=2)))
    del doc["gropes"][0]["caps"]["c1"]
    path = write(tmp_path, "k.json", json.dumps(doc))
    code, out, err = run(capsys, "pipeline", "--check", path)
    assert (code, out) == (1, "")
    assert "grope 0: tip 't1' has no cap" in err.splitlines()


def test_pipeline_unmet_hypotheses_fail_without_force(capsys, tmp_path):
    kernel = generate_kernel(5, labels=3, adversarial=True)
    path = write(tmp_path, "k.json", dumps_kernel(kernel))
    code, _, err = run(capsys, "pipeline", path)
    assert code == 1
    assert "pass force" in err


def test_pipeline_forced_pigeonhole_failure_is_exit_2(capsys, tmp_path):
    kernel = generate_kernel(5, labels=3, adversarial=True)
    path = write(tmp_path, "k.json", dumps_kernel(kernel))
    code, _, err = run(capsys, "pipeline", "--force", path)
    assert code == 2
    assert "pigeonhole failure" in err


def test_pipeline_trace_file_replays(capsys, tmp_path, kernel_file):
    trace_path = tmp_path / "trace.jsonl"
    code, out, _ = run(capsys, "pipeline", "--trace", str(trace_path), kernel_file)
    assert code == 0
    from gropes import kernel_from_doc, replay_trace

    entries = [json.loads(line) for line in trace_path.read_text().splitlines()]
    _, kernel = loads_document((tmp_path / "k.json").read_text())
    _, result = loads_document(out)
    replayed = replay_trace(kernel, entries)
    assert [dumps_capped(g) for g in replayed] == [
        dumps_capped(g) for g in result.gropes
    ]


def test_pipeline_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    """Two hash seeds give the same result and trace, on a kernel whose lineage names collide."""
    path = write(tmp_path, "k.json", dumps_kernel(collision_kernel()))
    outputs = []
    for seed in ("0", "12345"):
        trace = tmp_path / f"trace-{seed}.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "gropes", "pipeline", "--trace", str(trace), path],
            capture_output=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        outputs.append((proc.stdout, trace.read_bytes()))
    assert outputs[0] == outputs[1]
    assert re.search(rb'"i\d+\.1\.1"', outputs[0][1])


# ---------------------------------------------------------------------------
# generate / render


def test_generate_is_deterministic(capsys):
    first = run(capsys, "generate", "--seed", "3", "--labels", "2")
    second = run(capsys, "generate", "--seed", "3", "--labels", "2")
    assert first == second and first[0] == 0
    kind, kernel = loads_document(first[1])
    assert kind == "kernel"


def test_generate_pipes_into_pipeline(capsys, monkeypatch):
    code, out, _ = run(capsys, "generate", "--seed", "8", "--labels", "2", "--pairs", "2")
    assert code == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    code, out2, _ = run(capsys, "pipeline", "--stats-only", "-")
    assert code == 0
    assert json.loads(out2)["spherePairCount"] >= 2


def test_generate_rejects_bad_parameters(capsys):
    code, _, err = run(capsys, "generate", "--seed", "1", "--labels", "1", "--adversarial")
    assert code == 1
    assert "at least 2 labels" in err


def test_generate_refuses_a_pair_count_below_one(capsys):
    for pairs in ("0", "-5"):
        code, out, err = run(capsys, "generate", "--seed", "1", "--labels", "2", "--pairs", pairs)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and f"pair count must be >= 1, got {pairs}" in err


def test_generate_refuses_adversarial_kernels_deeper_than_documents_allow(capsys, monkeypatch):
    """An adversarial kernel nests labels - 1 stages; the deepest allowed one reads back."""
    labels = MAX_NESTING + 1
    code, out, _ = run(capsys, "generate", "--seed", "1", "--labels", str(labels), "--adversarial")
    assert code == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    code, _, err = run(capsys, "pipeline", "--force", "-")
    assert code == 2 and "pigeonhole failure" in err
    for labels in (MAX_NESTING + 2, 1000):
        code, out, err = run(capsys, "generate", "--seed", "1", "--labels", str(labels), "--adversarial")
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and f"over the bound {MAX_NESTING}" in err


def test_generate_refuses_arguments_by_predicted_size(capsys, monkeypatch):
    """The bound is lowered here; at its real value these took minutes."""
    monkeypatch.setattr(pipeline_module, "_MAX_GENERATED_TIPS", 100)
    for argv in (("--labels", "40"), ("--labels", "3", "--pairs", "20")):
        code, out, err = run(capsys, "generate", "--seed", "1", *argv)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and "tips, over the bound 100" in err
    assert run(capsys, "generate", "--seed", "1", "--labels", "3", "--pairs", "2")[0] == 0


def test_pipeline_refuses_a_point_count_blowup_up_front(capsys, tmp_path):
    """Genus 84480 is under its guard; the points it predicts are not."""
    code, text, _ = run(capsys, "generate", "--seed", "1", "--labels", "40")
    assert code == 0
    path = write(tmp_path, "k.json", text)
    start = time.perf_counter()
    code, out, err = run(capsys, "pipeline", path)
    elapsed = time.perf_counter() - start
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and "intersections, over the limit 10000000" in err
    assert elapsed < 1.0, f"refused after {elapsed:.2f}s"


def test_render_emits_dot(capsys, grope_file, capped_file):
    for path in (grope_file, capped_file):
        code, out, _ = run(capsys, "render", path)
        assert code == 0
        assert out.startswith("digraph grope {")
        assert out.count("{") == out.count("}")


def test_render_rejects_kernels(capsys, kernel_file):
    assert run(capsys, "render", kernel_file)[0] == 65


# ---------------------------------------------------------------------------
# exit-code fuzz: every input ends in a documented code, quickly

EXIT_CODES = {0, 1, 2, 3, 64, 65}
FUZZ_COMMANDS = (
    ["validate"],
    ["class"],
    ["tips"],
    ["boundary"],
    ["render"],
    ["split"],
    ["contract", "--pair", "0", "--caps", "c1,c2"],
    ["pipeline"],
)
KERNEL_DOC = json.loads(dumps_kernel(generate_kernel(1, labels=2)))
CAPPED_DOC = KERNEL_DOC["gropes"][0]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def _nodes(doc, path=()):
    """(path, value) for every value in a parsed document, the root first."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _keys(doc):
    return sorted({k for _, v in _nodes(doc) if isinstance(v, dict) for k in v})


def _mutated(doc, path, how, new):
    """A copy of doc with the value at path replaced, deleted, or its key renamed to new."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    holder = doc
    for key in parents:
        holder = holder[key]
    if how == "replace":
        holder[last] = new
    elif how == "delete":
        del holder[last]
    elif isinstance(holder, dict):  # rename
        holder[new if isinstance(new, str) else str(new)] = holder.pop(last)
    return doc


@st.composite
def fuzz_texts(draw):
    """JSON values, truncations, and key or value mutations of a kernel and a capped grope."""
    source = draw(st.sampled_from([None, KERNEL_DOC, CAPPED_DOC]))
    if source is None:
        keys = _keys(KERNEL_DOC)
        value = draw(json_values | st.dictionaries(st.sampled_from(keys), json_values, max_size=4))
        return json.dumps(value)
    how = draw(st.sampled_from(["truncate", "replace", "delete", "rename"]))
    if how == "truncate":
        text = json.dumps(source, indent=2)
        return text[: draw(st.integers(0, len(text) - 1))]
    nodes = list(_nodes(source))[1:]
    path, _ = draw(st.sampled_from(nodes))
    subtrees = [value for _, value in nodes]
    words = ["x1^99", "x0", "x1*x2^-1", "[x1,x2]", "1", "", "c1", "t1", "i1", "sph0"]
    new = draw(
        json_values
        | st.sampled_from(subtrees)
        | st.sampled_from(_keys(source) + words)
        | st.integers(-3, 3)
    )
    return json.dumps(_mutated(source, path, how, new))


@settings(max_examples=200, deadline=None)
@given(text=fuzz_texts())
def test_cli_ends_every_input_in_a_documented_exit_code(tmp_path_factory, text):
    """No input makes a subcommand raise, stall, or exit with an undocumented code."""
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(text, encoding="utf-8")
    for command in FUZZ_COMMANDS:
        argv = [command[0], str(path), *command[1:]]
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        elapsed = time.perf_counter() - start
        assert code in EXIT_CODES, (argv, code)
        assert elapsed < 2.0, f"{argv[0]} took {elapsed:.2f}s on {text[:200]!r}"
