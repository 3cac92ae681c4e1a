"""Canonical JSON serialization: round trips, strictness, schemas."""

from __future__ import annotations

import enum
import itertools
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from gropes import (
    BodyRef,
    CapRef,
    CappedGrope,
    Grope,
    Intersection,
    ParseError,
    PigeonholeFailure,
    SphereRef,
    Stage,
    Tip,
    canonical_dumps,
    class_of,
    contract,
    document_kind,
    dumps_capped,
    dumps_kernel,
    dumps_result,
    find_duplicate_pair,
    full_split,
    generate_kernel,
    generator,
    grope_from_doc,
    grope_from_expression,
    kernel_from_doc,
    loads_document,
    parse_expression,
    result_from_doc,
    run_surgery,
)

from gropes.commutators import MAX_NESTING

from conftest import chain_stage_text, dumps_grope, random_capped_grope, two_cap_grope, words

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schema"


def _validator(name: str) -> Draft202012Validator:
    contents = {
        p.name: json.loads(p.read_text()) for p in SCHEMA_DIR.glob("*.schema.json")
    }
    registry = Registry().with_resources(
        (c["$id"], Resource.from_contents(c)) for c in contents.values()
    )
    return Draft202012Validator(contents[name], registry=registry)


# ---------------------------------------------------------------------------
# canonical formatting


def test_canonical_bytes():
    g, _ = grope_from_expression(parse_expression("[x1,x2]"))
    text = dumps_grope(g)
    assert text.endswith("\n")
    assert '  "closed": false' in text  # two-space indent
    assert json.loads(text)  # well-formed


def test_caps_emitted_sorted():
    body = Grope(Stage(((Tip("t1"), Tip("t2")),)))
    cg = CappedGrope(body, {"c2": "t2", "c1": "t1"})
    doc = json.loads(dumps_capped(cg))
    assert list(doc["caps"]) == ["c1", "c2"]


def test_empty_sections_omitted():
    cg = two_cap_grope(generator(1))
    doc = json.loads(dumps_capped(cg))
    assert "spheres" not in doc
    mid, _ = contract(two_cap_grope(generator(1), generator(1)), 0, "c1", "c2")
    sph = json.loads(dumps_capped(mid))["spheres"][0]
    assert "pending" not in sph  # empty pushoff queue omitted


def _indent_dumps(doc) -> str:
    """The definition of the canonical form, and the oracle for canonical_dumps."""
    return json.dumps(doc, indent=2) + "\n"


# Text with non-ASCII letters, control characters, quotes, backslashes and
# lone surrogates, each of which json escapes in its own way.
json_text = st.text(
    st.one_of(
        st.characters(),
        st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\x7f", "\ud800", "\udfff", "\u2028"]),
    )
)
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 1e16, 1e-7, float("nan"), float("inf"), float("-inf")]),
    json_text,
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(json_text, inner, max_size=4),
    ),
    max_leaves=30,
)


@given(json_values)
def test_canonical_dumps_matches_indent_encoder(doc):
    assert canonical_dumps(doc) == _indent_dumps(doc)


class _Name(str):
    pass


class _Colour(enum.IntEnum):
    RED = 1


@pytest.mark.parametrize(
    "doc, name",
    [
        ({1: "int key"}, "int"),
        ({"a": [{2.5: None, True: 1, None: []}]}, "float"),
        ({"a": _Name("sub")}, "_Name"),
        ({_Name("key"): 1}, "_Name"),
        ([_Colour.RED, {"c": _Colour.RED}], "_Colour"),
    ],
    ids=["int-key", "float-bool-none-keys", "str-subclass", "str-subclass-key", "int-enum"],
)
def test_canonical_dumps_refuses_what_the_indent_encoder_converts(doc, name):
    """Only JSON values and package objects are written; json.dumps would convert these."""
    _indent_dumps(doc)
    with pytest.raises(TypeError, match=rf"\b{name}\b"):
        canonical_dumps(doc)


@pytest.mark.parametrize("doc", [{"a": [1, object()]}, {"a": {1, 2}}, {(1, 2): 3}, b"bytes"])
def test_canonical_dumps_raises_what_the_indent_encoder_raises(doc):
    """A TypeError that names the same type."""
    with pytest.raises(TypeError) as want:
        _indent_dumps(doc)
    name = re.search(r"(?:type|not) (\w+)", str(want.value)).group(1)
    with pytest.raises(TypeError, match=rf"\b{name}\b"):
        canonical_dumps(doc)


# ---------------------------------------------------------------------------
# the bytes of each document, against an independent oracle
#
# The oracle builds each document as plain dicts and lists from the data
# classes' fields alone, writing body paths and word text itself, and
# json.dumps writes it.


def _oracle_word(letters: tuple[int, ...]) -> str:
    if not letters:
        return "1"
    parts = []
    for letter, run in itertools.groupby(letters):
        exp = len(list(run)) * (1 if letter > 0 else -1)
        parts.append(f"x{abs(letter)}" if exp == 1 else f"x{abs(letter)}^{exp}")
    return "*".join(parts)


def _oracle_stage(stage) -> dict:
    def slot(s):
        return {"tip": s.tip_id} if isinstance(s, Tip) else {"stage": _oracle_stage(s)}

    return {"pairs": [[slot(a), slot(b)] for a, b in stage.pairs]}


def _oracle_grope(g) -> dict:
    return {"closed": g.closed, "root": _oracle_stage(g.root)}


def _oracle_end(end) -> dict:
    if isinstance(end, CapRef):
        return {"cap": end.cap_id}
    if isinstance(end, SphereRef):
        return {"sphere": end.sphere_id}
    return {"body": [[j, "beta" if side else "alpha"] for j, side in end.path]}


def _oracle_capped(cg) -> dict:
    doc = {
        "closed": cg.body.closed if cg.body is not None else False,
        "root": _oracle_stage(cg.body.root) if cg.body is not None else None,
        "caps": {cap: cg.caps[cap] for cap in sorted(cg.caps)},
        "intersections": [
            {
                "id": p.point_id,
                "endA": _oracle_end(p.end_a),
                "endB": _oracle_end(p.end_b),
                "label": _oracle_word(p.label.letters),
            }
            for p in cg.intersections
        ],
    }
    spheres = []
    for s in cg.spheres:
        sphere = {
            "id": s.sphere_id,
            "piece": s.piece,
            "capA": s.cap_a,
            "capB": s.cap_b,
            "label": _oracle_word(s.label.letters),
        }
        if s.pending:
            sphere["pending"] = [
                {"id": q.point_id, "other": _oracle_end(q.other), "label": _oracle_word(q.label.letters)}
                for q in s.pending
            ]
        spheres.append(sphere)
    if spheres:
        doc["spheres"] = spheres
    return doc


def _oracle_kernel(k) -> dict:
    return {
        "rank": k.rank,
        "gropes": [_oracle_capped(cg) for cg in k.gropes],
        "hyperbolicPairs": [list(pair) for pair in k.hyperbolic_pairs],
    }


def _oracle_result(r) -> dict:
    return {
        "stats": dict(r.stats),
        "spherePairs": [
            [{"grope": gi, "sphere": si}, {"grope": gj, "sphere": sj}]
            for (gi, si), (gj, sj) in r.sphere_pairs
        ],
        "gropes": [_oracle_capped(cg) for cg in r.gropes],
        "trace": list(r.trace),
    }


def _assert_capped_matches_the_oracle(cg) -> None:
    assert dumps_capped(cg) == _indent_dumps(_oracle_capped(cg))
    if cg.body is not None:
        assert dumps_grope(cg.body) == _indent_dumps(_oracle_grope(cg.body))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 5),
    st.integers(1, 3),
    st.lists(words, max_size=4),
    st.booleans(),
)
def test_random_capped_gropes_match_the_oracle(seed, grope_class, genus, labels, closed):
    cg = random_capped_grope(random.Random(seed), grope_class, labels, genus=genus)
    if closed:
        cg = CappedGrope(Grope(cg.body.root, closed=True), cg.caps, cg.intersections)
    _assert_capped_matches_the_oracle(cg)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(1, 2), st.booleans())
def test_kernels_results_and_mid_surgery_gropes_match_the_oracle(seed, labels, pairs, adversarial):
    """Generated kernels hold body ends; results hold sphere ends and husks with no body."""
    kernel = generate_kernel(seed, labels=labels, pair_count=pairs, adversarial=adversarial)
    assert dumps_kernel(kernel) == _indent_dumps(_oracle_kernel(kernel))
    split = full_split(kernel.gropes[0])
    _assert_capped_matches_the_oracle(split)
    try:
        cap_a, cap_b = find_duplicate_pair(split, 0)
        result = run_surgery(kernel, force=True)
    except PigeonholeFailure:
        return
    mid, sphere = contract(split, 0, cap_a, cap_b)  # its queue waits for a pushoff
    _assert_capped_matches_the_oracle(mid)
    assert dumps_result(result) == _indent_dumps(_oracle_result(result))


def _deep_capped_grope() -> CappedGrope:
    """Stages nested MAX_NESTING deep, with a point on the deepest stage."""
    slot, path = Tip("t0"), []
    for k in range(1, MAX_NESTING):
        slot = Stage(((Tip(f"t{k}"), slot),))
        path.append((0, 1))
    caps = {"c": "t", **{f"c{k}": f"t{k}" for k in range(MAX_NESTING)}}
    point = Intersection("i1", CapRef("c0"), BodyRef(tuple(path)), generator(1))
    return CappedGrope(Grope(Stage(((Tip("t"), slot),))), caps, (point,))


def test_the_deepest_documents_never_reach_json_dumps(monkeypatch):
    """A depth regression in the emitter shows here, not as a slow fallback."""
    kernel = generate_kernel(1, labels=MAX_NESTING + 1, adversarial=True)
    deep = _deep_capped_grope()

    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps was called")

    monkeypatch.setattr(json, "dumps", refuse)
    for kind, obj in (("kernel", kernel), ("capped", deep)):
        text = canonical_dumps(obj)
        back = loads_document(text)
        assert back[0] == kind and canonical_dumps(back[1]) == text


def test_the_deepest_documents_read_back_equal():
    """Equality walks the stage tree in a loop, so objects as deep as a document compare."""
    kernel = generate_kernel(1, labels=MAX_NESTING + 1, adversarial=True)
    assert loads_document(dumps_kernel(kernel))[1] == kernel
    deep = _deep_capped_grope()
    assert loads_document(dumps_capped(deep))[1] == deep


# ---------------------------------------------------------------------------
# kinds


def test_document_kind_detection():
    g, _ = grope_from_expression(parse_expression("[x1,x2]"))
    assert document_kind(json.loads(dumps_grope(g))) == "grope"
    cg = two_cap_grope(generator(1))
    assert document_kind(json.loads(dumps_capped(cg))) == "capped"
    k = generate_kernel(1, labels=1)
    assert document_kind(json.loads(dumps_kernel(k))) == "kernel"
    r = run_surgery(k)
    assert document_kind(json.loads(dumps_result(r))) == "result"


# ---------------------------------------------------------------------------
# round trips


def test_grope_round_trip():
    g, _ = grope_from_expression(parse_expression("[[x1,x2],[x3,x4]]"))
    text = dumps_grope(g)
    kind, back = loads_document(text)
    assert kind == "grope"
    assert back == g
    assert dumps_grope(back) == text


def test_capped_round_trip_with_body_refs():
    body = Grope(Stage(((Stage(((Tip("t1"), Tip("t2")),)), Tip("t3")),)))
    cg = CappedGrope(
        body,
        {"c1": "t1", "c2": "t2", "c3": "t3"},
        (
            Intersection("i1", CapRef("c1"), BodyRef(((0, 0),)), generator(1)),
            Intersection("i2", CapRef("c2"), CapRef("c3"), generator(2) ** -1),
        ),
    )
    text = dumps_capped(cg)
    kind, back = loads_document(text)
    assert kind == "capped"
    assert back == cg
    assert dumps_capped(back) == text


def test_mid_surgery_round_trip():
    cg = two_cap_grope(generator(1), generator(1))
    mid, _ = contract(cg, 0, "c1", "c2")
    text = dumps_capped(mid)
    _, back = loads_document(text)
    assert back == mid
    assert dumps_capped(back) == text


def test_kernel_and_result_round_trips():
    k = generate_kernel(11, labels=2)
    ktext = dumps_kernel(k)
    kind, kback = loads_document(ktext)
    assert kind == "kernel"
    assert dumps_kernel(kback) == ktext

    r = run_surgery(k)
    rtext = dumps_result(r)
    kind, rback = loads_document(rtext)
    assert kind == "result"
    assert dumps_result(rback) == rtext


def test_husk_round_trip():
    # After the last contraction the body is gone: root serializes as null.
    k = generate_kernel(3, labels=1)
    r = run_surgery(k)
    husk = r.gropes[0]
    assert husk.body is None
    text = dumps_capped(husk)
    assert json.loads(text)["root"] is None
    _, back = loads_document(text)
    assert back == husk


# ---------------------------------------------------------------------------
# strictness


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[1, 2]",
        '{"weird": 1}',
        '{"root": {"pairs": []}}',
        '{"root": {"pairs": [[{"tip": "t1"}, {"tip": "t2"}]]}, "extra": 1}',
        '{"root": {"pairs": [[{"tip": "t1"}]]}}',
        '{"root": {"pairs": [[{"tip": "t1"}, {"tipp": "t2"}]]}}',
    ],
)
def test_malformed_documents_rejected(text):
    with pytest.raises(ParseError):
        loads_document(text)


def test_stage_depth_is_bounded_with_location():
    """Stages nest at most MAX_NESTING deep; deeper is refused before any walk recurses."""
    kind, g = loads_document('{"root": %s}' % chain_stage_text(MAX_NESTING))
    assert (kind, class_of(g)) == ("grope", MAX_NESTING + 1)
    deep = chain_stage_text(MAX_NESTING + 1)
    for text, where in (
        ('{"root": %s}' % deep, "$.root:"),
        ('{"caps": {}, "root": %s}' % deep, "$.root:"),
        ('{"rank": 2, "hyperbolicPairs": [], "gropes": [{"root": %s}]}' % deep, "$.gropes[0].root:"),
    ):
        with pytest.raises(ParseError) as exc:
            loads_document(text)
        assert str(exc.value) == f"{where} stages nest deeper than {MAX_NESTING}"


def test_json_nesting_past_the_decoder_limit_is_a_parse_error():
    for text in ("[" * 100_000, '{"a": ' * 100_000):
        with pytest.raises(ParseError, match="nest too deeply"):
            loads_document(text)


def test_bad_label_rejected_with_location():
    text = json.dumps(
        {
            "root": {"pairs": [[{"tip": "t1"}, {"tip": "t2"}]]},
            "caps": {"c1": "t1", "c2": "t2"},
            "intersections": [
                {"id": "p", "endA": {"cap": "c1"}, "endB": {"cap": "c2"}, "label": "x1*"}
            ],
        }
    )
    with pytest.raises(ParseError) as exc:
        loads_document(text)
    assert "intersections[0].label" in str(exc.value)


def test_unknown_keys_rejected_everywhere():
    text = json.dumps(
        {
            "root": {"pairs": [[{"tip": "t1"}, {"tip": "t2"}]]},
            "caps": {"c1": "t1", "c2": "t2"},
            "intersections": [
                {
                    "id": "p",
                    "endA": {"cap": "c1"},
                    "endB": {"cap": "c2"},
                    "label": "x1",
                    "bonus": True,
                }
            ],
        }
    )
    with pytest.raises(ParseError) as exc:
        loads_document(text)
    assert "unknown keys" in str(exc.value)


TWO_TIPS = {"root": {"pairs": [[{"tip": "t1"}, {"tip": "t2"}]]}, "caps": {"c1": "t1", "c2": "t2"}}
SPHERE = {"id": "s", "piece": 0, "capA": "a", "capB": "b", "label": "1"}
BAD_STEP = 'expected [pairIndex, "alpha"|"beta"], got'


def _point_to(body) -> dict:
    return {"id": "p", "endA": {"cap": "c1"}, "endB": {"body": body}, "label": "1"}


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {"root": {"pairs": [[{"tip": "a"}, {"stage": 3}]]}},
            "$.root.pairs[0][1].stage: expected a stage object, got 3",
        ),
        (
            {"rank": 2, "hyperbolicPairs": [], "gropes": [5]},
            "$.gropes[0]: expected a capped grope object, got 5",
        ),
        (
            {**TWO_TIPS, "intersections": [[1]]},
            "$.intersections[0]: expected an intersection object, got [1]",
        ),
        ({**TWO_TIPS, "spheres": ["s"]}, "$.spheres[0]: expected a sphere object, got 's'"),
        (
            {**TWO_TIPS, "spheres": [{**SPHERE, "pending": [3]}]},
            "$.spheres[0].pending[0]: expected an object, got 3",
        ),
        (
            {"stats": {}, "gropes": [], "spherePairs": [[{"grope": 0, "sphere": "s"}, 4]]},
            "$.spherePairs[0]: expected sphere reference objects",
        ),
        (
            {**TWO_TIPS, "intersections": [_point_to([[0, "gamma"]])]},
            f"$.intersections[0].endB.body[0]: {BAD_STEP} [0, 'gamma']",
        ),
        (
            {**TWO_TIPS, "intersections": [_point_to("0a")]},
            "$.intersections[0].endB.body: expected list, got '0a'",
        ),
        (
            {**TWO_TIPS, "intersections": [_point_to([[True, "beta"]])]},
            f"$.intersections[0].endB.body[0]: {BAD_STEP} [True, 'beta']",
        ),
    ],
)
def test_malformed_parts_are_named_with_their_location(doc, message):
    with pytest.raises(ParseError) as exc:
        loads_document(json.dumps(doc))
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "parse, what",
    [(grope_from_doc, "a grope"), (kernel_from_doc, "a kernel"), (result_from_doc, "a result")],
)
def test_top_level_parsers_name_the_object_they_expected(parse, what):
    with pytest.raises(ParseError) as exc:
        parse([1])
    assert str(exc.value) == f"$: expected {what} object, got [1]"


# ---------------------------------------------------------------------------
# schema conformance


def test_grope_schema():
    v = _validator("grope.schema.json")
    g, _ = grope_from_expression(parse_expression("[[x1,x2],x3]"))
    v.validate(json.loads(dumps_grope(g)))


def test_capped_schema_including_mid_surgery():
    v = _validator("capped.schema.json")
    cg = two_cap_grope(generator(1), generator(1))
    v.validate(json.loads(dumps_capped(cg)))
    mid, _ = contract(cg, 0, "c1", "c2")
    v.validate(json.loads(dumps_capped(mid)))


def test_kernel_schema():
    v = _validator("kernel.schema.json")
    for seed in range(5):
        k = generate_kernel(seed, labels=2)
        v.validate(json.loads(dumps_kernel(k)))


def test_result_schema():
    v = _validator("result.schema.json")
    for seed in range(5):
        for m in (1, 2, 3):
            r = run_surgery(generate_kernel(seed, labels=m))
            v.validate(json.loads(dumps_result(r)))


def test_schema_rejects_junk():
    v = _validator("grope.schema.json")
    from jsonschema import ValidationError as SchemaError

    with pytest.raises(SchemaError):
        v.validate({"closed": False, "root": {"pairs": []}})
