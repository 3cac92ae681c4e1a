"""Canonical JSON serialization: round trips, strictness, schemas."""

from __future__ import annotations

import enum
import json
from pathlib import Path

import pytest
from hypothesis import given
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
    Stage,
    Tip,
    canonical_dumps,
    class_of,
    contract,
    document_kind,
    dumps_capped,
    dumps_kernel,
    dumps_result,
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

from conftest import chain_stage_text, dumps_grope, two_cap_grope

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
    "doc",
    [
        {1: "int key"},
        {"a": [{2.5: None, True: 1, None: []}]},
        {"a": _Name("sub")},
        {_Name("key"): 1},
        [_Colour.RED, {"c": _Colour.RED}],
    ],
    ids=["int-key", "float-bool-none-keys", "str-subclass", "str-subclass-key", "int-enum"],
)
def test_canonical_dumps_falls_back_to_the_indent_encoder(doc):
    assert canonical_dumps(doc) == _indent_dumps(doc)


@pytest.mark.parametrize("doc", [{"a": [1, object()]}, {"a": {1, 2}}, {(1, 2): 3}, b"bytes"])
def test_canonical_dumps_raises_what_the_indent_encoder_raises(doc):
    with pytest.raises(TypeError) as want:
        _indent_dumps(doc)
    with pytest.raises(TypeError) as got:
        canonical_dumps(doc)
    assert str(got.value) == str(want.value)


def test_canonical_dumps_refuses_a_cycle_as_the_indent_encoder_does():
    doc: dict = {"a": []}
    doc["a"].append(doc)
    with pytest.raises(ValueError, match="Circular reference detected"):
        canonical_dumps(doc)


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
