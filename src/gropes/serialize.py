"""Canonical JSON for gropes, capped gropes, kernels, and surgery results.

Serialization is byte-stable: object -> text -> object -> text produces
identical bytes.  The objects are the document model: one emitter, _emit,
writes JSON values and package objects alike, each object as its view in
_VIEWS, a dict in key order whose values may be objects again.  Cap
tables are written sorted by cap id and intersections in their stored
(id-sorted) order.  The text of a document is exactly json.dumps of its
views with indent=2, plus a newline: ASCII only, with \\uXXXX escapes, ","
at line end, ": " between key and value, and {} or [] for an empty
container.  Parsers reject unknown keys so format mistakes surface early,
and report a JSON-path-style location on errors.

Labels use word syntax ("1", "x1*x2^-1"); body endpoints use explicit paths
[[pairIndex, "alpha"|"beta"], ...] from the root stage.
"""

from __future__ import annotations

import json
from typing import Any

from .capped import (
    BodyRef,
    CappedGrope,
    CapRef,
    Intersection,
    PendingPushoff,
    SheetRef,
    SphereRecord,
    SphereRef,
)
from .commutators import MAX_NESTING, parse_word
from .errors import ParseError, ValidationError
from .grope import Grope, Slot, Stage, Tip, _path_from_doc, path_doc
from .pipeline import SurgeryKernel, SurgeryResult
from .words import GroupWord


_str = json.encoder.encode_basestring_ascii
_int = int.__repr__
_CONSTANTS = {None: "null", True: "true", False: "false"}


def canonical_dumps(doc: Any) -> str:
    """json.dumps(doc, indent=2) plus a newline, without the pure-Python encoder.

    json.dumps leaves its C encoder whenever indent is set, so this writes
    the same text in one pass.  It writes JSON values and package objects
    only: str, int, float, bool, None, list, tuple and dict (str keys) of
    exactly those types, and the objects in _VIEWS.  Anything else,
    subclasses included, raises TypeError.
    """
    out: list[str] = []
    _emit(doc, "\n", out.append)
    out.append("\n")
    return "".join(out)


dumps_capped = dumps_kernel = dumps_result = canonical_dumps


def _emit(o: Any, nl: str, put) -> None:
    """Put the text of o, whose lines start at nl (a newline and indent).

    A package object is replaced by its view within the same call, after
    the JSON branches: a stage costs the four frames of its plain document,
    which keeps the deepest stage tree a parser admits inside the recursion
    limit, and a JSON value pays nothing for the views.
    """
    while True:
        t = type(o)
        if t is dict:
            if not o:
                put("{}")
                return
            inner = nl + "  "
            sep = "{" + inner
            for k, v in o.items():
                if type(k) is not str:
                    raise TypeError(f"keys must be str, not {type(k).__name__}")
                tv = type(v)
                if tv is str:
                    put(sep + _str(k) + ": " + _str(v))
                elif tv is int:
                    put(sep + _str(k) + ": " + _int(v))
                else:
                    put(sep + _str(k) + ": ")
                    _emit(v, inner, put)
                sep = "," + inner
            put(nl + "}")
        elif t is list or t is tuple:
            if not o:
                put("[]")
                return
            inner = nl + "  "
            sep = "[" + inner
            for v in o:
                tv = type(v)
                if tv is str:
                    put(sep + _str(v))
                elif tv is int:
                    put(sep + _int(v))
                else:
                    put(sep)
                    _emit(v, inner, put)
                sep = "," + inner
            put(nl + "]")
        elif t is str:
            put(_str(o))
        elif t is int:
            put(_int(o))
        elif t is float:
            put(json.dumps(o))
        elif t is bool or o is None:
            put(_CONSTANTS[o])
        elif (view := _VIEWS.get(t)) is not None:
            o = view(o)
            continue
        else:
            raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
        return


def _capped_view(cg: CappedGrope) -> dict:
    view = {"closed": False, "root": None} if cg.body is None else _VIEWS[Grope](cg.body)
    view["caps"] = {cap: cg.caps[cap] for cap in sorted(cg.caps)}
    view["intersections"] = cg.intersections
    if cg.spheres:
        view["spheres"] = cg.spheres
    return view


def _sphere_view(s: SphereRecord) -> dict:
    view: dict[str, Any] = {
        "id": s.sphere_id,
        "piece": s.piece,
        "capA": s.cap_a,
        "capB": s.cap_b,
        "label": str(s.label),
    }
    if s.pending:
        view["pending"] = [
            {"id": q.point_id, "other": _end(q.other), "label": str(q.label)} for q in s.pending
        ]
    return view


def _end(end: SheetRef) -> dict:
    if isinstance(end, CapRef):
        return {"cap": end.cap_id}
    if isinstance(end, SphereRef):
        return {"sphere": end.sphere_id}
    return {"body": path_doc(end.path)}


# A stage is viewed as the slot that holds it; a root stage is written as
# {"pairs": ...} by the view of its grope.
_VIEWS = {
    Tip: lambda t: {"tip": t.tip_id},
    Stage: lambda s: {"stage": {"pairs": s.pairs}},
    Grope: lambda g: {"closed": g.closed, "root": {"pairs": g.root.pairs}},
    Intersection: lambda p: {
        "id": p.point_id, "endA": _end(p.end_a), "endB": _end(p.end_b), "label": str(p.label)
    },
    SphereRecord: _sphere_view,
    CappedGrope: _capped_view,
    SurgeryKernel: lambda k: {
        "rank": k.rank, "gropes": k.gropes, "hyperbolicPairs": k.hyperbolic_pairs
    },
    SurgeryResult: lambda r: {
        "stats": r.stats,
        "spherePairs": [
            [{"grope": gi, "sphere": si}, {"grope": gj, "sphere": sj}]
            for (gi, si), (gj, sj) in r.sphere_pairs
        ],
        "gropes": r.gropes,
        "trace": r.trace,
    },
}


def _check_keys(doc: Any, allowed: tuple[str, ...], ctx: str, what: str) -> None:
    """Refuse doc unless it is a JSON object whose keys all lie in allowed.

    what is the message for a non-object, after "expected "; a "{!r}" in it
    shows the value.
    """
    if not isinstance(doc, dict):
        raise ParseError(f"{ctx}: expected {what.format(doc)}")
    extra = set(doc) - set(allowed)
    if extra:
        raise ParseError(f"{ctx}: unknown keys {sorted(extra)}")


def _get(doc: dict, key: str, kind: type, ctx: str, default: Any = ...) -> Any:
    if key not in doc:
        if default is not ...:
            return default
        raise ParseError(f"{ctx}: missing key {key!r}")
    value = doc[key]
    if kind is bool and not isinstance(value, bool):
        raise ParseError(f"{ctx}.{key}: expected a boolean, got {value!r}")
    if kind is int and (isinstance(value, bool) or not isinstance(value, int)):
        raise ParseError(f"{ctx}.{key}: expected an integer, got {value!r}")
    if kind in (str, list, dict) and not isinstance(value, kind):
        raise ParseError(f"{ctx}.{key}: expected {kind.__name__}, got {value!r}")
    return value


def _word_from_doc(doc: Any, ctx: str) -> GroupWord:
    if not isinstance(doc, str):
        raise ParseError(f"{ctx}: expected a word string, got {doc!r}")
    try:
        return parse_word(doc)
    except ParseError as e:
        raise ParseError(f"{ctx}: bad word {doc!r}: {e}") from None


def slot_from_doc(doc: Any, ctx: str, depth: int = 1) -> Slot:
    if not isinstance(doc, dict):
        raise ParseError(f"{ctx}: expected a slot object, got {doc!r}")
    if set(doc) == {"tip"}:
        tip = _get(doc, "tip", str, ctx)
        return Tip(tip)
    if set(doc) == {"stage"}:
        return stage_from_doc(doc["stage"], f"{ctx}.stage", depth + 1)
    raise ParseError(f"{ctx}: a slot has exactly one of the keys 'tip' or 'stage'")


def stage_from_doc(doc: Any, ctx: str, depth: int = 1) -> Stage:
    """Parse a stage at the given depth (the root is 1), refusing depth > MAX_NESTING.

    Every walk over a stage tree recurses once per stage, so the bound keeps
    them all inside the interpreter's recursion limit.
    """
    if depth > MAX_NESTING:
        raise ParseError(f"{ctx.partition('.pairs')[0]}: stages nest deeper than {MAX_NESTING}")
    _check_keys(doc, ("pairs",), ctx, "a stage object, got {!r}")
    pairs_doc = _get(doc, "pairs", list, ctx)
    if not pairs_doc:
        raise ParseError(f"{ctx}.pairs: a stage must have genus >= 1")
    pairs = []
    for j, pair in enumerate(pairs_doc):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"{ctx}.pairs[{j}]: expected [alphaSlot, betaSlot]")
        pairs.append(
            (
                slot_from_doc(pair[0], f"{ctx}.pairs[{j}][0]", depth),
                slot_from_doc(pair[1], f"{ctx}.pairs[{j}][1]", depth),
            )
        )
    return Stage(tuple(pairs))


def grope_from_doc(doc: Any, ctx: str = "$") -> Grope:
    _check_keys(doc, ("closed", "root"), ctx, "a grope object, got {!r}")
    closed = _get(doc, "closed", bool, ctx, default=False)
    return Grope(stage_from_doc(_get(doc, "root", dict, ctx), f"{ctx}.root"), closed)


def end_from_doc(doc: Any, ctx: str) -> SheetRef:
    if not isinstance(doc, dict) or len(doc) != 1:
        raise ParseError(f"{ctx}: an endpoint has exactly one of 'cap', 'body', 'sphere'")
    if "cap" in doc:
        return CapRef(_get(doc, "cap", str, ctx))
    if "sphere" in doc:
        return SphereRef(_get(doc, "sphere", str, ctx))
    if "body" in doc:
        return BodyRef(_path_from_doc(doc["body"], f"{ctx}.body"))
    raise ParseError(f"{ctx}: an endpoint has exactly one of 'cap', 'body', 'sphere'")


def intersection_from_doc(doc: Any, ctx: str) -> Intersection:
    _check_keys(doc, ("id", "endA", "endB", "label"), ctx, "an intersection object, got {!r}")
    try:
        return Intersection(
            _get(doc, "id", str, ctx),
            end_from_doc(_get(doc, "endA", dict, ctx), f"{ctx}.endA"),
            end_from_doc(_get(doc, "endB", dict, ctx), f"{ctx}.endB"),
            _word_from_doc(_get(doc, "label", str, ctx), f"{ctx}.label"),
        )
    except ValidationError as e:
        raise ParseError(f"{ctx}: {e}") from None


def sphere_from_doc(doc: Any, ctx: str) -> SphereRecord:
    _check_keys(
        doc, ("id", "piece", "capA", "capB", "label", "pending"), ctx, "a sphere object, got {!r}"
    )
    pending = []
    for k, q in enumerate(_get(doc, "pending", list, ctx, default=[])):
        qctx = f"{ctx}.pending[{k}]"
        _check_keys(q, ("id", "other", "label"), qctx, "an object, got {!r}")
        pending.append(
            PendingPushoff(
                _get(q, "id", str, qctx),
                end_from_doc(_get(q, "other", dict, qctx), f"{qctx}.other"),
                _word_from_doc(_get(q, "label", str, qctx), f"{qctx}.label"),
            )
        )
    return SphereRecord(
        _get(doc, "id", str, ctx),
        _get(doc, "piece", int, ctx),
        _get(doc, "capA", str, ctx),
        _get(doc, "capB", str, ctx),
        _word_from_doc(_get(doc, "label", str, ctx), f"{ctx}.label"),
        tuple(pending),
    )


def capped_from_doc(doc: Any, ctx: str = "$") -> CappedGrope:
    keys = ("closed", "root", "caps", "intersections", "spheres")
    _check_keys(doc, keys, ctx, "a capped grope object, got {!r}")
    root_doc = doc.get("root")
    if root_doc is None:
        body = None
    else:
        closed = _get(doc, "closed", bool, ctx, default=False)
        body = Grope(stage_from_doc(root_doc, f"{ctx}.root"), closed)
    caps_doc = _get(doc, "caps", dict, ctx, default={})
    caps = {}
    for cap, tip in caps_doc.items():
        if not isinstance(tip, str):
            raise ParseError(f"{ctx}.caps.{cap}: expected a tip id string, got {tip!r}")
        caps[cap] = tip
    points = [
        intersection_from_doc(p, f"{ctx}.intersections[{k}]")
        for k, p in enumerate(_get(doc, "intersections", list, ctx, default=[]))
    ]
    spheres = [
        sphere_from_doc(s, f"{ctx}.spheres[{k}]")
        for k, s in enumerate(_get(doc, "spheres", list, ctx, default=[]))
    ]
    return CappedGrope(body, caps, tuple(points), tuple(spheres))


def kernel_from_doc(doc: Any, ctx: str = "$") -> SurgeryKernel:
    _check_keys(doc, ("rank", "gropes", "hyperbolicPairs"), ctx, "a kernel object, got {!r}")
    rank = _get(doc, "rank", int, ctx)
    gropes = [
        capped_from_doc(g, f"{ctx}.gropes[{k}]")
        for k, g in enumerate(_get(doc, "gropes", list, ctx))
    ]
    pairs = []
    for k, pair in enumerate(_get(doc, "hyperbolicPairs", list, ctx)):
        good = (
            isinstance(pair, list)
            and len(pair) == 2
            and all(isinstance(i, int) and not isinstance(i, bool) for i in pair)
        )
        if not good:
            raise ParseError(f"{ctx}.hyperbolicPairs[{k}]: expected [i, j], got {pair!r}")
        pairs.append((pair[0], pair[1]))
    try:
        return SurgeryKernel(rank, tuple(gropes), tuple(pairs))
    except ValidationError as e:
        raise ParseError(f"{ctx}: {e}") from None


def result_from_doc(doc: Any, ctx: str = "$") -> SurgeryResult:
    _check_keys(doc, ("stats", "spherePairs", "gropes", "trace"), ctx, "a result object, got {!r}")
    stats = _get(doc, "stats", dict, ctx)
    gropes = [
        capped_from_doc(g, f"{ctx}.gropes[{k}]")
        for k, g in enumerate(_get(doc, "gropes", list, ctx))
    ]
    pairs = []
    for k, pair in enumerate(_get(doc, "spherePairs", list, ctx)):
        pctx = f"{ctx}.spherePairs[{k}]"
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"{pctx}: expected a two-element list")
        ends = []
        for side in pair:
            _check_keys(side, ("grope", "sphere"), pctx, "sphere reference objects")
            ends.append((_get(side, "grope", int, pctx), _get(side, "sphere", str, pctx)))
        pairs.append((ends[0], ends[1]))
    trace = _get(doc, "trace", list, ctx, default=[])
    return SurgeryResult(tuple(gropes), tuple(pairs), tuple(trace), dict(stats))


def document_kind(doc: Any) -> str:
    """Classify a parsed JSON document by its top-level keys."""
    if not isinstance(doc, dict):
        raise ParseError("$: expected a JSON object at the top level")
    if "hyperbolicPairs" in doc:
        return "kernel"
    if "spherePairs" in doc:
        return "result"
    if "caps" in doc or "intersections" in doc or "spheres" in doc:
        return "capped"
    if "root" in doc:
        return "grope"
    raise ParseError("$: not a grope, capped grope, kernel, or result document")


def loads_document(text: str):
    """Parse any supported document, returning (kind, object)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg} (line {e.lineno}, column {e.colno})") from None
    except RecursionError:
        raise ParseError("invalid JSON: arrays and objects nest too deeply to decode") from None
    kind = document_kind(doc)
    parser = {
        "kernel": kernel_from_doc,
        "result": result_from_doc,
        "capped": capped_from_doc,
        "grope": grope_from_doc,
    }[kind]
    return kind, parser(doc)
