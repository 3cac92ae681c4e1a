"""Graphviz DOT rendering of gropes and capped gropes.

Stages are boxes annotated with genus, tips and caps are ellipses (caps show
their label values), spheres are double circles.  Tree edges are solid and
tagged with the pair index and side; intersections are dashed edges directed
from endpoint A to endpoint B and labeled with the word read that way.
Output is deterministic: stages in depth-first order, intersections in their
stored id order.
"""

from __future__ import annotations

from .capped import BodyRef, CappedGrope, CapRef, SheetRef, value_keys_by_cap
from .grope import Grope, Path, Tip, iter_stages
from .words import GroupWord


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _stage_name(path: Path) -> str:
    return "s" + "".join(f"_{j}{'ab'[side]}" for j, side in path)


def _step_label(j: int, side: int) -> str:
    return f"{j}{'ab'[side]}"


def _end_node(end: SheetRef) -> str:
    if isinstance(end, CapRef):
        return f"cap_{end.cap_id}"
    if isinstance(end, BodyRef):
        return _stage_name(end.path)
    return f"sphere_{end.sphere_id}"


def render_dot(obj: Grope | CappedGrope) -> str:
    """The DOT digraph of a grope or capped grope."""
    capped = isinstance(obj, CappedGrope)
    body = obj.body if capped else obj
    tip_to_cap = obj.tip_to_cap if capped else {}
    values = value_keys_by_cap(obj) if capped else {}

    lines = ["digraph grope {", "  rankdir=TB;"]

    def leaf(tip: Tip) -> str:
        cap = tip_to_cap.get(tip.tip_id)
        if cap is None:
            name = f"tip_{tip.tip_id}"
            label = tip.tip_id
        else:
            name = f"cap_{cap}"
            shown = ", ".join(str(GroupWord(v)) for v in sorted(values[cap]))
            label = f"{cap} {{{shown}}}"
        lines.append(f"  {_quote(name)} [shape=ellipse, label={_quote(label)}];")
        return name

    if body is not None:
        for path, stage in iter_stages(body):
            me = _stage_name(path)
            lines.append(
                f"  {_quote(me)} [shape=box, label={_quote(f'genus {stage.genus}')}];"
            )
            for j, (a, b) in enumerate(stage.pairs):
                for side, slot in ((0, a), (1, b)):
                    if isinstance(slot, Tip):
                        child = leaf(slot)
                    else:
                        child = _stage_name(path + ((j, side),))
                    lines.append(
                        f"  {_quote(me)} -> {_quote(child)} "
                        f"[label={_quote(_step_label(j, side))}];"
                    )

    if capped:
        for s in obj.spheres:
            name = f"sphere_{s.sphere_id}"
            lines.append(f"  {_quote(name)} [shape=doublecircle, label={_quote(s.sphere_id)}];")
        for p in obj.intersections:
            lines.append(
                f"  {_quote(_end_node(p.end_a))} -> {_quote(_end_node(p.end_b))} "
                f"[style=dashed, label={_quote(str(p.label))}];"
            )

    lines.append("}")
    return "\n".join(lines) + "\n"
