"""Command-line interface.

Subcommands: validate, class, tips, boundary, lcs, split, contract,
pipeline, generate, render.  Files are JSON documents; "-" reads stdin.

Exit codes: 0 success; 1 operation failed (bad preconditions, failed
validation, unmet hypotheses, an output that cannot be written); 2
pigeonhole failure during surgery; 3 a growth guard tripped; 64 usage
error; 65 malformed input.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import re
import sys

from . import __version__
from .capped import CappedGrope, validate_capped
from .commutators import evaluate, parse_expression, parse_word
from .errors import (
    GropeError,
    GrowthLimitError,
    ParseError,
    PigeonholeFailure,
    ValidationError,
)
from .grope import Grope, boundary_word, class_of, tips as grope_tips, validate_grope
from .pipeline import check_hypotheses, generate_kernel, run_surgery, validate_kernel
from .moves import contract, pushoff
from .render import render_dot
from .serialize import _emit, loads_document
from .splitting import SplitLimits, full_split, split_cap, split_stage
from .words import DEFAULT_CUTOFF, lcs_depth

USAGE_ERROR = 64
DATA_ERROR = 65
_CHUNK = 8192  # pieces of a document joined into one write to stdout


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> "None":
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror}") from None


def _load(path: str, kinds: tuple[str, ...]):
    kind, obj = loads_document(_read_text(path))
    if kind not in kinds:
        raise ParseError(f"{path}: expected a {' or '.join(kinds)} document, found {kind}")
    return kind, obj


def _body_of(kind: str, obj) -> Grope:
    if kind == "grope":
        return obj
    if obj.body is None:
        raise ValidationError("this capped grope is fully surgered; it has no body")
    return obj.body


def _limits(args) -> SplitLimits:
    """The guards from the flags, then GROPE_MAX_GENUS, then SplitLimits' defaults."""
    max_genus = args.max_genus
    env = os.environ.get("GROPE_MAX_GENUS")
    if max_genus is None and env is not None:
        try:
            max_genus = int(env)
        except ValueError:
            raise ParseError(f"GROPE_MAX_GENUS must be an integer, got {env!r}") from None
    given = {"max_first_stage_genus": max_genus, "max_intersections": args.max_intersections}
    return SplitLimits(**{name: v for name, v in given.items() if v is not None})


def _load_valid_capped(path: str) -> CappedGrope:
    _, cg = _load(path, ("capped",))
    if problems := validate_capped(cg):
        raise ValidationError("invalid capped grope: " + "; ".join(problems))
    return cg


def _check_trace(path: str | None) -> None:
    """Refuse a --trace path that is a directory or in a missing one, before any work."""
    if path is None or (os.path.isdir(os.path.dirname(path) or ".") and not os.path.isdir(path)):
        return
    code = errno.EISDIR if os.path.isdir(path) else errno.ENOENT
    raise OSError(code, os.strerror(code), path)


def _write_trace(path: str | None, entries: list[dict]) -> None:
    if path is None:
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(entry, separators=(", ", ": ")) + "\n" for entry in entries)
    except OSError as e:  # a failed write or close names no file
        raise OSError(e.errno, e.strerror, path) from None


def _write_document(doc) -> None:
    """Write the canonical text of doc to stdout as it is produced.

    The emitter's pieces go out in joined chunks of _CHUNK, so the whole text
    is never held at once, and unbuffered stdout is not written piece by
    piece.  A write that fails leaves the part of the document already out.
    """
    pieces: list[str] = []

    def put(piece: str) -> None:
        pieces.append(piece)
        if len(pieces) == _CHUNK:
            sys.stdout.write("".join(pieces))
            pieces.clear()

    _emit(doc, "\n", put)
    pieces.append("\n")
    sys.stdout.write("".join(pieces))


_STEP = re.compile(r"(\d+)([ab])")


def _parse_stage_path(text: str):
    steps = []
    rest = text.strip()
    if rest in ("", "root"):
        raise ParseError("the first stage is never split; give a deeper path like 0a.1b")
    for part in rest.split("."):
        m = _STEP.fullmatch(part.strip())
        if m is None:
            raise ParseError(f"bad path step {part!r}: expected e.g. 0a or 2b")
        steps.append((int(m.group(1)), "ab".index(m.group(2))))
    return tuple(steps)


def cmd_validate(args) -> int:
    kind, obj = _load(args.file, ("grope", "capped", "kernel", "result"))
    if kind == "grope":
        problems = validate_grope(obj)
    elif kind == "capped":
        problems = validate_capped(obj, strict=args.strict)
    elif kind == "kernel":
        problems = validate_kernel(obj, strict=args.strict)
    else:
        problems, held = [], []
        for gi, husk in enumerate(obj.gropes):
            problems += [f"grope {gi}: {issue}" for issue in validate_capped(husk)]
            held.append({s.sphere_id for s in husk.spheres})
        for k, pair in enumerate(obj.sphere_pairs):
            for gi, sphere in pair:
                if not 0 <= gi < len(held):
                    problems.append(f"sphere pair {k}: no grope {gi}")
                elif sphere not in held[gi]:
                    problems.append(f"sphere pair {k}: grope {gi} has no sphere {sphere!r}")
    for issue in problems:
        print(issue)
    if problems:
        return 1
    print(f"ok: valid {kind}")
    return 0


def cmd_class(args) -> int:
    kind, obj = _load(args.file, ("grope", "capped"))
    print(class_of(_body_of(kind, obj)))
    return 0


def cmd_tips(args) -> int:
    kind, obj = _load(args.file, ("grope", "capped"))
    names = grope_tips(_body_of(kind, obj))
    if args.count:
        print(len(names))
    else:
        for name in names:
            print(name)
    return 0


def cmd_boundary(args) -> int:
    kind, obj = _load(args.file, ("grope", "capped"))
    body = _body_of(kind, obj)
    assignment = None
    if args.assign:
        assignment = {}
        for item in args.assign:
            tip, eq, word = item.partition("=")
            if not eq:
                raise ParseError(f"bad assignment {item!r}: expected tip=word")
            assignment[tip] = parse_word(word)
    print(boundary_word(body, assignment))
    return 0


def cmd_lcs(args) -> int:
    if args.word:
        word = parse_word(args.expression)
    else:
        word = evaluate(parse_expression(args.expression))
    print(lcs_depth(word, args.cutoff))
    return 0


def cmd_split(args) -> int:
    cg = _load_valid_capped(args.file)
    limits = _limits(args)
    trace: list[dict] = []
    if args.cap is not None:
        out = split_cap(cg, args.cap, limits=limits, trace=trace)
    elif args.stage is not None:
        out = split_stage(cg, _parse_stage_path(args.stage), limits=limits, trace=trace)
    else:
        out = full_split(cg, limits=limits, trace=trace)
    _write_trace(args.trace, trace)
    _write_document(out)
    return 0


def cmd_contract(args) -> int:
    cg = _load_valid_capped(args.file)
    cap_a, comma, cap_b = args.caps.partition(",")
    if not comma or not cap_a or not cap_b:
        raise ParseError(f"bad --caps {args.caps!r}: expected capA,capB")
    trace: list[dict] = []
    out, sphere = contract(cg, args.pair, cap_a.strip(), cap_b.strip(), trace=trace)
    if not args.skip_pushoff:
        out = pushoff(out, sphere.sphere_id, trace=trace)
    _write_trace(args.trace, trace)
    _write_document(out)
    return 0


def cmd_pipeline(args) -> int:
    _, kernel = _load(args.file, ("kernel",))
    if args.check:
        problems = validate_kernel(kernel)
        if problems:
            for issue in problems:
                print(issue, file=sys.stderr)
            return 1
        report = check_hypotheses(kernel)
        _write_document(report.as_doc())
        return 0 if report.ok else 1
    result = run_surgery(kernel, force=args.force, limits=_limits(args))
    _write_trace(args.trace, list(result.trace))
    if args.stats_only:
        _write_document(result.stats)
    else:
        _write_document(result)
    return 0


def cmd_generate(args) -> int:
    kernel = generate_kernel(
        args.seed,
        labels=args.labels,
        grope_class=args.grope_class,
        pair_count=args.pairs,
        density=args.density,
        adversarial=args.adversarial,
    )
    _write_document(kernel)
    return 0


def cmd_render(args) -> int:
    kind, obj = _load(args.file, ("grope", "capped"))
    sys.stdout.write(render_dot(obj))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gropes", description=__doc__.split("\n\n")[1])
    parser.add_argument("--version", action="version", version=f"gropes {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_: str, file: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        if file:
            p.add_argument("file", help="JSON document, or - for stdin")
        return p

    def add_trace(p: argparse.ArgumentParser, limits: bool = True) -> None:
        p.add_argument("--trace", metavar="FILE", help="write one JSON line per rewrite or move")
        if limits:
            p.add_argument("--max-genus", type=int, help="first-stage genus guard")
            p.add_argument("--max-intersections", type=int, help="intersection count guard")

    p = add("validate", cmd_validate, "check a document's structural invariants")
    p.add_argument("--strict", action="store_true", help="require cap-only endpoints")

    add("class", cmd_class, "print the class of a grope")

    p = add("tips", cmd_tips, "list tip ids in traversal order")
    p.add_argument("--count", action="store_true", help="print only the number of tips")

    p = add("boundary", cmd_boundary, "print the boundary word of a grope")
    p.add_argument(
        "--assign",
        action="append",
        metavar="TIP=WORD",
        help="assign a word to a tip (default: distinct generators in order)",
    )

    p = add("lcs", cmd_lcs, "lower-central-series depth of an expression's value", file=False)
    p.add_argument("expression", help="commutator expression, e.g. '[x1,x2]'")
    p.add_argument(
        "--cutoff",
        type=int,
        default=DEFAULT_CUTOFF,
        help="highest degree expanded (default %(default)s); '>=N' means the word is "
        "deeper than the cutoff",
    )
    p.add_argument("--word", action="store_true", help="treat the input as a plain word")

    p = add("split", cmd_split, "split caps and stages (full split by default)")
    p.add_argument("--cap", help="split this cap only")
    p.add_argument("--stage", metavar="PATH", help="split this stage only, e.g. 0a.1b")
    add_trace(p)

    p = add("contract", cmd_contract, "contract a piece along two caps, then push off")
    p.add_argument("--pair", type=int, required=True, help="first-stage pair index")
    p.add_argument("--caps", required=True, metavar="A,B", help="the two caps")
    p.add_argument("--skip-pushoff", action="store_true")
    add_trace(p, limits=False)

    p = add("pipeline", cmd_pipeline, "run the full surgery on a kernel")
    p.add_argument("--check", action="store_true", help="only report the hypotheses")
    p.add_argument("--force", action="store_true", help="attempt surgery even if unmet")
    p.add_argument("--stats-only", action="store_true")
    add_trace(p)

    p = add("generate", cmd_generate, "generate a reproducible kernel", file=False)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--labels", type=int, required=True, metavar="M")
    p.add_argument("--class", dest="grope_class", type=int, default=None)
    p.add_argument("--pairs", type=int, default=1)
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument(
        "--adversarial",
        action="store_true",
        help="class == labels with all-distinct values: surgery must fail",
    )

    add("render", cmd_render, "emit Graphviz DOT")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_trace(getattr(args, "trace", None))
        code = args.func(args)
        sys.stdout.flush()  # a failed write to stdout surfaces here, not at exit
        return code
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return DATA_ERROR
    except PigeonholeFailure as e:
        print(f"pigeonhole failure: {e}", file=sys.stderr)
        return 2
    except GrowthLimitError as e:
        print(f"growth limit: {e}", file=sys.stderr)
        return 3
    except GropeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:  # the --trace file or stdout, a closed pipe included
        if e.filename is None:  # stdout: what it still buffers goes nowhere at exit
            os.dup2(devnull := os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            os.close(devnull)
        where = "stdout" if e.filename is None else e.filename
        print(f"error: cannot write {where}: {e.strerror}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
