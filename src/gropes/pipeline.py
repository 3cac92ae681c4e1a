"""The surgery pipeline: from a capped-grope kernel to paired null spheres.

A kernel is a collection of capped gropes with a hyperbolic pairing: the
gropes come in dual pairs whose pieces sit parallel to each other.  When the
gropes have class at least one more than the number of distinct label values
present, every piece produced by full splitting must carry two caps with the
same value (there are more caps than values), and contracting along such a
pair followed by pushoff yields a sphere all of whose recorded intersection
labels are the identity.  Doing this to every piece of every grope converts
the kernel into families of identity-labeled spheres that inherit the
hyperbolic pairing piece by piece.

The counting argument genuinely needs class >= labels + 1, not class >=
labels; reports expose both readings because the two thresholds are easy to
conflate.  It can also fail when a piece owns a clean cap alongside caps
carrying every value exactly once; run_surgery then raises PigeonholeFailure
rather than pretending.  generate_kernel always gives every cap at least one
labeled intersection, which restores the guarantee for generated kernels.

run_surgery splits each grope fully and hands the state it split on to the
sweep in gropes.moves, which contracts and pushes off every piece in one
pass over the same index of its points.  This module keeps kernel
validation, the hypothesis report, replay_trace and the generators.

The generators share one pair of tree builders, _random_stage and
_random_slot, and one way of naming: a tip is t<n> when it is the nth tip
made, and tips are made pair by pair, alpha before beta, so the list of ids
a builder fills is already the body's traversal order and its caps c1, c2,
... need no second walk of the tree.  Points are numbered i1, i2, ... as
they are drawn.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Iterable

from .capped import (
    BodyRef,
    CappedGrope,
    CapRef,
    Intersection,
    is_pi1_null,
    label_keys,
    validate_capped,
)
from .commutators import MAX_NESTING
from .errors import GropeError, HypothesisError, ValidationError
from .grope import Grope, Path, Slot, Stage, Tip, _path_from_doc, class_of
from .moves import _contract_at, _pushoff_at, _sweep
from .splitting import SplitLimits, _full_split, _RewriteState, _split_cap_at, _split_stage_at
from .words import IDENTITY, GroupWord, generator


@dataclass(frozen=True)
class SurgeryKernel:
    """Capped gropes plus the pairing of dual gropes by index."""

    rank: int
    gropes: tuple[CappedGrope, ...]
    hyperbolic_pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValidationError(f"rank must be >= 0, got {self.rank}")
        object.__setattr__(self, "gropes", tuple(self.gropes))
        pairs = tuple(tuple(p) for p in self.hyperbolic_pairs)
        for p in pairs:
            if len(p) != 2:
                raise ValidationError(f"a hyperbolic pair has two indices, got {p!r}")
        object.__setattr__(self, "hyperbolic_pairs", pairs)


def validate_kernel(kernel: SurgeryKernel, strict: bool = False) -> list[str]:
    """Structural violations as human-readable strings; empty means valid."""
    problems: list[str] = []
    for gi, cg in enumerate(kernel.gropes):
        if cg.body is None:
            problems.append(f"grope {gi}: no body")
        for issue in validate_capped(cg, strict=strict, rank=kernel.rank):
            problems.append(f"grope {gi}: {issue}")
    seen: dict[int, int] = {}
    for k, (i, j) in enumerate(kernel.hyperbolic_pairs):
        if i == j:
            problems.append(f"pair {k}: a grope cannot be its own dual")
        for idx in (i, j):
            if not 0 <= idx < len(kernel.gropes):
                problems.append(f"pair {k}: no grope {idx}")
            elif idx in seen:
                problems.append(f"pair {k}: grope {idx} already paired (pair {seen[idx]})")
            else:
                seen[idx] = k
    unpaired = set(range(len(kernel.gropes))) - set(seen)
    for idx in sorted(unpaired):
        problems.append(f"grope {idx} is not in any hyperbolic pair")
    return problems


@dataclass(frozen=True)
class HypothesisReport:
    """Label count versus class, under both threshold conventions.

    ok is the reading the surgery actually needs (class >= labels + 1);
    boundary_ok is the weaker off-by-one reading (class >= labels) that does
    NOT suffice: with class == labels a piece can carry every value exactly
    once and the pigeonhole finds nothing.
    """

    label_count: int
    min_class: int

    @property
    def required_class(self) -> int:
        return self.label_count + 1

    @property
    def ok(self) -> bool:
        return self.min_class >= self.label_count + 1

    @property
    def boundary_ok(self) -> bool:
        return self.min_class >= self.label_count

    def as_doc(self) -> dict:
        return {
            "labelCount": self.label_count,
            "minClass": self.min_class,
            "requiredClass": self.required_class,
            "ok": self.ok,
            "boundaryOk": self.boundary_ok,
        }


def check_hypotheses(kernel: SurgeryKernel) -> HypothesisReport:
    """Count distinct nonidentity values and compare with the minimum class."""
    if not kernel.gropes:
        raise ValidationError("empty kernel")
    keys: set[tuple[int, ...]] = set()
    classes = []
    for cg in kernel.gropes:
        if cg.body is None:
            raise ValidationError("kernel gropes must have bodies")
        keys |= label_keys(cg)
        classes.append(class_of(cg.body))
    return HypothesisReport(len(keys), min(classes))


@dataclass(frozen=True)
class SurgeryResult:
    """Sphere families per input grope, their pairing, and the full trace."""

    gropes: tuple[CappedGrope, ...]
    sphere_pairs: tuple[tuple[tuple[int, str], tuple[int, str]], ...]
    trace: tuple[dict, ...]
    stats: dict

    def __post_init__(self) -> None:
        object.__setattr__(self, "gropes", tuple(self.gropes))
        object.__setattr__(
            self,
            "sphere_pairs",
            tuple(((gi, si), (gj, sj)) for (gi, si), (gj, sj) in self.sphere_pairs),
        )
        object.__setattr__(self, "trace", tuple(self.trace))
        object.__setattr__(self, "stats", dict(self.stats))


def run_surgery(
    kernel: SurgeryKernel,
    *,
    force: bool = False,
    limits: SplitLimits | None = None,
) -> SurgeryResult:
    """Split every grope fully, then contract and push off every piece.

    Requires check_hypotheses(kernel).ok unless force is set; force attempts
    the surgery anyway and lets PigeonholeFailure surface where the counting
    argument breaks.  The trace records every rewrite and is replayable.

    Each grope is rewritten on one state (see gropes.splitting), which
    full_split's driver splits and then the sweep of gropes.moves contracts
    and pushes off piece by piece, with no grope built in between.  The
    result, trace and errors are those of calling full_split, and then
    find_duplicate_pair, contract and pushoff on pair 0 once per piece; each
    point is handled only at the pieces it touches.
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

    trace: list[dict] = []
    husks: list[CappedGrope] = []
    genera: list[int] = []
    for gi, cg in enumerate(kernel.gropes):
        steps: list[dict] = []
        state = _RewriteState(cg, limits, steps)
        _full_split(state)
        genera.append(len(state.alive))
        _sweep(state, gi)
        husks.append(state.result())
        trace.extend({"grope": gi, **entry} for entry in steps)

    pairs: list[tuple[tuple[int, str], tuple[int, str]]] = []
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


def replay_trace(kernel: SurgeryKernel, trace: Iterable[dict]) -> tuple[CappedGrope, ...]:
    """Re-execute a recorded trace against the kernel it came from.

    Only the rewriting operations are replayed; informational fields in the
    entries are ignored.  Returns the final state of every grope.  A field
    the replay reads that a trace could not hold raises ValidationError, and
    a stage path that grope.path_doc could not have written ParseError.  An
    error raised by the replayed move keeps its type, and its message gains
    the prefix trace[N]: that names the entry.

    Each grope is rewritten on one state across all its entries, as
    run_surgery does, which applies every op through the cores full_split
    and the surgery sweep use.  A split_cap entry is applied at its recorded
    stage and pair, which the move checks against the grope.  A state opens
    at a grope's first entry, and becomes a CappedGrope again at the end.
    """
    states: list[_RewriteState | None] = [None] * len(kernel.gropes)
    for n, entry in enumerate(trace):
        ctx = f"trace[{n}]"
        if not isinstance(entry, dict):
            raise ValidationError(f"{ctx}: expected an entry object, got {entry!r}")
        gi = _entry_field(entry, "grope", int, ctx)
        if not 0 <= gi < len(states):
            raise ValidationError(f"{ctx}.grope: no grope {gi} in a kernel of {len(states)}")
        op = entry.get("op")
        if op == "split_cap":
            cap = _entry_field(entry, "cap", str, ctx)
            stage = _path_from_doc(entry.get("stage"), f"{ctx}.stage")
            where = (stage, _entry_field(entry, "pair", int, ctx))
            move = partial(_split_cap_at, cap_id=cap, where=where)
        elif op == "split_stage":
            path = _path_from_doc(entry.get("stage"), f"{ctx}.stage")
            move = partial(_split_stage_at, path=path)
        elif op == "contract":
            move = partial(
                _contract_at,
                pair_index=_entry_field(entry, "pairIndex", int, ctx),
                cap_a=_entry_field(entry, "capA", str, ctx),
                cap_b=_entry_field(entry, "capB", str, ctx),
                piece=_entry_field(entry, "piece", int, ctx),
            )
        elif op == "pushoff":
            move = partial(_pushoff_at, sphere_id=_entry_field(entry, "sphere", str, ctx))
        else:
            raise ValidationError(f"{ctx}.op: unknown trace op {op!r}")
        try:
            if states[gi] is None:
                states[gi] = _RewriteState(kernel.gropes[gi])
            move(states[gi])
        except GropeError as error:
            error.args = (f"{ctx}: {error}",)
            raise
    return tuple(cg if s is None else s.result() for cg, s in zip(kernel.gropes, states))


def _entry_field(entry: dict, key: str, kind: type, ctx: str):
    """entry[key], refused unless it is exactly of type kind (so no bool for int)."""
    if key not in entry:
        raise ValidationError(f"{ctx}.{key}: missing")
    value = entry[key]
    if type(value) is not kind:
        raise ValidationError(f"{ctx}.{key}: expected {kind.__name__}, got {value!r}")
    return value


# The generators' shape odds: a stage above the first has genus 2 with
# probability WIDE_STAGE_ODDS, and a kernel grope's first stage draws its
# genus from KERNEL_ROOT_GENERA.  _expected_tips works from the same numbers.
_WIDE_STAGE_ODDS = 0.3
_KERNEL_ROOT_GENERA = (1, 1, 2)

# generate_kernel refuses arguments whose kernel is expected to hold more
# tips than this over all its gropes, which take seconds to write out.
_MAX_GENERATED_TIPS = 50_000


def _random_slot(
    rng: random.Random, c: int, tip_ids: "list[str]", stage_paths: "list[Path]", path: Path
) -> Slot:
    """A random slot of class exactly c at path; see _random_stage."""
    if c == 1:
        tip_ids.append(f"t{len(tip_ids) + 1}")
        return Tip(tip_ids[-1])
    return _random_stage(rng, c, 1 + (rng.random() < _WIDE_STAGE_ODDS), tip_ids, stage_paths, path)


def _random_stage(
    rng: random.Random,
    c: int,
    genus: int,
    tip_ids: "list[str]",
    stage_paths: "list[Path]",
    path: Path = (),
) -> Stage:
    """A random stage of class exactly c and the given genus at path, made pair by pair.

    Each tip it makes joins tip_ids, in traversal order.  Each stage's path
    joins stage_paths before the paths of the stages above it, so
    stage_paths lists them in iter_stages order.
    """
    stage_paths.append(path)
    pairs = []
    for j in range(genus):
        a = rng.randint(1, c - 1)
        alpha = _random_slot(rng, a, tip_ids, stage_paths, path + ((j, 0),))
        pairs.append((alpha, _random_slot(rng, c - a, tip_ids, stage_paths, path + ((j, 1),))))
    return Stage(tuple(pairs))


def random_grope(rng: random.Random, grope_class: int, *, genus: int = 1) -> Grope:
    """A random grope of exactly the given class and first-stage genus."""
    if grope_class < 2:
        raise ValidationError(f"a grope has class >= 2, got {grope_class}")
    if genus < 1:
        raise ValidationError(f"genus must be >= 1, got {genus}")
    return Grope(_random_stage(rng, grope_class, genus, [], []))


def generate_kernel(
    seed: int,
    *,
    labels: int,
    grope_class: int | None = None,
    pair_count: int = 1,
    density: float = 1.0,
    adversarial: bool = False,
) -> SurgeryKernel:
    """A reproducible kernel: pair_count dual pairs of capped gropes.

    By default the class is labels + 1, the smallest satisfying the surgery
    hypotheses.  Each cap's value rides on a self-intersection, and extra
    points (self or cap-to-body, scaled by density) repeat the same value,
    so no contraction elsewhere can ever strip a cap down to the identity:
    at its own contraction time every cap of a piece still shows its value,
    the piece has class >= labels + 1 caps over at most `labels` values, and
    the pigeonhole is guaranteed to find a pair.

    adversarial instead builds dyadic gropes of class exactly equal to the
    label count whose caps carry pairwise distinct values (one self-labeled
    point each): splitting changes nothing, every piece sees every value
    exactly once, and surgery must fail the pigeonhole on the first piece.
    Its chain nests labels - 1 stages, so labels is at most MAX_NESTING + 1.
    """
    if labels < 0:
        raise ValidationError(f"label count must be >= 0, got {labels}")
    if pair_count < 1:
        raise ValidationError(f"pair count must be >= 1, got {pair_count}")
    if grope_class is None:
        grope_class = labels if adversarial else max(labels + 1, 2)
    if adversarial:
        if labels < 2:
            raise ValidationError("adversarial kernels need at least 2 labels")
        if grope_class != labels:
            raise ValidationError("adversarial kernels use class == label count")
        if labels - 1 > MAX_NESTING:  # documents refuse deeper stages
            raise ValidationError(
                f"an adversarial kernel with {labels} labels nests {labels - 1} stages,"
                f" over the bound {MAX_NESTING}"
            )
    if grope_class < 2:
        raise ValidationError(f"a grope has class >= 2, got {grope_class}")
    if labels > _MAX_GENERATED_TIPS:
        raise ValidationError(f"{labels} labels are over the bound {_MAX_GENERATED_TIPS}")
    count = 2 * pair_count
    size, about = count * grope_class, "at least"  # a class-c grope has >= c tips
    if size <= _MAX_GENERATED_TIPS:
        size, about = round(count * _expected_tips(grope_class, adversarial)), "about"
    if size > _MAX_GENERATED_TIPS:
        raise ValidationError(
            f"{count} gropes of class {grope_class} would hold {about} {size} tips,"
            f" over the bound {_MAX_GENERATED_TIPS}"
        )

    rng = random.Random(seed)
    pool = [generator(i + 1) for i in range(labels)]

    gropes: list[CappedGrope] = []
    pairs: list[tuple[int, int]] = []
    for _ in range(pair_count):
        if adversarial:
            tip_ids: list[str] = []
            chains = (_dyadic_chain(grope_class - 1, tip_ids), _dyadic_chain(1, tip_ids))
            caps = {f"c{k + 1}": t for k, t in enumerate(tip_ids)}
            cap_ids = list(caps)
            rng.shuffle(cap_ids)
            points = tuple(
                Intersection(f"i{k + 1}", CapRef(cap), CapRef(cap), pool[k])
                for k, cap in enumerate(cap_ids)
            )
            cg = CappedGrope(Grope(Stage((chains,))), caps, points)
        else:
            cg = _pigeonhole_safe_grope(rng, grope_class, pool, density)
        dual = CappedGrope(cg.body, dict(cg.caps), cg.intersections)
        pairs.append((len(gropes), len(gropes) + 1))
        gropes.extend((cg, dual))
    return SurgeryKernel(labels, tuple(gropes), tuple(pairs))


def _expected_tips(grope_class: int, adversarial: bool) -> float:
    """The mean tip count of one grope generate_kernel draws at this class.

    An adversarial grope is a chain with exactly grope_class tips.  Otherwise
    a pair of class c splits c at a uniform a in 1..c-1, so with mean genus
    g a stage of class c has g * 2/(c-1) * (E(1) + ... + E(c-1)) tips on
    average, where E(1) = 1; the first stage takes its mean genus from
    _KERNEL_ROOT_GENERA and every stage above it 1 + _WIDE_STAGE_ODDS.
    """
    if adversarial:
        return float(grope_class)
    wide, total = 1 + _WIDE_STAGE_ODDS, 1.0  # total = E(1) + ... + E(c - 1)
    for c in range(2, grope_class):
        total += wide * 2 / (c - 1) * total
    root_genus = sum(_KERNEL_ROOT_GENERA) / len(_KERNEL_ROOT_GENERA)
    return root_genus * 2 / (grope_class - 1) * total


def _pigeonhole_safe_grope(
    rng: random.Random,
    grope_class: int,
    pool: "list[GroupWord]",
    density: float,
) -> CappedGrope:
    """A capped grope whose caps can never be drained of their value.

    Every value a cap carries rides on at least one self-intersection, which
    no other piece's contraction can consume.  Body endpoints (including the
    first stage) exercise queueing and pushoff without changing any cap's
    value set, and occasional second-value self-points force full_split to
    actually split caps while keeping every split copy on a pool value.
    """
    tip_ids: list[str] = []
    stage_paths: list[Path] = []
    genus = rng.choice(_KERNEL_ROOT_GENERA)
    body = Grope(_random_stage(rng, grope_class, genus, tip_ids, stage_paths))
    caps = {f"c{k + 1}": t for k, t in enumerate(tip_ids)}
    points: list[Intersection] = []

    def add_point(cap: str, label: GroupWord, to_body: bool) -> None:
        me = CapRef(cap)
        other = BodyRef(rng.choice(stage_paths)) if to_body else me
        points.append(Intersection(f"i{len(points) + 1}", me, other, label))

    for k, cap in enumerate(caps):
        value = pool[k % len(pool)] if pool else IDENTITY
        if pool or rng.random() < min(density, 1.0):
            add_point(cap, value, to_body=False)
        extras = 0
        while extras < 2 and rng.random() < density * 0.4:
            add_point(cap, value, to_body=rng.random() < 0.5)
            extras += 1
        if len(pool) >= 2 and rng.random() < density * 0.3:
            add_point(cap, pool[(k + 1) % len(pool)], to_body=False)
    return CappedGrope(body, caps, tuple(points))


def _dyadic_chain(c: int, tip_ids: "list[str]") -> Slot:
    """A genus-1 chain of class exactly c: [(x, [(y, ...)])]; its tips join tip_ids."""
    if c == 1:
        tip_ids.append(f"t{len(tip_ids) + 1}")
        return Tip(tip_ids[-1])
    return Stage(((_dyadic_chain(1, tip_ids), _dyadic_chain(c - 1, tip_ids)),))
