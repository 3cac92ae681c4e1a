"""The three workloads: seeded input generators, the timed op, and its check.

Each workload builds one pass of inputs from the seed.  The timed loop runs
whole passes, so every run sees exactly the mix stated here.  Where an op's
cost depends strongly on its input, the pass is stratified on a size the
benchmark computes itself from the input, so that different seeds give
different inputs of the same cost profile; without that, a handful of
heavy inputs decides a run's throughput and seeds cannot be compared.

Checks read outputs directly and recompute expected values from the inputs
with this file's own arithmetic.  The package functions some checks also
call (validate_capped, class_of, evaluate) run after the op's clock has
stopped.  `gp` is the imported gropes package, passed in because
the runner re-imports it while timing set-up.
"""

from __future__ import annotations

import functools
import json
import math
import random

from spans import direct_call

# --- shared independent arithmetic -------------------------------------------


def _reduced(letters) -> tuple[int, ...]:
    stack: list[int] = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def _inverse(letters: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-x for x in reversed(letters))


def _unoriented(letters: tuple[int, ...]) -> tuple[int, ...]:
    return min(letters, _inverse(letters))


def _split_size(gp, cg) -> tuple[int, int]:
    """First-stage genus and intersection count after full splitting.

    Worked out from the input alone.  A cap with m distinct values splits
    into m caps, each pairing with its own copy of the dual slot, and every
    stage above the first splits into genus-1 stages, so a slot stands for
    mult(slot) pieces: the number of values on a tip's cap, or the sum over a
    stage's pairs of the products.  In a pair (a, b) every piece of a is
    repeated mult(b) times, so a sheet's copy count is the product of those
    factors along its path.  An intersection is copied with each end's
    sheet, except by the steps the two paths share, which copy both ends
    together.  The genus is exact; the count is exact for most generated
    kernels and otherwise low by at most about a third.
    """
    values: dict[str, set] = {}
    for p in cg.intersections:
        key = _unoriented(p.label.letters)
        for end in (p.end_a, p.end_b):
            if isinstance(end, gp.CapRef):
                values.setdefault(cg.caps[end.cap_id], set()).add(key)

    @functools.cache
    def mult(slot) -> int:
        if isinstance(slot, gp.Tip):
            return max(1, len(values.get(slot.tip_id, ())))
        return sum(mult(a) * mult(b) for a, b in slot.pairs)

    factors: dict = {}  # stage path or tip id -> (path, copy factor per step)

    def walk(stage, path, along) -> None:
        factors[path] = (path, along)
        for j, (a, b) in enumerate(stage.pairs):
            for side, (slot, dual) in enumerate(((a, b), (b, a))):
                step = (path + ((j, side),), along + (mult(dual),))
                if isinstance(slot, gp.Tip):
                    factors[slot.tip_id] = step
                else:
                    walk(slot, *step)

    walk(cg.body.root, (), ())
    points = 0
    for p in cg.intersections:
        ends = []
        for end in (p.end_a, p.end_b):
            ends.append(factors[cg.caps[end.cap_id] if isinstance(end, gp.CapRef) else end.path])
        (path_a, along_a), (path_b, along_b) = ends
        shared = 0
        while shared < min(len(path_a), len(path_b)) and path_a[shared] == path_b[shared]:
            shared += 1
        points += math.prod(along_a) * math.prod(along_b[shared:])
    return mult(cg.body.root), points


class Workload:
    """build makes one pass of inputs; run is the timed op; check its verdict."""

    def expected_error(self, gp, item):
        """The exception type that is the op's correct answer, if any."""
        return None


# --- surgery_kernels ---------------------------------------------------------

# (work, intersections) targets for the pass's non-adversarial kernels.  Work
# is predicted pieces times predicted intersections after splitting, summed
# over a kernel's gropes; surgery time follows it, since contract and the
# pair search rescan every intersection once per piece, and peak memory
# follows the intersection count.  Targets are the medians of 108 equal
# bins, by work, of 20000 kernels drawn from the mix below with work at most
# SURGERY_MAX_WORK.  One kernel can take 0.001 s or 10 s, so matching each
# target keeps the heavy tail at the same weight in every seed.  The cap
# drops the heaviest 1.6% of the mix, kernels of 1-20 s each, any one of
# which would outweigh the rest of a pass.
SURGERY_LADDER = (
    (6, 6), (10, 10), (12, 12), (16, 16), (24, 12), (32, 16), (36, 20),
    (40, 20), (44, 24), (48, 26), (56, 28), (60, 32), (66, 32), (74, 36),
    (84, 35), (90, 30), (98, 34), (108, 36), (118, 40), (128, 40), (136, 46),
    (144, 46), (156, 44), (164, 52), (176, 52), (188, 52), (198, 56),
    (208, 52), (222, 56), (232, 66), (244, 66), (256, 64), (272, 68),
    (288, 72), (302, 72), (320, 76), (336, 80), (352, 80), (370, 84),
    (390, 82), (410, 88), (432, 86), (456, 90), (480, 92), (504, 98),
    (528, 102), (552, 99), (582, 102), (616, 110), (644, 108), (676, 114),
    (710, 118), (748, 124), (784, 122), (832, 125), (864, 136), (908, 130),
    (956, 139), (1000, 141), (1048, 142), (1096, 160), (1156, 162),
    (1216, 157), (1284, 172), (1344, 174), (1416, 172), (1488, 184),
    (1568, 192), (1660, 200), (1760, 212), (1872, 201), (1976, 216),
    (2094, 224), (2208, 228), (2336, 238), (2472, 242), (2632, 252),
    (2788, 268), (2952, 280), (3150, 276), (3336, 306), (3584, 297),
    (3840, 318), (4112, 326), (4392, 332), (4708, 358), (5048, 351),
    (5410, 388), (5828, 393), (6336, 419), (6816, 451), (7378, 452),
    (7996, 482), (8696, 483), (9498, 522), (10350, 528), (11420, 576),
    (12750, 617), (14112, 651), (16002, 698), (17918, 750), (20716, 782),
    (23992, 894), (27552, 947), (33204, 1090), (40144, 1164), (49920, 1293),
    (65912, 1522),
)
SURGERY_MAX_WORK = 80000
SURGERY_CANDIDATES = 1000
SURGERY_ADVERSARIAL = 12  # 10% of the 120-kernel pass


def _surgery_mix(rng: random.Random) -> dict:
    # The CLI's `gropes generate` range: 2-5 labels (class labels + 1, the
    # least the hypotheses allow), 1-3 dual pairs, density 0.5-1.2.
    return {
        "labels": rng.randint(2, 5),
        "pair_count": rng.randint(1, 3),
        "density": round(rng.uniform(0.5, 1.2), 3),
    }


class SurgeryKernels(Workload):
    """Kernel JSON text -> loads_document -> run_surgery -> dumps_result."""

    name = "surgery_kernels"

    def build(self, gp, seed: int, call) -> list[dict]:
        rng = random.Random(seed)
        candidates = []  # (work, points, pieces, generate_kernel arguments)
        for _ in range(SURGERY_CANDIDATES):
            args = {"seed": rng.getrandbits(32), **_surgery_mix(rng)}
            kernel = call("pipeline.generate_kernel", gp.generate_kernel, **args)
            sizes = [_split_size(gp, cg) for cg in kernel.gropes]
            work = sum(pieces * points for pieces, points in sizes)
            points = sum(points for _, points in sizes)
            if work <= SURGERY_MAX_WORK:
                candidates.append((work, points, [pieces for pieces, _ in sizes], args))
        items = []
        for work, points in reversed(SURGERY_LADDER):
            best = min(
                range(len(candidates)),
                key=lambda j: abs(math.log(candidates[j][0] / work))
                + abs(math.log(candidates[j][1] / points)),
            )
            _, _, pieces, args = candidates.pop(best)
            # Made again rather than kept, so that set-up holds one kernel
            # at a time and does not raise the run's peak memory.
            kernel = call("pipeline.generate_kernel", gp.generate_kernel, **args)
            items.append({"text": gp.dumps_kernel(kernel), "pieces": pieces, "force": False})
        for _ in range(SURGERY_ADVERSARIAL):
            # class == labels: every piece shows every value once, so the
            # correct verdict under force is PigeonholeFailure.
            mix = _surgery_mix(rng)
            del mix["density"]
            kernel = call(
                "pipeline.generate_kernel",
                gp.generate_kernel,
                seed=rng.getrandbits(32),
                adversarial=True,
                **mix,
            )
            items.append({"text": gp.dumps_kernel(kernel), "pieces": None, "force": True})
        rng.shuffle(items)
        return items

    def run(self, gp, item) -> str:
        _, kernel = gp.loads_document(item["text"])
        return gp.dumps_result(gp.run_surgery(kernel, force=item["force"]))

    def run_traced(self, gp, item, tr) -> str:
        """run_surgery's steps in its own order, each under its own span."""
        call, count = tr.call, tr.counts
        _, kernel = call("serialize.loads_document", gp.loads_document, item["text"])
        problems = call("pipeline.validate_kernel", gp.validate_kernel, kernel)
        if problems:
            raise gp.ValidationError("invalid kernel: " + "; ".join(problems))
        report = call("pipeline.check_hypotheses", gp.check_hypotheses, kernel)
        if not report.ok and not item["force"]:
            raise gp.HypothesisError("kernel does not meet the surgery hypotheses")
        trace: list[dict] = []
        husks, genera = [], []
        for gi, cg in enumerate(kernel.gropes):
            steps: list[dict] = []
            work = call("splitting.full_split", gp.full_split, cg, trace=steps)
            genus = work.body.root.genus
            count["splitting.rewrites"] += len(steps)
            count["splitting.points_out"] += len(work.intersections)
            count["splitting.genus_out"] += genus
            genera.append(genus)
            for ordinal in range(genus):
                try:
                    cap_a, cap_b = call(
                        "pipeline.find_duplicate_pair",
                        gp.find_duplicate_pair,
                        work,
                        0,
                        piece_name=f"grope {gi} piece {ordinal}",
                    )
                except gp.PigeonholeFailure:
                    count["pipeline.pigeonhole_failures"] += 1
                    raise
                count["moves.contract.calls"] += 1
                count["moves.points_in"] += len(work.intersections)
                work, sphere = call(
                    "moves.contract", gp.contract, work, 0, cap_a, cap_b,
                    piece=ordinal, trace=steps,
                )
                work = call("moves.pushoff", gp.pushoff, work, sphere.sphere_id, trace=steps)
            husks.append(work)
            trace.extend({"grope": gi, **entry} for entry in steps)
        pairs = []
        for i, j in kernel.hyperbolic_pairs:
            left, right = husks[i].spheres, husks[j].spheres
            if len(left) != len(right):
                raise gp.ValidationError(f"gropes {i} and {j} split unevenly")
            pairs.extend(((i, a.sphere_id), (j, b.sphere_id)) for a, b in zip(left, right))
        stats = {
            "labelCount": report.label_count,
            "minClass": report.min_class,
            "firstStageGenus": genera,
            "pieceCount": sum(genera),
            "spherePairCount": len(pairs),
            "outputPi1Null": all(call("capped.is_pi1_null", gp.is_pi1_null, h) for h in husks),
        }
        result = gp.SurgeryResult(tuple(husks), tuple(pairs), tuple(trace), stats)
        text = call("serialize.dumps_result", gp.dumps_result, result)
        count["serialize.bytes_out"] += len(text)
        return text

    def expected_error(self, gp, item):
        return gp.PigeonholeFailure if item["force"] else None

    def check(self, gp, item, out: str, call) -> bool:
        doc = json.loads(out)
        stats = doc["stats"]
        husks = doc["gropes"]
        return (
            all(h["root"] is None and not h["caps"] for h in husks)
            and all(p["label"] == "1" for h in husks for p in h["intersections"])
            and all("pending" not in s for h in husks for s in h.get("spheres", ()))
            and stats["firstStageGenus"] == item["pieces"]
            and stats["pieceCount"] == sum(item["pieces"])
            and stats["spherePairCount"] * 2 == stats["pieceCount"]
            and len(doc["spherePairs"]) == stats["spherePairCount"]
            and stats["outputPi1Null"] is True
        )


# --- split_towers ------------------------------------------------------------

# (n, k) -> copies per pass: n values on every cap of a dyadic class-k tower,
# which full_split turns into first-stage genus n**k.  Every (n, k) in
# {2,3,4} x {3..7} with n**k <= 256 is present; genus 729 and 1024 are left
# out because one such split takes 4-7 s, more than a whole pass.  Counts
# put the p50 and p90 ranks inside one (n, k) block instead of between two.
TOWER_COUNTS = {
    (2, 3): 3, (2, 4): 3, (3, 3): 3, (2, 5): 3, (4, 3): 3,
    (2, 6): 4, (3, 4): 3, (2, 7): 2, (4, 4): 1, (3, 5): 2,
}
TOWER_ALPHABET = 6


class SplitTowers(Workload):
    """full_split of a dyadic tower whose every cap carries n values."""

    name = "split_towers"

    def build(self, gp, seed: int, call) -> list[dict]:
        rng = random.Random(seed)
        items = []
        for (n, k), copies in TOWER_COUNTS.items():
            for _ in range(copies):
                items.append({"n": n, "k": k, "capped": self._tower(gp, rng, n, k)})
        rng.shuffle(items)
        return items

    @staticmethod
    def _tower(gp, rng: random.Random, n: int, k: int):
        tips = [gp.Tip(f"t{i}") for i in range(1, k + 1)]
        slot = tips[-1]
        for tip in reversed(tips[:-1]):
            slot = gp.Stage(((tip, slot),))
        caps = {f"c{i}": tip.tip_id for i, tip in enumerate(tips, start=1)}
        points = []
        for cap in caps:
            # n distinct generators per cap, each in a random orientation.
            for j, g in enumerate(rng.sample(range(1, TOWER_ALPHABET + 1), n)):
                word = gp.generator(g) if rng.random() < 0.5 else gp.generator(g).inverse()
                points.append(gp.Intersection(f"{cap}p{j}", gp.CapRef(cap), gp.CapRef(cap), word))
        return gp.CappedGrope(gp.Grope(slot), caps, tuple(points))

    def run(self, gp, item):
        return gp.full_split(item["capped"])

    def run_traced(self, gp, item, tr):
        steps: list[dict] = []
        out = tr.call("splitting.full_split", gp.full_split, item["capped"], trace=steps)
        tr.counts["splitting.rewrites"] += len(steps)
        tr.counts["splitting.points_out"] += len(out.intersections)
        tr.counts["splitting.genus_out"] += out.body.root.genus
        return out

    def check(self, gp, item, out, call) -> bool:
        n, k = item["n"], item["k"]
        values: dict[str, set] = {cap: set() for cap in out.caps}
        for p in out.intersections:
            for end in (p.end_a, p.end_b):
                if isinstance(end, gp.CapRef):
                    values[end.cap_id].add(_unoriented(p.label.letters))
        # Each of the n**k pieces is a class-k chain with one self point per cap.
        return (
            out.body.root.genus == n**k
            and len(out.caps) == k * n**k
            and len(out.intersections) == k * n**k
            and all(len(v) == 1 for v in values.values())
            and call("capped.validate_capped", gp.validate_capped, out) == []
        )


# --- depth_words -------------------------------------------------------------

# Expressions per weight in one pass.  lcs_depth's cost grows about 4x per
# weight, so weight 8 dominates; these counts put the p50 rank among the
# weight-6 expressions and the p90 rank among the weight-8 ones.
DEPTH_COUNTS = {3: 20, 4: 20, 5: 20, 6: 25, 7: 25, 8: 15}
DEPTH_ALPHABET = 4


def _random_bracketing(rng: random.Random, w: int):
    """A uniform split point at every node; leaves are generator indices."""
    if w == 1:
        return rng.randint(1, DEPTH_ALPHABET)
    a = rng.randint(1, w - 1)
    return (_random_bracketing(rng, a), _random_bracketing(rng, w - a))


def _fresh_length(tree) -> int:
    """Letters in the boundary word with a distinct generator on every tip.

    Nothing cancels, and [u, v] = u v u^-1 v^-1, so the length doubles the
    sum; lcs_depth's cost follows this length closely.
    """
    if isinstance(tree, int):
        return 1
    return 2 * (_fresh_length(tree[0]) + _fresh_length(tree[1]))


@functools.cache
def _length_distribution(w: int) -> dict[int, float]:
    """Exact distribution of _fresh_length under _random_bracketing."""
    if w == 1:
        return {1: 1.0}
    dist: dict[int, float] = {}
    for a in range(1, w):
        for la, pa in _length_distribution(a).items():
            for lb, pb in _length_distribution(w - a).items():
                length = 2 * (la + lb)
                dist[length] = dist.get(length, 0.0) + pa * pb / (w - 1)
    return dist


def _length_ladder(w: int, count: int) -> list[int]:
    """The length quantiles at (i + 0.5) / count of _length_distribution(w)."""
    cumulative, acc = [], 0.0
    for length, p in sorted(_length_distribution(w).items()):
        acc += p
        cumulative.append((acc, length))
    return [
        next(length for acc, length in cumulative if acc >= (i + 0.5) / count)
        for i in range(count)
    ]


def _text(tree) -> str:
    if isinstance(tree, int):
        return f"x{tree}"
    return f"[{_text(tree[0])}, {_text(tree[1])}]"


def _word(tree) -> tuple[int, ...]:
    if isinstance(tree, int):
        return (tree,)
    u, v = _word(tree[0]), _word(tree[1])
    return _reduced(u + v + _inverse(u) + _inverse(v))


class DepthWords(Workload):
    """parse_expression -> grope_from_expression -> boundary_word -> lcs_depth."""

    name = "depth_words"

    def build(self, gp, seed: int, call) -> list[dict]:
        # Shapes are drawn at random, then kept only when their fresh length
        # matches the next target of the weight's length ladder: the seed
        # picks the bracketing and the generators, the ladder fixes the cost.
        rng = random.Random(seed)
        items = []
        for w, count in DEPTH_COUNTS.items():
            for length in _length_ladder(w, count):
                tree = _random_bracketing(rng, w)
                while _fresh_length(tree) != length:
                    tree = _random_bracketing(rng, w)
                items.append(
                    {"text": _text(tree), "weight": w, "length": length, "word": _word(tree)}
                )
        rng.shuffle(items)
        return items

    def _steps(self, gp, item, call):
        expr = call("commutators.parse_expression", gp.parse_expression, item["text"])
        g, assignment = call("grope.grope_from_expression", gp.grope_from_expression, expr)
        word = call("grope.boundary_word", gp.boundary_word, g)
        depth = call("words.lcs_depth", gp.lcs_depth, word, item["weight"] + 1)
        return expr, g, assignment, word, depth

    def run(self, gp, item):
        return self._steps(gp, item, direct_call)

    def run_traced(self, gp, item, tr):
        out = self._steps(gp, item, tr.call)
        tr.counts["words.letters_in"] += len(out[3])
        return out

    def check(self, gp, item, out, call) -> bool:
        expr, g, assignment, word, depth = out
        w = item["weight"]
        assigned = call("grope.boundary_word", gp.boundary_word, g, assignment)
        return (
            len(word) == item["length"]
            and depth.is_exact
            and depth.bound == w
            and call("grope.class_of", gp.class_of, g) == w
            and assigned.letters == item["word"]
            and assigned == call("commutators.evaluate", gp.evaluate, expr)
        )


WORKLOADS = {wl.name: wl for wl in (SurgeryKernels(), SplitTowers(), DepthWords())}
