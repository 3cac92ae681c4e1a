"""Shared strategies and small builders for the test suite."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from gropes import (
    BodyRef,
    CappedGrope,
    CapRef,
    Grope,
    GroupWord,
    Intersection,
    SphereRecord,
    SphereRef,
    Stage,
    SurgeryKernel,
    Tip,
    canonical_dumps,
    generate_kernel,
    generator,
    iter_stages,
    random_grope,
    tips,
)

# Signed nonzero generator indices over a small alphabet.
signed_letters = st.integers(min_value=-6, max_value=6).filter(lambda i: i != 0)

raw_letter_lists = st.lists(signed_letters, max_size=12)

words = raw_letter_lists.map(GroupWord)

nonempty_words = words.filter(lambda w: w.letters != ())


def is_dyadic(obj: Grope | Stage) -> bool:
    """True when every stage has genus 1."""
    return all(stage.genus == 1 for _, stage in iter_stages(obj))


def dumps_grope(g: Grope) -> str:
    """The canonical JSON text of a grope document."""
    return canonical_dumps(g)


def sphere_record(cg: CappedGrope, sphere_id: str) -> SphereRecord:
    """The first sphere record of a capped grope with this id."""
    return next(s for s in cg.spheres if s.sphere_id == sphere_id)


def random_capped_grope(
    rng: random.Random,
    grope_class: int,
    labels: "list[GroupWord]",
    *,
    genus: int = 1,
    density: float = 1.0,
) -> CappedGrope:
    """One random capped grope with arbitrary cap-to-cap partners.

    Caps typically end up carrying several label values, which makes these
    good inputs for the splitting moves; they are NOT guaranteed to survive
    the surgery pigeonhole.  Every cap receives at least one intersection
    labeled from the pool (when the pool is nonempty); density scales how
    many extras appear.
    """
    body = random_grope(rng, grope_class, genus=genus)
    caps = {f"c{k + 1}": t for k, t in enumerate(tips(body))}
    cap_ids = list(caps)

    points: list[Intersection] = []
    counter = [0]

    def add_point(cap: str, label: GroupWord) -> None:
        counter[0] += 1
        partner = rng.choice(cap_ids)
        points.append(
            Intersection(f"i{counter[0]}", CapRef(cap), CapRef(partner), label)
        )

    if labels:
        for k, cap in enumerate(cap_ids):
            add_point(cap, labels[k % len(labels)])
        extras = int(density * len(cap_ids))
        for _ in range(extras):
            add_point(rng.choice(cap_ids), rng.choice(labels))
    return CappedGrope(body, caps, tuple(points))


def dyadic_tower(depth: int, start: int = 1) -> tuple[Grope, int]:
    """A genus-1 chain of class `depth`; returns (grope, next fresh tip index)."""
    counter = start

    def slot(c: int):
        nonlocal counter
        if c == 1:
            t = Tip(f"t{counter}")
            counter += 1
            return t
        return Stage(((slot(1), slot(c - 1)),))

    root = Stage(((slot(1), slot(depth - 1)),))
    return Grope(root), counter


def two_cap_grope(label_a: GroupWord, label_b: GroupWord | None = None) -> CappedGrope:
    """Genus-1 class-2 grope, caps c1/c2, one self point per labeled cap."""
    body = Grope(Stage(((Tip("t1"), Tip("t2")),)))
    caps = {"c1": "t1", "c2": "t2"}
    points = [Intersection("i1", CapRef("c1"), CapRef("c1"), label_a)]
    if label_b is not None:
        points.append(Intersection("i2", CapRef("c2"), CapRef("c2"), label_b))
    return CappedGrope(body, caps, tuple(points))


def ghost_tip_grope() -> CappedGrope:
    """Genus-1 class-2 grope whose third cap, cx, sits on a tip not in the body.

    cx carries two values, so splitting it reaches for the missing tip.
    """
    body = Grope(Stage(((Tip("t1"), Tip("t2")),)))
    caps = {"c1": "t1", "c2": "t2", "cx": "ghost"}
    points = [
        Intersection("i1", CapRef("c1"), CapRef("c1"), generator(1)),
        Intersection("i2", CapRef("c2"), CapRef("c2"), generator(1)),
        Intersection("i3", CapRef("cx"), CapRef("cx"), generator(1)),
        Intersection("i4", CapRef("cx"), CapRef("cx"), generator(2)),
    ]
    return CappedGrope(body, caps, tuple(points))


def stage_dual_grope() -> CappedGrope:
    """Genus-1 class-3 grope whose cap c3 carries two values and faces a stage.

    c3 sits on tip t3, the beta slot of pair 0 of the first stage; the alpha
    slot is the genus-1 stage holding t1 and t2.
    """
    body = Grope(Stage(((Stage(((Tip("t1"), Tip("t2")),)), Tip("t3")),)))
    points = (
        Intersection("i1", CapRef("c3"), CapRef("c3"), generator(1)),
        Intersection("i2", CapRef("c3"), CapRef("c3"), generator(2)),
    )
    return CappedGrope(body, {"c1": "t1", "c2": "t2", "c3": "t3"}, points)


def split_genus3_grope() -> CappedGrope:
    """A fully split genus-3 grope with points on the body of later pieces.

    Piece 0 is (t1, t2), piece 1 ([t3, t4], t5) and piece 2
    (t6, [t7, [t8, t9]]); cap ck sits on tk.  The caps of pieces 0 and 2
    carry x1 and those of piece 1 carry x2, each on a self point, so every
    piece has a contraction pair.  b1-b4 reach from a cap to a stage of a
    later piece or to the first stage, x1 joins pieces 0 and 2, and y1 and
    z1 meet the input sphere sph0.
    """
    f, g = generator(1), generator(2)
    body = Grope(
        Stage(
            (
                (Tip("t1"), Tip("t2")),
                (Stage(((Tip("t3"), Tip("t4")),)), Tip("t5")),
                (Tip("t6"), Stage(((Tip("t7"), Stage(((Tip("t8"), Tip("t9")),))),))),
            )
        )
    )
    caps = {f"c{k}": f"t{k}" for k in range(1, 10)}
    points = [
        Intersection(f"s{k}", CapRef(f"c{k}"), CapRef(f"c{k}"), g if k in (3, 4, 5) else f)
        for k in range(1, 10)
    ]
    points += [
        Intersection("b1", CapRef("c1"), BodyRef(((1, 0),)), f),
        Intersection("b2", BodyRef(((2, 1), (0, 1))), CapRef("c2"), f.inverse()),
        Intersection("b3", CapRef("c5"), BodyRef(((2, 1),)), g),
        Intersection("b4", CapRef("c6"), BodyRef(()), f),
        Intersection("x1", CapRef("c2"), CapRef("c7"), f),
        Intersection("y1", CapRef("c8"), SphereRef("sph0"), f),
        Intersection("z1", SphereRef("sph0"), SphereRef("sph0"), g),
    ]
    return CappedGrope(body, caps, tuple(points), (SphereRecord("sph0", 0, "a", "b", g),))


def over_the_guards_grope() -> CappedGrope:
    """A genus-3 first stage and 2 points; cap ca carries x1 and x2.

    ca sits on the alpha tip of the genus-1 stage above pair 0, and cap ck on
    each other tip tk (cb on tb).  Splitting ca widens only that stage and
    keeps the 2 points; a full split then widens the first stage to genus 4.
    """
    f, g = generator(1), generator(2)
    above = Stage(((Tip("ta"), Tip("tb")),))
    body = Grope(Stage(((above, Tip("t1")), (Tip("t2"), Tip("t3")), (Tip("t4"), Tip("t5")))))
    caps = {"ca": "ta", "cb": "tb", **{f"c{k}": f"t{k}" for k in range(1, 6)}}
    points = (
        Intersection("p1", CapRef("ca"), CapRef("ca"), f),
        Intersection("p2", CapRef("ca"), CapRef("ca"), g),
    )
    return CappedGrope(body, caps, points)


def collision_kernel() -> SurgeryKernel:
    """generate_kernel(3, labels=3, pair_count=2) with a twin <id>.1 beside each
    of every grope's first 40 points.

    A twin has its point's ends and label, so the lineage names the pipeline
    derives from <id> collide with it and take the form <id>.1.m.
    """
    kernel = generate_kernel(3, labels=3, pair_count=2)
    gropes = []
    for cg in kernel.gropes:
        twins = tuple(
            Intersection(f"{p.point_id}.1", p.end_a, p.end_b, p.label)
            for p in cg.intersections[:40]
        )
        gropes.append(CappedGrope(cg.body, cg.caps, cg.intersections + twins, cg.spheres))
    return SurgeryKernel(kernel.rank, tuple(gropes), kernel.hyperbolic_pairs)


def chain_stage_text(depth: int) -> str:
    """JSON text of a stage whose stages nest depth deep along the alpha slots.

    Built as text: the json encoder would itself recurse once per level.
    """
    slot = '{"tip": "t0"}'
    for k in range(depth):
        slot = '{"stage": {"pairs": [[%s, {"tip": "u%d"}]]}}' % (slot, k)
    return slot[len('{"stage": '):-1]


def report(capsys, name, ok, detail):
    """Print one PASS/FAIL line past capture, with sizes and time against budget; assert."""
    with capsys.disabled():
        print(f"\n{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def seeded(seed: int) -> random.Random:
    return random.Random(seed)
