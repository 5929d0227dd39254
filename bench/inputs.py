"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the workload seed: the diagrams
(braid closures written as tribound diagram JSON) and the list of CLI
operations one round of a workload performs.  Standard library only;
nothing here imports ``tribound``.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Any

import checker

__all__ = ["Random", "Op", "closure", "shuffle", "workload"]

F3 = "(x-y)*(y-z)*z"
F5 = "(x+y)^3*(y+z)*(y-z)^3*z^5"
F4 = "(x+y)^2*(y-z)^3*z^5"
WEIGHT_F = "(x-y)*(y-z)*z"
# tribound writes this f's canonical form as "-x^2*y + x^2*z", which its
# own grammar reads back as (-x)^2*y + x^2*z, so verifying the
# certificate fails (exit 2).  certify-cold and certify-warm keep one
# such op, with inputs that do not depend on the seed; it counts in
# ``failed`` until the canonical string is mended.
FAULT_F = "(y-z)*(0-x^2)"

# The paper's braid words; the second diagram of each pair is the same
# sphere code with another outer face.  Face ids follow tribound's
# numbering (by smallest boundary dart, left side first).
PAPER = {
    "d1": (2, [(0, "L")] * 3, 0),
    "d2": (2, [(0, "L")] * 3, 1),
    "d3": (3, [(0, "L"), (1, "R"), (0, "L"), (1, "R")], 2),
    "d4": (3, [(0, "L"), (1, "R"), (0, "L"), (1, "R")], 0),
    "d5": (2, [(0, "L")] * 4, 0),
    "d6": (2, [(0, "L")] * 4, 1),
}
# (first, second, n, f, s, max_m, certified bound)
PAPER_CASES = (
    ("d1", "d2", 3, F3, 0, 2, 2),
    ("d3", "d4", 5, F5, 2, 3, 3),
    ("d5", "d6", 4, F4, 0, 3, 3),
)

_LEVELS = {
    "L": ("under", "over", "under", "over"),
    "R": ("over", "under", "over", "under"),
}


@dataclass
class Op:
    """One ``tribound`` invocation and what its output must satisfy."""

    key: str
    argv: list[str]  # after ``python -m tribound.cli``; paths relative to inputs
    kind: str  # "certify" or "weight"
    d: str  # first diagram name
    d2: str | None  # second diagram name, for certify
    n: int
    f: str
    s: int
    max_m: int = 0
    expect_m: int | None = None  # the paper's bound, for the paper's pairs
    twin: str | None = None  # key of the op on the unshuffled original


# ---------------------------------------------------------------------------
# Diagrams
# ---------------------------------------------------------------------------


def closure(strands: int, word: list[tuple[int, str]], name: str, outer: int = 0) -> dict[str, Any]:
    """Diagram JSON for the closure of a braid word.

    Crossing i of ``word`` = (column, type) joins strand positions column
    and column+1; slots are ccw from NE with both strands entering from
    above, and type L/R picks which strand passes over.  Edge ids match
    tribound's own ``closed_braid_code``.  The outer face is written as
    its edge list, so it survives relabeling.
    """
    head: dict[int, tuple[int, int]] = {}
    tail: dict[int, tuple[int, int]] = {}
    col_edge = list(range(strands))
    nxt = strands
    for cid, (col, _) in enumerate(word):
        head[col_edge[col]] = (cid, 1)
        head[col_edge[col + 1]] = (cid, 0)
        tail[nxt], tail[nxt + 1] = (cid, 2), (cid, 3)
        col_edge[col], col_edge[col + 1] = nxt, nxt + 1
        nxt += 2
    if {c for c, _ in word} | {c + 1 for c, _ in word} != set(range(strands)):
        raise ValueError("every strand position needs a crossing")
    for j in range(strands):
        head[col_edge[j]] = head[j]  # the bottom edge wraps round to the top
    renumber = {e: i for i, e in enumerate(sorted(tail))}
    slot_edge = {}
    for e, i in renumber.items():
        slot_edge[tail[e]] = slot_edge[head[e]] = i
    code = {
        "name": name,
        "crossings": [
            {
                "id": cid,
                "slots": [
                    {"edge": slot_edge[(cid, k)], "dir": ("in", "in", "out", "out")[k],
                     "level": _LEVELS[typ][k]}
                    for k in range(4)
                ],
            }
            for cid, (_, typ) in enumerate(word)
        ],
        "outer_face": None,
    }
    code["outer_face"] = checker.faces(code)[outer]
    return code


def with_outer(d: dict[str, Any], face: list[int], name: str) -> dict[str, Any]:
    return {**d, "name": name, "outer_face": list(face)}


def unique_faces(d: dict[str, Any]) -> list[list[int]]:
    """Faces that their edge list names without ambiguity."""
    fs = checker.faces(d)
    return [f for f in fs if fs.count(f) == 1]


def shuffle(d: dict[str, Any], rng: Random, name: str | None = None) -> dict[str, Any]:
    """The same diagram with edge and crossing ids permuted at random."""
    edges = sorted({s["edge"] for c in d["crossings"] for s in c["slots"]})
    new_e = dict(zip(edges, rng.sample(edges, len(edges))))
    ids = [c["id"] for c in d["crossings"]]
    new_c = dict(zip(ids, rng.sample(ids, len(ids))))
    crossings = [
        {"id": new_c[c["id"]],
         "slots": [{**s, "edge": new_e[s["edge"]]} for s in c["slots"]]}
        for c in d["crossings"]
    ]
    rng.shuffle(crossings)
    return {
        "name": name or d["name"] + "-shuffled",
        "crossings": crossings,
        "outer_face": sorted(new_e[e] for e in d["outer_face"]),
    }


def random_word(rng: Random, strands: int, length: int) -> list[tuple[int, str]]:
    while True:
        word = [(rng.randrange(strands - 1), rng.choice("LR")) for _ in range(length)]
        if {c for c, _ in word} == set(range(strands - 1)):
            return word


def search_work(d: dict[str, Any], n: int) -> int:
    """Values tried by tribound's backtracking enumeration of d, for prime n.

    It assigns arcs in id order and checks each crossing once its
    highest arc is set, so the partial assignments alive at depth i
    number n^(i - rank of the crossings already closed), and each tries
    n values.  Enumeration time follows this count to within about 15 %.
    """
    rows, arc_count = checker.coloring_rows(d)
    by_last: dict[int, list[dict[int, int]]] = {}
    for row in rows:
        by_last.setdefault(max(row), []).append(row)
    closed: list[dict[int, int]] = []
    work = 0
    for i in range(arc_count):
        work += n ** (i + 1 - checker.rank_mod_p(closed, n))
        closed += by_last.get(i, [])
    return work


def colored_closure(
    rng: Random, name: str, strands: int, length: int, n: int, lo: int, hi: int,
    work: tuple[int, int] = (0, 10**18),
) -> dict[str, Any]:
    """A seeded closure with between lo and hi Fox n-colorings, whose
    enumeration work lies in the given band."""
    for _ in range(20000):
        d = closure(strands, random_word(rng, strands, length), name)
        if (
            lo <= checker.coloring_count(d, n) <= hi and len(unique_faces(d)) >= 2
            and work[0] <= search_work(d, n) <= work[1]
        ):
            return d
    raise RuntimeError(f"no {length}-crossing closure with {lo}..{hi} {n}-colorings")


def rebased_pair(rng: Random, d: dict[str, Any]) -> tuple[dict[str, Any], dict[str, Any]]:
    a, b = rng.sample(unique_faces(d), 2)
    return with_outer(d, a, d["name"] + "a"), with_outer(d, b, d["name"] + "b")


# ---------------------------------------------------------------------------
# Weight functions
# ---------------------------------------------------------------------------

def family_f(rng: Random, degree: int, n: int, band: tuple[int, int] | None) -> str:
    """(y-z)*g(x,y,z), g of the given degree with small seeded coefficients.

    With a band, draws repeat until |Im df| over Z(n) lies in it: the Delta
    sumsets cost about (2 |Im df|)^2 steps per level, so the band keeps an
    op's cost from one seed to the next.  g's leading coefficient, in
    tribound's order (total degree, then exponents), is kept positive:
    no seeded op then trips the fault that FAULT_F shows, and the share
    of failed ops is the same on every seed.  The certify workloads run
    FAULT_F itself as a fixed op.
    """
    while True:
        f = _draw_f(rng, degree)
        if band is None:
            return f
        size = len(checker.image(checker.value_table(checker.compile_f(f), n), n))
        if band[0] <= size <= band[1]:
            return f


def _draw_f(rng: Random, degree: int) -> str:
    monomials = sorted(
        ((a, b, c) for a in range(degree + 1) for b in range(degree + 1)
         for c in range(degree + 1) if a + b + c <= degree),
        key=lambda e: (sum(e), e), reverse=True,
    )
    # the leading monomial and three more, all with non-zero coefficients,
    # so every g has four terms and the f strings cost alike to parse
    chosen = [monomials[0]] + sorted(rng.sample(monomials[1:], 3), reverse=True)
    terms = []
    for k, e in enumerate(chosen):
        c = rng.randint(1, 3) if k == 0 else rng.choice((-3, -2, -1, 1, 2, 3))
        body = "*".join(v if p == 1 else f"{v}^{p}" for v, p in zip("xyz", e) if p)
        terms.append(f"{c}*{body}" if body else str(c))
    g = " + ".join(terms).replace("+ -", "- ")
    return f"(y-z)*({g})"


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _certify(key, d, d2, n, f, s, max_m, expect_m=None) -> Op:
    argv = ["certify", f"{d}.json", f"{d2}.json", "-n", str(n), "-f", f,
            "-s", str(s), "--max-m", str(max_m)]
    return Op(key, argv, "certify", d, d2, n, f, s, max_m, expect_m)


def _weight(key, d, n, f, s, twin=None) -> Op:
    argv = ["weight", f"{d}.json", "-n", str(n), "-f", f, "-s", str(s), "--coloring", "all"]
    return Op(key, argv, "weight", d, None, n, f, s, twin=twin)


# Sphere codes of the paper at other moduli: (first, second, n, degree of
# g, max_m, band on |Im df|).  The last three rows have only trivial
# colorings on the first diagram; a sweep meets these too.
_SWEEP = (
    ("d1", "d2", 3, 4, 4, (30, 33)), ("d1", "d2", 6, 3, 3, (470, 560)),
    ("d1", "d2", 9, 2, 3, (1580, 1770)), ("d1", "d2", 12, 2, 2, None),
    ("d3", "d4", 5, 3, 3, (305, 330)), ("d3", "d4", 10, 2, 2, None),
    ("d3", "d4", 13, 2, 2, None),
    ("d5", "d6", 4, 4, 4, (78, 90)), ("d5", "d6", 6, 3, 3, (470, 560)),
    ("d5", "d6", 8, 2, 3, (450, 590)),
    ("d1", "d2", 7, 2, 3, (720, 860)), ("d3", "d4", 7, 2, 3, (720, 860)),
    ("d5", "d6", 5, 3, 3, (305, 330)),
)
# Seeded closures for rebased pairs: (crossings, strands, n, degree of g,
# max_m, band on |Im df|); each has exactly n^2 Fox n-colorings.
_CLOSURES = (
    (6, 3, 3, 4, 4, (30, 33)), (8, 3, 5, 3, 3, (305, 330)),
    (10, 3, 3, 4, 4, (30, 33)), (12, 4, 5, 3, 3, (305, 330)),
    (14, 3, 7, 2, 3, (720, 860)), (16, 4, 3, 4, 3, (30, 33)),
)
# big-diagrams: (crossings, strands, n, Fox n-colorings, band on
# ``search_work``) for weight and max_m 2 certify ops, and (crossings,
# strands, n, colorings) for the shuffled copies, whose enumeration work
# is held in SHUFFLE_WORK.  Fixed counts and narrow work bands keep an
# op's cost from seed to seed.
_BIG = (
    (24, 4, 5, 125, (40_000, 52_000)), (28, 4, 3, 81, (5_000, 6_200)),
    (32, 4, 3, 81, (5_600, 7_000)), (36, 3, 5, 25, (17_000, 21_000)),
    (40, 3, 7, 49, (78_000, 86_000)), (48, 4, 3, 81, (10_000, 11_000)),
)
_SHUFFLED = (
    (12, 3, 5, 25), (14, 3, 5, 25), (16, 4, 5, 25), (16, 3, 3, 27),
    (18, 4, 3, 27), (20, 4, 3, 27),
)
SHUFFLE_WORK = (130_000, 170_000)


def _certify_cold(rng: Random) -> tuple[dict[str, dict], list[Op]]:
    diagrams = {k: closure(st, w, k, outer) for k, (st, w, outer) in PAPER.items()}
    ops = [
        _certify(f"paper-{d}", d, d2, n, f, s, m, expect_m=want)
        for d, d2, n, f, s, m, want in PAPER_CASES
    ]
    # only trivial colorings on d1 at n = 13, yet every level is built
    ops.append(_certify("trivial-d1-n13", "d1", "d2", 13, F3, 0, 3))
    # fails on every seed: see FAULT_F
    ops.append(_certify("canonical-neg-x2", "d1", "d2", 3, FAULT_F, 0, 2))
    for i, (d, d2, n, deg, m, band) in enumerate(_SWEEP):
        ops.append(_certify(f"sweep{i}-{d}-n{n}", d, d2, n, family_f(rng, deg, n, band),
                            rng.randrange(n), m))
    for i, (length, strands, n, deg, m, band) in enumerate(_CLOSURES):
        base = colored_closure(rng, f"c{i}", strands, length, n, n * n, n * n)
        a, b = rebased_pair(rng, base)
        diagrams[a["name"]], diagrams[b["name"]] = a, b
        ops.append(_certify(f"closure{i}-x{length}", a["name"], b["name"], n,
                            family_f(rng, deg, n, band), rng.randrange(n), m))
    return diagrams, ops


def _big_diagrams(rng: Random) -> tuple[dict[str, dict], list[Op]]:
    diagrams: dict[str, dict] = {}
    ops: list[Op] = []
    for i, (length, strands, n, count, work) in enumerate(_BIG):
        base = colored_closure(rng, f"b{i}", strands, length, n, count, count, work)
        a, b = rebased_pair(rng, base)
        diagrams[a["name"]], diagrams[b["name"]] = a, b
        s = rng.randrange(n)
        ops.append(_weight(f"big{i}-x{length}", a["name"], n, WEIGHT_F, s))
        ops.append(_certify(f"big{i}-certify", a["name"], b["name"], n, WEIGHT_F, s, 2))
    for i, (length, strands, n, count) in enumerate(_SHUFFLED):
        base = colored_closure(rng, f"s{i}", strands, length, n, count, count)
        for _ in range(5000):
            mixed = shuffle(base, rng)
            if SHUFFLE_WORK[0] <= search_work(mixed, n) <= SHUFFLE_WORK[1]:
                break
        else:
            raise RuntimeError(f"no shuffle of {base['name']} in the work band")
        diagrams[base["name"]], diagrams[mixed["name"]] = base, mixed
        s = rng.randrange(n)
        ops.append(_weight(f"plain{i}-x{length}", base["name"], n, WEIGHT_F, s))
        ops.append(_weight(f"shuffled{i}-x{length}", mixed["name"], n, WEIGHT_F, s,
                           twin=f"plain{i}-x{length}"))
    return diagrams, ops


def workload(name: str, seed: int) -> tuple[dict[str, dict], list[Op]]:
    """(diagrams by name, the ops of one round) for a workload and seed."""
    if name in ("certify-cold", "certify-warm"):  # warm replays the cold op list
        return _certify_cold(Random(f"certify:{seed}"))
    if name == "big-diagrams":
        return _big_diagrams(Random(f"big-diagrams:{seed}"))
    raise ValueError(f"unknown workload {name!r}")
