"""Bundled reference diagrams and their expected invariant values.

The six diagrams are built from braid words on demand (``_BUILDERS``):
each is the plat-free closure of a two- or three-strand braid, with
crossings laid out top to bottom and all strands oriented downward
through the braid.  No diagram is stored as a file.

D2, D4 and D6 share the sphere codes of D1, D3 and D5 and differ only in
which face is designated as the outer region.  The face choices and the
reference colorings below were found by exhaustive search against the
expected triple/value tables and are frozen here; the acceptance tests
and ``tribound reproduce`` check every one of them by its outcome.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from .diagram import Diagram, diagram_from_dict

if TYPE_CHECKING:
    from .poly import CochainFn

__all__ = [
    "closed_braid_code",
    "fixture_dict",
    "load_fixture",
    "fixture_names",
    "FixtureCase",
    "FIXTURE_CASES",
    "REFERENCE_COLORINGS",
    "EXPECTED",
    "DELTA_TABLE_N3",
    "W4_TABLE",
    "w4_formula",
    "reproduce_checks",
]

# Crossing layout for braid generators, slots in ccw order
# (0=NE, 1=NW, 2=SW, 3=SE), both strands entering from above:
#   type "L": the NW->SE strand passes over  (sign +1)
#   type "R": the NE->SW strand passes over  (sign -1)
_LEVELS = {
    "L": ("under", "over", "under", "over"),
    "R": ("over", "under", "over", "under"),
}


def closed_braid_code(
    strands: int, word: list[tuple[int, str]], name: str, outer_face: int = 0
) -> dict[str, Any]:
    """Diagram code for the closure of a braid word.

    ``word`` lists crossings top to bottom as (column, type) with
    ``column`` joining strand positions column and column+1 and type
    "L"/"R" choosing which strand passes over.  Every column must have
    at least one crossing, otherwise the closure would be a split
    diagram.
    """
    if strands < 2:
        raise ValueError("need at least two strand positions")
    if any(not 0 <= col < strands - 1 for col, _ in word):
        raise ValueError("braid word uses a column outside the strand range")
    if {col for col, _ in word} != set(range(strands - 1)):
        raise ValueError("every column needs a crossing; closure would split")

    # Edge j < strands enters the top of column j, crossing i starts edges
    # strands+2i (SW) and strands+2i+1 (SE); renumbering by tail order
    # drops the top edges, which the closure joins to the bottom ones.
    head: dict[int, tuple[int, int]] = {}
    tail: dict[int, tuple[int, int]] = {}
    col_edge = list(range(strands))
    for cid, (col, typ) in enumerate(word):
        if typ not in _LEVELS:
            raise ValueError(f"crossing type must be 'L' or 'R', got {typ!r}")
        # the edges flowing down columns col and col+1 enter at NW and NE
        head[col_edge[col]], head[col_edge[col + 1]] = (cid, 1), (cid, 0)
        out = strands + 2 * cid
        tail[out], tail[out + 1] = (cid, 2), (cid, 3)
        col_edge[col], col_edge[col + 1] = out, out + 1
    for j in range(strands):
        head[col_edge[j]] = head[j]  # the bottom edge wraps round to the top
    slot_edge: dict[tuple[int, int], int] = {}
    for new, old in enumerate(sorted(tail)):
        slot_edge[tail[old]] = slot_edge[head[old]] = new

    dirs = ("in", "in", "out", "out")
    crossings = [
        {
            "id": cid,
            "slots": [
                {"edge": slot_edge[(cid, k)], "dir": d, "level": lv}
                for k, (d, lv) in enumerate(zip(dirs, _LEVELS[typ]))
            ],
        }
        for cid, (_, typ) in enumerate(word)
    ]
    return {"name": name, "crossings": crossings, "outer_face": outer_face}


# ---------------------------------------------------------------------------
# The six reference diagrams
# ---------------------------------------------------------------------------

# (strands, braid word, outer face); see the module docstring.
_BUILDERS: dict[str, tuple[int, list[tuple[int, str]], int]] = {
    "d1": (2, [(0, "L")] * 3, 0),
    "d2": (2, [(0, "L")] * 3, 1),
    "d3": (3, [(0, "L"), (1, "R"), (0, "L"), (1, "R")], 2),
    "d4": (3, [(0, "L"), (1, "R"), (0, "L"), (1, "R")], 0),
    "d5": (2, [(0, "L")] * 4, 0),
    "d6": (2, [(0, "L")] * 4, 1),
}


def fixture_dict(name: str) -> dict[str, Any]:
    """The JSON-shaped code of a bundled diagram, built from scratch."""
    if name not in _BUILDERS:
        raise KeyError(f"no bundled diagram named {name!r}")
    strands, word, outer = _BUILDERS[name]
    return closed_braid_code(strands, word, name=name, outer_face=outer)


def fixture_names() -> list[str]:
    return sorted(_BUILDERS)


def load_fixture(name: str) -> Diagram:
    """Load a bundled diagram."""
    return diagram_from_dict(fixture_dict(name))


class FixtureCase(NamedTuple):
    """One certified pair: diagrams, function, outer color, expectations."""

    pair: tuple[str, str]
    n: int
    f_str: str
    s: int
    expected_m: int
    max_m: int


FIXTURE_CASES: tuple[FixtureCase, ...] = (
    FixtureCase(("d1", "d2"), 3, "(x-y)*(y-z)*z", 0, 2, 2),
    FixtureCase(("d3", "d4"), 5, "(x+y)^3*(y+z)*(y-z)^3*z^5", 2, 3, 3),
    FixtureCase(("d5", "d6"), 4, "(x+y)^2*(y-z)^3*z^5", 0, 3, 3),
)


# Reference coloring (arc-color vector) realizing the expected weight on
# each odd-numbered diagram, with its index in canonical order.
REFERENCE_COLORINGS: dict[str, tuple[int, tuple[int, ...]]] = {
    "d1": (3, (1, 0, 2)),
    "d3": (11, (2, 1, 3, 0)),
    "d5": (4, (1, 0, 2, 3)),
}

# Expected weights for the reference colorings and expected weight-value
# sets for the re-based diagrams; checked by the acceptance suite and the
# `reproduce` command.
EXPECTED: dict[str, Any] = {
    "weights": {"d1": -8, "d3": -3576, "d5": -25428},
    "phi": {
        "d2": (-2, 2),
        "d6": (-3744, -1004, 0, 292),
    },
    "signs": {
        "d1": (1, 1, 1),
        "d3": (1, -1, 1, -1),
        "d5": (1, 1, 1, 1),
    },
    "image_sizes": {5: 393, 4: 105},
    "delta1_n3": tuple(
        sorted({0, 1, -1, 2, -2, 4, -4, 5, -5, 7, -7, 8, -8, 11, -11})
    ),
}

# All 24 coboundary values of the n=3 function on non-degenerate tuples
# (x != y, y != z, z != w); every degenerate tuple gives 0.
DELTA_TABLE_N3: dict[tuple[int, int, int, int], int] = {
    (0, 1, 0, 1): 2, (0, 1, 0, 2): 7, (0, 1, 2, 0): 4, (0, 1, 2, 1): -1,
    (0, 2, 0, 1): 11, (0, 2, 0, 2): 7, (0, 2, 1, 0): -4, (0, 2, 1, 2): -8,
    (1, 0, 1, 0): 7, (1, 0, 1, 2): 5, (1, 0, 2, 0): -2, (1, 0, 2, 1): -4,
    (1, 2, 0, 1): 4, (1, 2, 0, 2): -4, (1, 2, 1, 0): 1, (1, 2, 1, 2): -7,
    (2, 0, 1, 0): 2, (2, 0, 1, 2): 4, (2, 0, 2, 0): -7, (2, 0, 2, 1): -5,
    (2, 1, 0, 1): -5, (2, 1, 0, 2): -4, (2, 1, 2, 0): -1, (2, 1, 2, 1): -2,
}

# The 20 weight values of the re-based figure-eight diagram (n=5, outer
# color 2), indexed by the coloring parameters (a, b), a != b.
W4_TABLE: dict[tuple[int, int], int] = {
    (0, 1): 142336, (0, 2): 2244931, (0, 3): -1269944, (0, 4): -173800,
    (1, 0): 3765221, (1, 2): 207552, (1, 3): 587264, (1, 4): -1299078,
    (2, 0): 326080, (2, 1): 971928, (2, 3): 2937304, (2, 4): -1135296,
    (3, 0): -551414, (3, 1): 889088, (3, 2): 10555072, (3, 4): -344431,
    (4, 0): -7107048, (4, 1): -490872, (4, 2): -2814033, (4, 3): -1919488,
}


def w4_formula(a: int, b: int, f: CochainFn) -> int:
    """Closed-form weight of the one-parameter family of non-trivial
    colorings on the re-based figure-eight diagram with outer color 2:

        +f(2*b, a, b) + f(2*b, b, a) - f((2*b)*a, b, b*a) - f(2, a, a*b)

    Serves as a diagram-independent oracle for the 20-value table.
    """
    from .coloring import quandle_star

    n = f.n
    if a == b:
        raise ValueError("the family is parameterized by distinct colors a != b")
    tb = quandle_star(2, b, n)
    return (
        f(tb, a, b)
        + f(tb, b, a)
        - f(quandle_star(tb, a, n), b, quandle_star(b, a, n))
        - f(2, a, quandle_star(a, b, n))
    )


def _first_mismatch(oracle: Callable[..., int], table: dict[Any, int]) -> str:
    """The detail "first mismatch (key, got, want)" of the first entry of
    ``table``, in its order, whose value ``oracle(*key)`` does not give,
    or "" when the oracle gives every value."""
    for key, want in table.items():
        got = oracle(*key)
        if got != want:
            return f"first mismatch {(key, got, want)}"
    return ""


def reproduce_checks() -> list[tuple[str, bool, str]]:
    """Every bundled reference computation as (label, ok, detail), on the
    bundled diagrams that ``load_fixture`` builds."""
    from itertools import product

    # the layers load here, so that naming a bundled diagram loads none
    from .cochain import delta_f, delta_reach
    from .coloring import enumerate_colorings, extend_coloring
    from .invariant import certify_lower_bound, phi_set, verify_certificate, weight
    from .poly import CochainFn

    checks: list[tuple[str, bool, str]] = []

    def check(label: str, got: Any, want: Any, detail: str | None = None) -> None:
        """Record whether got == want; the detail defaults to "got <got>"."""
        checks.append((label, got == want, f"got {got}" if detail is None else detail))

    cases = {case: CochainFn.build(case.f_str, case.n) for case in FIXTURE_CASES}
    f3, f5, f4 = cases.values()

    # every tuple the table leaves out is degenerate, and its value is 0
    table = {t: DELTA_TABLE_N3.get(t, 0) for t in product(range(3), repeat=4)}
    bad = _first_mismatch(lambda *t: delta_f(f3, *t), table)
    check("coboundary table (n=3, 24 values + degenerate zeros)", bad, "", bad)
    check("Delta_1 set (n=3)", delta_reach(f3, 1).levels[1], EXPECTED["delta1_n3"])
    for f in (f5, f4):
        want = EXPECTED["image_sizes"][f.n]
        check(f"|Im(df)| = {want} (n={f.n})", len(delta_reach(f, 0).im_delta), want)
    bad = _first_mismatch(lambda a, b: w4_formula(a, b, f5), W4_TABLE)
    check("closed-form weight table (20 values, n=5)", bad, "", bad)

    for case, f in cases.items():
        name = case.pair[0]
        cid, colors = REFERENCE_COLORINGS[name]
        d = load_fixture(name)
        cols = enumerate_colorings(d, f.n)
        got: int | None = None
        if cid < len(cols) and cols[cid].arc_colors == colors:
            got = weight(d, extend_coloring(d, cols[cid], case.s), f)
        want = EXPECTED["weights"][name]
        check(f"W({name}) = {want}", got, want)

    for case, f in cases.items():
        name = case.pair[1]
        if name in EXPECTED["phi"]:
            want = EXPECTED["phi"][name]
            vals = phi_set(load_fixture(name), case.s, f).values
            check(f"Phi({name}, {case.s}) = {set(want)}", vals, want, f"got {set(vals)}")
    vals = phi_set(load_fixture("d4"), FIXTURE_CASES[1].s, f5).values
    check("Phi(d4, 2) matches the closed-form value set",
          vals, tuple(sorted(W4_TABLE.values())), f"got {len(vals)} values")

    for case, f in cases.items():
        d, d2 = map(load_fixture, case.pair)
        cert = certify_lower_bound(d, d2, case.s, f, case.max_m)
        check(f"certified {case.pair[0]}/{case.pair[1]} needs >= "
              f"{case.expected_m} type-III moves",
              (cert.m, verify_certificate(cert, d, d2)), (case.expected_m, True),
              f"got m = {cert.m}")
    return checks
