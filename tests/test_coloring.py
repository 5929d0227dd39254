from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tribound import coloring
from tribound.poly import CochainFn
from tribound.coloring import (
    Coloring,
    RegionConflictError,
    enumerate_colorings,
    extend_coloring,
    is_trivial,
    quandle_star,
)
from tribound.diagram import diagram_from_dict
from tribound.fixtures import closed_braid_code
from tribound.invariant import phi_set

from conftest import random_closed_braid, relabel


def slot_relations(d):
    """(under-in arc, under-out arc, over arc) per crossing, read straight
    off the slots rather than from ``Diagram.tables``."""
    relations = []
    for c in d.crossings:
        under_in = under_out = over = None
        for s in c.slots:
            arc = d.arc_of_edge(s.edge)
            if s.level == "under" and s.direction == "in":
                under_in = arc
            elif s.level == "under":
                under_out = arc
            elif s.direction == "in":
                over = arc
        relations.append((under_in, under_out, over))
    return relations


def brute_force_colorings(d, n):
    """Independent oracle: try every arc-color assignment and keep the
    ones satisfying a + c = 2b (mod n) at each crossing."""
    relations = slot_relations(d)
    found = []
    for assignment in itertools.product(range(n), repeat=len(d.arcs)):
        if all(
            (assignment[a] + assignment[c] - 2 * assignment[b]) % n == 0
            for (a, c, b) in relations
        ):
            found.append(assignment)
    return found


# -- dihedral operation ------------------------------------------------------


def test_star_values():
    assert quandle_star(0, 1, 3) == 2
    assert quandle_star(1, 0, 5) == 4


def test_quandle_identities_exhaustive():
    for n in range(1, 13):
        for x in range(n):
            assert quandle_star(x, x, n) == x
            for y in range(n):
                assert quandle_star(quandle_star(x, y, n), y, n) == x
        for s in range(n):
            for a in range(n):
                for b in range(n):
                    lhs = quandle_star(
                        quandle_star(s, b, n), quandle_star(a, b, n), n
                    )
                    rhs = quandle_star(quandle_star(s, a, n), b, n)
                    assert lhs == rhs


def test_star_degenerate_moduli():
    # n=2 collapses the operation to the identity in x
    for x in range(2):
        for y in range(2):
            assert quandle_star(x, y, 2) == x
    assert quandle_star(0, 0, 1) == 0
    with pytest.raises(ValueError):
        quandle_star(0, 0, 0)


# -- enumeration -------------------------------------------------------------


def test_trefoil_colorings_match_brute_force(diagrams):
    d = diagrams["d1"]
    got = enumerate_colorings(d, 3)
    want = brute_force_colorings(d, 3)
    assert [c.arc_colors for c in got] == sorted(want)
    assert len(got) == 9
    assert sum(1 for c in got if not is_trivial(c)) == 6


def test_figure_eight_colorings_match_brute_force(diagrams):
    d = diagrams["d3"]
    got = enumerate_colorings(d, 5)
    want = brute_force_colorings(d, 5)
    assert [c.arc_colors for c in got] == sorted(want)
    assert len(got) == 25
    assert sum(1 for c in got if not is_trivial(c)) == 20


def test_modulus_one(diagrams):
    for d in diagrams.values():
        cols = enumerate_colorings(d, 1)
        assert len(cols) == 1
        assert is_trivial(cols[0])


def test_output_is_lexicographic(diagrams):
    for name in ("d1", "d5"):
        cols = [c.arc_colors for c in enumerate_colorings(diagrams[name], 4)]
        assert cols == sorted(cols)


def test_count_is_multiple_of_n(rng):
    for i in range(8):
        d = random_closed_braid(rng, name=f"r{i}")
        for n in (2, 3, 4, 5):
            count = len(enumerate_colorings(d, n))
            assert count % n == 0
            assert count >= n  # the n constant colorings always exist


# brute force tries n^arcs vectors: at most this many per example
BRUTE_FORCE_VECTORS = 25_000


def small_closure(rng: random.Random, n: int):
    """A random closure with at most 7 arcs and n^arcs within the
    brute-force budget."""
    while True:
        d = random_closed_braid(rng)
        if len(d.arcs) <= 7 and n ** len(d.arcs) <= BRUTE_FORCE_VECTORS:
            return d


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12))
def test_kernel_matches_brute_force_and_relabelling(seed, n):
    rng = random.Random(seed)
    d = small_closure(rng, n)
    got = [c.arc_colors for c in enumerate_colorings(d, n)]
    assert got == sorted(brute_force_colorings(d, n))

    twin = relabel(d, rng)
    assert len(enumerate_colorings(twin, n)) == len(got)
    f = CochainFn.build("(x-y)*(y-z)*z", n)
    s = rng.randrange(n)
    assert phi_set(twin, s, f).values == phi_set(d, s, f).values


def full_matrix_colorings(d, n):
    """The kernel of the whole crossings x arcs coloring matrix, by
    ``_diagonalize`` on that matrix, with no color propagation."""
    k = len(d.arcs)
    matrix = []
    for under_in, under_out, over in slot_relations(d):
        row = [0] * k
        row[under_in] += 1
        row[under_out] += 1
        row[over] -= 2
        matrix.append([x % n for x in row])
    diag, cols = coloring._diagonalize(matrix, k, n)
    gens = [
        [tuple(j * (n // o) * x % n for x in col) for j in range(o)]
        for o, col in zip((math.gcd(x, n) for x in diag), cols)
    ]
    return sorted(
        tuple(sum(xs) % n for xs in zip((0,) * k, *parts))
        for parts in itertools.product(*gens)
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    strands=st.integers(2, 4),
    length=st.integers(0, 61),
    n=st.integers(1, 12),
)
def test_seed_route_matches_full_matrix(seed, strands, length, n):
    rng = random.Random(seed)
    word = [(col, rng.choice("LR")) for col in range(strands - 1)]
    word += [(rng.randrange(strands - 1), rng.choice("LR")) for _ in range(length)]
    rng.shuffle(word)
    d = relabel(diagram_from_dict(closed_braid_code(strands, word, name="r")), rng)
    got = [c.arc_colors for c in enumerate_colorings(d, n)]
    want = full_matrix_colorings(d, n)
    assert len(got) == len(want)
    assert got == want


def test_seed_system_of_a_long_closure_is_small(monkeypatch):
    # colors propagate down the strands, so the 1 536-crossing closure of
    # a 4-strand braid leaves a system in 4 seed arcs, not in 1 536 arcs
    seen = []
    real = coloring._diagonalize

    def spy(rows, k, n):
        seen.append(k)
        return real(rows, k, n)

    monkeypatch.setattr(coloring, "_diagonalize", spy)
    rng = random.Random(3)
    word = [(rng.randrange(3), rng.choice("LR")) for _ in range(1536)]
    d = diagram_from_dict(closed_braid_code(4, word, name="b1536"))
    assert len(enumerate_colorings(d, 3)) == 9
    assert len(seen) == 1 and seen[0] <= 4


def test_is_trivial():
    assert is_trivial(Coloring(n=5, arc_colors=(2, 2, 2)))
    assert not is_trivial(Coloring(n=3, arc_colors=(0, 1, 2)))


# -- region extension --------------------------------------------------------


def test_extension_edge_relation_exhaustive(diagrams):
    # every edge of every extension of every coloring of all six diagrams
    moduli = {"d1": 3, "d2": 3, "d3": 5, "d4": 5, "d5": 4, "d6": 4}
    for name, d in diagrams.items():
        n = moduli[name]
        for col in enumerate_colorings(d, n):
            for s in range(n):
                ec = extend_coloring(d, col, s)
                assert ec.region_colors[d.outer_face] == s
                for e in d.edges:
                    a = col.arc_colors[d.arc_of_edge(e.id)]
                    lf = ec.region_colors[d.face_of_side(e.id, "left")]
                    rf = ec.region_colors[d.face_of_side(e.id, "right")]
                    assert (lf + rf - 2 * a) % n == 0


def test_extension_keeps_base(diagrams):
    d = diagrams["d1"]
    col = enumerate_colorings(d, 3)[4]
    assert extend_coloring(d, col, 1).base == col


def test_trivial_coloring_checkerboard(diagrams):
    for name, n in (("d1", 3), ("d5", 4)):
        d = diagrams[name]
        c0 = 2 % n
        col = Coloring(n=n, arc_colors=(c0,) * len(d.arcs))
        for s in range(n):
            ec = extend_coloring(d, col, s)
            other = (2 * c0 - s) % n
            assert set(ec.region_colors) <= {s, other}
            # adjacent regions alternate
            for e in d.edges:
                lf = ec.region_colors[d.face_of_side(e.id, "left")]
                rf = ec.region_colors[d.face_of_side(e.id, "right")]
                assert (lf + rf) % n == (2 * c0) % n


def test_two_outer_colors_differ_by_alternating_constant(diagrams):
    d = diagrams["d3"]
    n = 5
    col = enumerate_colorings(d, n)[7]
    for s1, s2 in ((0, 1), (2, 4)):
        e1 = extend_coloring(d, col, s1)
        e2 = extend_coloring(d, col, s2)
        shift = (s2 - s1) % n
        diff = [
            (b - a) % n for a, b in zip(e1.region_colors, e2.region_colors)
        ]
        assert all(x in (shift, (-shift) % n) for x in diff)
        for e in d.edges:
            dl = diff[d.face_of_side(e.id, "left")]
            dr = diff[d.face_of_side(e.id, "right")]
            assert (dl + dr) % n == 0


def test_invalid_coloring_conflicts(diagrams):
    d = diagrams["d1"]
    bad = Coloring(n=3, arc_colors=(0, 0, 1))  # violates the crossing rule
    with pytest.raises(RegionConflictError):
        extend_coloring(d, bad, 0)


def test_outer_color_out_of_range(diagrams):
    d = diagrams["d1"]
    col = enumerate_colorings(d, 3)[0]
    with pytest.raises(ValueError):
        extend_coloring(d, col, 3)
