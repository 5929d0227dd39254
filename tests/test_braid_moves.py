"""The paper's theorem on braid closures, coloring by coloring: a
Reidemeister move of type I or II leaves each coloring's weight vector
unchanged, and with it Phi for every f at once; one of type III adds
+/- g(t) to it, the coboundary vector of ``coboundary_vector``, so W
moves by an element of +/- Im(df) and a pair one type-III move apart
certifies at most m = 1.  A coloring of one side is paired with the
coloring of the other whose strands entering the top of the braid carry
the same colors.

Words are closed braids on 3 or 4 strand positions.  f is either
(y - z) * g for a small integer polynomial g, or a table of integers in
[-3, 3] with f(x, y, y) = 0 and no polynomial behind it, from
``CochainFn.from_table``.  A polynomial f's certificates must verify.  A
table f's certificate names f by a hash of its values, from which the
verifier cannot rebuild it, so it must be refused, not raised on.

The outer face is the region left of strand position 0.  No move inside
the braid touches it, but its edges are renumbered, so it is given for
each diagram as the edges that leave column-0 crossings by slot 2 (SW).
"""

from __future__ import annotations

import functools
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from tribound.cochain import DeltaReach, coboundary_vector, delta_f
from tribound.coloring import enumerate_colorings, extend_coloring
from tribound.diagram import diagram_from_dict
from tribound.fixtures import closed_braid_code
from tribound.invariant import (
    certify_lower_bound,
    phi_set,
    verify_certificate,
    weight_vector,
)
from tribound.poly import CochainFn


def closure(strands, word):
    """The closed braid of word, its outer face left of column 0."""
    code = closed_braid_code(strands, word, name="braid")
    code["outer_face"] = [
        c["slots"][2]["edge"]
        for c, (col, _) in zip(code["crossings"], word)
        if col == 0
    ]
    return diagram_from_dict(code)


@st.composite
def cases(draw):
    """(strands, word, f, s): every column of the word has a crossing."""
    strands = draw(st.integers(3, 4))
    crossing = st.tuples(st.integers(0, strands - 2), st.sampled_from("LR"))
    word = draw(st.lists(crossing, max_size=6))
    word += [(col, draw(st.sampled_from("LR"))) for col in range(strands - 1)]
    word = draw(st.permutations(word))
    n = draw(st.sampled_from((3, 4, 5)))
    return strands, word, draw(functions(n)), draw(st.integers(0, n - 1))


@st.composite
def functions(draw, n):
    """f = (y - z) * g for a small integer polynomial g, or a random
    table of integers in [-3, 3] that is 0 where y = z."""
    if draw(st.booleans()):
        terms = draw(st.lists(
            st.tuples(st.integers(-3, 3), *[st.integers(0, 2)] * 3), max_size=3
        ))
        g = " + ".join(f"({c})*x^{i}*y^{j}*z^{k}" for c, i, j, k in terms) or "0"
        return CochainFn.build(f"(y-z)*({g})", n)
    values = draw(st.lists(st.integers(-3, 3), min_size=n**3, max_size=n**3))
    table = tuple(
        tuple(
            tuple(0 if y == z else values[(x * n + y) * n + z] for z in range(n))
            for y in range(n)
        )
        for x in range(n)
    )
    return CochainFn.from_table(n, table)


def by_top_colors(strands, word, n):
    """The colorings of closure(strands, word) mod n, keyed by the colors
    of the strands entering the top of the braid.  The top edge of
    position j is at slot 1 (NW) of the first crossing in column j or at
    slot 0 (NE) of the first in column j - 1, whichever comes first."""
    d = closure(strands, word)
    top: dict[int, tuple[int, int]] = {}
    for cid, (col, _) in enumerate(word):
        top.setdefault(col, (cid, 1))
        top.setdefault(col + 1, (cid, 0))
    arcs = [
        d.arc_of_edge(d.crossing(cid).slots[k].edge)
        for cid, k in map(top.get, range(strands))
    ]
    colorings = enumerate_colorings(d, n)
    keyed = {tuple(col.arc_colors[a] for a in arcs): col for col in colorings}
    assert len(keyed) == len(colorings)  # the top colors fix a coloring
    return d, keyed


def paired_vectors(strands, word, moved, n, added=0):
    """(W(c), W(c')) as weight vectors, for every outer color s and every
    coloring c of closure(word), c' the coloring of closure(moved), on
    strands + added positions, whose first strands top colors are c's.
    word and moved are the same link, so the pairing is a bijection."""
    d, cs = by_top_colors(strands, word, n)
    moved_d, moved_by_top = by_top_colors(strands + added, moved, n)
    moved_cs = {key[:strands]: col for key, col in moved_by_top.items()}
    assert cs.keys() == moved_cs.keys() and len(moved_cs) == len(moved_by_top)
    for key, s in itertools.product(cs, range(n)):
        yield (
            weight_vector(d, extend_coloring(d, cs[key], s)),
            weight_vector(moved_d, extend_coloring(moved_d, moved_cs[key], s)),
        )


@settings(max_examples=60, deadline=None)
@given(case=cases(), data=st.data())
def test_type_one_move_keeps_phi(case, data):
    # a Markov stabilization: a new strand position k, crossed once by
    # strand k - 1 at a drawn place.  Rotating the word cyclically until
    # that crossing comes last is a planar isotopy of the closure that
    # keeps the region left of position 0 outside, and what remains is
    # one type-I move
    strands, word, f, s = case
    at = data.draw(st.integers(0, len(word)))
    moved = word[:at] + [(strands - 1, data.draw(st.sampled_from("LR")))] + word[at:]
    phi = phi_set(closure(strands, word), s, f).values
    assert phi_set(closure(strands + 1, moved), s, f).values == phi
    for vec, moved_vec in paired_vectors(strands, word, moved, f.n, added=1):
        assert moved_vec == vec


@settings(max_examples=60, deadline=None)
@given(case=cases(), data=st.data())
def test_type_two_move_keeps_phi(case, data):
    strands, word, f, s = case
    at = data.draw(st.integers(0, len(word)))
    col = data.draw(st.integers(0, strands - 2))
    pair = data.draw(st.sampled_from(("LR", "RL")))
    moved = word[:at] + [(col, pair[0]), (col, pair[1])] + word[at:]
    phi, moved_phi = (phi_set(closure(strands, w), s, f).values for w in (word, moved))
    assert moved_phi == phi
    for vec, moved_vec in paired_vectors(strands, word, moved, f.n):
        assert moved_vec == vec


@functools.cache
def coboundaries(n):
    """{+/- g(t) : t in Z_n^4}, each vector as a frozenset of its items."""
    gs = {
        frozenset(coboundary_vector(n, *t).items())
        for t in itertools.product(range(n), repeat=4)
    }
    return gs | {frozenset((triple, -k) for triple, k in g) for g in gs}


@settings(max_examples=40, deadline=None)
@given(case=cases(), data=st.data())
def test_type_three_move_adds_a_coboundary_vector(case, data):
    # W(c') - W(c), zero entries dropped, is +/- g(t) for some t
    strands, word, f, _ = case
    at = data.draw(st.integers(0, len(word)))
    i = data.draw(st.integers(0, strands - 3))
    t = data.draw(st.sampled_from("LR"))
    for mixed in (False, True):
        left, right = relation(i, t, mixed)
        before, after = word[:at] + left + word[at:], word[:at] + right + word[at:]
        for vec, moved_vec in paired_vectors(strands, before, after, f.n):
            change = {
                triple: moved_vec.get(triple, 0) - vec.get(triple, 0)
                for triple in vec.keys() | moved_vec.keys()
            }
            assert frozenset((k, v) for k, v in change.items() if v) in coboundaries(f.n)


def certify_checked(d, d2, s, f, max_m, levels=None):
    """certify_lower_bound, with its certificate verified when f is a
    polynomial and refused when f is a table."""
    cert = certify_lower_bound(d, d2, s, f, max_m, levels)
    assert verify_certificate(cert, d, d2) != f.name.startswith("table:")
    return cert


def six_term_reach(f, h=1):
    """Delta_0..Delta_h, with Im(df) read off the six-term ``delta_f`` at
    every tuple and each level above Delta_1 = +/- Im(df) a plain set sum
    of the one below and Delta_1."""
    image = {delta_f(f, *t) for t in itertools.product(range(f.n), repeat=4)}
    levels = [{0}, image | {-v for v in image}]
    while len(levels) <= h:
        levels.append({a + b for a in levels[-1] for b in levels[1]})
    return DeltaReach(
        f=f,
        im_delta=tuple(sorted(image)),
        levels=tuple(tuple(sorted(lv)) for lv in levels[: h + 1]),
    )


def relation(i, t, mixed):
    """The two sides of a type-III braid relation on columns i and i + 1:
    (i,t)(i+1,t)(i,t) = (i+1,t)(i,t)(i+1,t), or with mixed signs
    (i,t)(i+1,t)(i,u) = (i+1,u)(i,t)(i+1,t), u the other type."""
    if not mixed:
        return [(i, t), (i + 1, t), (i, t)], [(i + 1, t), (i, t), (i + 1, t)]
    u = "R" if t == "L" else "L"
    return [(i, t), (i + 1, t), (i, u)], [(i + 1, u), (i, t), (i + 1, t)]


@settings(max_examples=60, deadline=None)
@given(case=cases(), data=st.data())
def test_type_three_move_certifies_at_most_one(case, data):
    strands, word, f, s = case
    at = data.draw(st.integers(0, len(word)))
    i = data.draw(st.integers(0, strands - 3))
    t = data.draw(st.sampled_from("LR"))
    reach = six_term_reach(f)
    for mixed in (False, True):
        left, right = relation(i, t, mixed)
        d = closure(strands, word[:at] + left + word[at:])
        d2 = closure(strands, word[:at] + right + word[at:])
        for a, b in ((d, d2), (d2, d)):
            assert certify_checked(a, b, s, f, 2).m <= 1
            assert certify_checked(a, b, s, f, 2, levels=lambda f, h: reach).m <= 1


@settings(max_examples=40, deadline=None)
@given(case=cases(), data=st.data())
def test_type_three_moves_certify_at_most_their_number(case, data):
    # j relations, of either form and read either way, go into the word
    # whole at drawn places; turning them one at a time is j type-III
    # moves, so no certificate at max_m = j + 1 may claim more than j
    strands, word, f, s = case
    segments = [([c], [c]) for c in word]
    j = data.draw(st.integers(0, 3))
    for _ in range(j):
        at = data.draw(st.integers(0, len(segments)))
        sides = relation(
            data.draw(st.integers(0, strands - 3)),
            data.draw(st.sampled_from("LR")),
            data.draw(st.booleans()),
        )
        segments.insert(at, sides[:: data.draw(st.sampled_from((1, -1)))])
    d = closure(strands, [c for before, _ in segments for c in before])
    d2 = closure(strands, [c for _, after in segments for c in after])
    reach = six_term_reach(f, (j + 1) // 2)
    for a, b in ((d, d2), (d2, d)):
        assert certify_checked(a, b, s, f, j + 1).m <= j
        assert certify_checked(a, b, s, f, j + 1, levels=lambda f, h: reach).m <= j
