"""The paper's theorem on braid closures: a Reidemeister move of type II
leaves the weight-value set Phi unchanged, and with it the multiset of
weight vectors, so Phi for every f at once; one of type III moves W by
an element of +/- Im(df), so a pair one type-III move apart certifies at
most m = 1.

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

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from tribound.cochain import DeltaReach, delta_f
from tribound.coloring import enumerate_colorings, extend_coloring, is_trivial
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


@settings(max_examples=60, deadline=None)
@given(case=cases(), data=st.data())
def test_type_two_move_keeps_phi(case, data):
    strands, word, f, s = case
    at = data.draw(st.integers(0, len(word)))
    col = data.draw(st.integers(0, strands - 2))
    pair = data.draw(st.sampled_from(("LR", "RL")))
    moved = word[:at] + [(col, pair[0]), (col, pair[1])] + word[at:]
    d, moved_d = closure(strands, word), closure(strands, moved)
    assert phi_set(moved_d, s, f).values == phi_set(d, s, f).values
    assert vectors(moved_d, s, f.n) == vectors(d, s, f.n)


def vectors(d, s, n):
    """The sorted multiset of weight vectors over the non-trivial
    colorings of d with outer color s."""
    return sorted(
        sorted(weight_vector(d, extend_coloring(d, col, s)).items())
        for col in enumerate_colorings(d, n)
        if not is_trivial(col)
    )


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
