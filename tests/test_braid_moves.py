"""The paper's theorem on braid closures: a Reidemeister move of type II
leaves the weight-value set Phi unchanged, and one of type III moves W by
an element of +/- Im(df), so a pair one type-III move apart certifies at
most m = 1.

Words are closed braids on 3 or 4 strand positions, and f = (y - z) * g
for a small integer polynomial g, so that f(x, y, y) = 0.  The outer face
is the region left of strand position 0.  No move inside the braid
touches it, but its edges are renumbered, so it is given for each
diagram as the edges that leave column-0 crossings by slot 2 (SW).
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from tribound.cochain import DeltaReach, delta_f
from tribound.diagram import diagram_from_dict
from tribound.fixtures import closed_braid_code
from tribound.invariant import certify_lower_bound, phi_set
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
    terms = draw(st.lists(
        st.tuples(st.integers(-3, 3), *[st.integers(0, 2)] * 3), max_size=3
    ))
    g = " + ".join(f"({c})*x^{i}*y^{j}*z^{k}" for c, i, j, k in terms) or "0"
    n = draw(st.sampled_from((3, 4, 5)))
    return strands, word, CochainFn.build(f"(y-z)*({g})", n), draw(st.integers(0, n - 1))


@settings(max_examples=60, deadline=None)
@given(case=cases(), data=st.data())
def test_type_two_move_keeps_phi(case, data):
    strands, word, f, s = case
    at = data.draw(st.integers(0, len(word)))
    col = data.draw(st.integers(0, strands - 2))
    pair = data.draw(st.sampled_from(("LR", "RL")))
    moved = word[:at] + [(col, pair[0]), (col, pair[1])] + word[at:]
    before = phi_set(closure(strands, word), s, f)
    after = phi_set(closure(strands, moved), s, f)
    assert after.values == before.values


def six_term_reach(f):
    """Delta_0 and Delta_1 = +/- Im(df), with Im(df) read off the six-term
    ``delta_f`` at every tuple."""
    image = {delta_f(f, *t) for t in itertools.product(range(f.n), repeat=4)}
    level1 = tuple(sorted(image | {-v for v in image}))
    return DeltaReach(f=f, im_delta=tuple(sorted(image)), levels=((0,), level1))


@settings(max_examples=60, deadline=None)
@given(case=cases(), data=st.data())
def test_type_three_move_certifies_at_most_one(case, data):
    strands, word, f, s = case
    at = data.draw(st.integers(0, len(word)))
    i = data.draw(st.integers(0, strands - 3))
    t = data.draw(st.sampled_from("LR"))
    left = word[:at] + [(i, t), (i + 1, t), (i, t)] + word[at:]
    right = word[:at] + [(i + 1, t), (i, t), (i + 1, t)] + word[at:]
    d, d2 = closure(strands, left), closure(strands, right)
    reach = six_term_reach(f)
    for a, b in ((d, d2), (d2, d)):
        assert certify_lower_bound(a, b, s, f, 2).m <= 1
        assert certify_lower_bound(a, b, s, f, 2, levels=lambda f, h: reach).m <= 1
