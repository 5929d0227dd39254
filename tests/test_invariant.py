from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tribound.cochain import DeltaReach, delta_reach
from tribound.coloring import (
    Coloring,
    enumerate_colorings,
    extend_coloring,
    is_trivial,
)
from tribound.fixtures import (
    EXPECTED,
    FIXTURE_CASES,
    REFERENCE_COLORINGS,
    W4_TABLE,
    w4_formula,
)
from tribound.invariant import (
    certify_lower_bound,
    crossing_terms,
    phi_set,
    verify_certificate,
    weight,
)
from tribound.poly import CochainFn, ResourceCapExceeded

from conftest import random_closed_braid


def reference_extension(diagrams, name, n, s):
    d = diagrams[name]
    cid, colors = REFERENCE_COLORINGS[name]
    cols = enumerate_colorings(d, n)
    assert cols[cid].arc_colors == colors
    return d, extend_coloring(d, cols[cid], s)


# -- per-crossing triples ----------------------------------------------------


def test_trefoil_triples(diagrams, f3):
    d, ec = reference_extension(diagrams, "d1", 3, 0)
    triples = crossing_terms(d, ec, f3)
    assert all(t.epsilon == 1 for t in triples)
    assert Counter((t.s, t.a, t.b) for t in triples) == Counter(
        [(2, 2, 1), (2, 0, 2), (2, 1, 0)]
    )


def test_figure_eight_triples(diagrams, f5):
    d, ec = reference_extension(diagrams, "d3", 5, 2)
    triples = crossing_terms(d, ec, f5)
    assert Counter((t.epsilon, (t.s, t.a, t.b)) for t in triples) == Counter(
        [(1, (4, 1, 2)), (-1, (3, 2, 0)), (1, (4, 2, 1)), (-1, (0, 1, 3))]
    )


def test_torus_link_triples(diagrams, f4):
    d, ec = reference_extension(diagrams, "d5", 4, 0)
    triples = crossing_terms(d, ec, f4)
    assert all(t.epsilon == 1 for t in triples)
    assert Counter((t.s, t.a, t.b) for t in triples) == Counter(
        [(2, 1, 0), (2, 0, 3), (2, 3, 2), (2, 2, 1)]
    )


def test_trivial_coloring_triples_have_a_equal_b(diagrams, f3):
    d = diagrams["d1"]
    ec = extend_coloring(d, Coloring(n=3, arc_colors=(1, 1, 1)), 0)
    for t in crossing_terms(d, ec, f3):
        assert t.a == t.b
        assert t.term == f3(t.s, t.a, t.b) == 0


# -- weights -----------------------------------------------------------------


def test_reference_weights(diagrams, f3, f5, f4):
    fns = {"d1": f3, "d3": f5, "d5": f4}
    outer = {"d1": 0, "d3": 2, "d5": 0}
    for name, f in fns.items():
        d, ec = reference_extension(diagrams, name, f.n, outer[name])
        assert weight(d, ec, f) == EXPECTED["weights"][name]


def test_weight_breakdown_trefoil(diagrams, f3):
    d, ec = reference_extension(diagrams, "d1", 3, 0)
    got = crossing_terms(d, ec, f3)
    terms = [t.epsilon * f3(t.s, t.a, t.b) for t in got]
    assert [t.term for t in got] == terms
    assert sorted(terms) == [-8, 0, 0]
    assert weight(d, ec, f3) == -8


def test_weight_zero_on_trivial_colorings(diagrams, f3, f5, f4, rng):
    fns = (f3, f5, f4)
    pool = [random_closed_braid(rng, name=f"r{i}") for i in range(20)]
    for d in pool:
        f = rng.choice(fns)
        for c0 in range(f.n):
            col = Coloring(n=f.n, arc_colors=(c0,) * len(d.arcs))
            for s in range(f.n):
                ec = extend_coloring(d, col, s)
                assert weight(d, ec, f) == 0


def test_weight_modulus_mismatch(diagrams, f3, f5):
    d = diagrams["d1"]
    ec = extend_coloring(d, enumerate_colorings(d, 3)[0], 0)
    for read in (weight, crossing_terms):
        with pytest.raises(ValueError, match="modulus mismatch"):
            read(d, ec, f5)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), which=st.integers(0, 2))
def test_weight_is_the_sum_of_the_crossing_terms(f3, f5, f4, seed, which):
    # the one W, against the per-crossing record read by the `weight`
    # report and the verifier, on every coloring and every outer color
    d = random_closed_braid(random.Random(seed))
    f = (f3, f5, f4)[which]
    rows = d.tables.crossing_rows
    for col in enumerate_colorings(d, f.n):
        for s in range(f.n):
            ec = extend_coloring(d, col, s)
            terms = crossing_terms(d, ec, f)
            assert [t.crossing for t in terms] == [row[0] for row in rows]
            assert [t.epsilon for t in terms] == [row[1] for row in rows]
            for t in terms:
                assert t.term == t.epsilon * f(t.s, t.a, t.b)
            assert weight(d, ec, f) == sum(t.term for t in terms)


# -- Phi sets ----------------------------------------------------------------


def test_phi_d2(diagrams, f3):
    phi = phi_set(diagrams["d2"], 0, f3)
    assert phi.values == (-2, 2)
    assert sorted(sum(phi.witnesses.values(), ())) == sorted(
        cid
        for cid, c in enumerate(enumerate_colorings(diagrams["d2"], 3))
        if not is_trivial(c)
    )


def test_phi_d6(diagrams, f4):
    assert phi_set(diagrams["d6"], 0, f4).values == (-3744, -1004, 0, 292)


def test_d2_colorings_fall_into_two_term_patterns(diagrams, f3):
    # every non-trivial coloring of d2 contributes one of exactly two
    # term multisets, three colorings each
    d = diagrams["d2"]
    seen = Counter()
    for col in enumerate_colorings(d, 3):
        if is_trivial(col):
            continue
        ec = extend_coloring(d, col, 0)
        tri = tuple(sorted((t.s, t.a, t.b) for t in crossing_terms(d, ec, f3)))
        seen[tri] += 1
    assert seen == Counter(
        {
            ((0, 0, 1), (0, 1, 2), (0, 2, 0)): 3,
            ((0, 0, 2), (0, 1, 0), (0, 2, 1)): 3,
        }
    )


def test_d6_colorings_fall_into_four_term_patterns(diagrams, f4):
    d = diagrams["d6"]
    seen = Counter()
    for col in enumerate_colorings(d, 4):
        if is_trivial(col):
            continue
        ec = extend_coloring(d, col, 0)
        tri = tuple(sorted((t.s, t.a, t.b) for t in crossing_terms(d, ec, f4)))
        seen[(tri, weight(d, ec, f4))] += 1
    assert seen == Counter(
        {
            ((((0, 1, 3), (0, 1, 3), (0, 3, 1), (0, 3, 1))), -3744): 2,
            ((((0, 0, 1), (0, 1, 2), (0, 2, 3), (0, 3, 0))), -1004): 4,
            ((((0, 0, 2), (0, 0, 2), (0, 2, 0), (0, 2, 0))), 0): 2,
            ((((0, 0, 3), (0, 1, 0), (0, 2, 1), (0, 3, 2))), 292): 4,
        }
    )


def test_published_difference_sets(diagrams, f3, f4):
    d1, ec1 = reference_extension(diagrams, "d1", 3, 0)
    w1 = weight(d1, ec1, f3)
    phi2 = phi_set(diagrams["d2"], 0, f3).values
    assert {w1 - v for v in phi2} == {-10, -6}

    d5, ec5 = reference_extension(diagrams, "d5", 4, 0)
    w5 = weight(d5, ec5, f4)
    phi6 = phi_set(diagrams["d6"], 0, f4).values
    assert {w5 - v for v in phi6} == {-25720, -25428, -24424, -21684}


def test_phi_d4_equals_closed_form_oracle(diagrams, f5):
    oracle = sorted(w4_formula(a, b, f5) for a in range(5) for b in range(5) if a != b)
    assert len(set(oracle)) == 20
    assert list(phi_set(diagrams["d4"], 2, f5).values) == oracle


def test_w4_table(f5):
    for (a, b), want in W4_TABLE.items():
        assert w4_formula(a, b, f5) == want
    with pytest.raises(ValueError):
        w4_formula(2, 2, f5)


def test_phi_empty_when_no_nontrivial(f3):
    # the kink diagram of the unknot has only trivial colorings
    from tribound.diagram import diagram_from_dict
    from tribound.fixtures import closed_braid_code

    kink = diagram_from_dict(closed_braid_code(2, [(0, "L")], name="kink"))
    assert phi_set(kink, 0, f3).values == ()


# -- the parity observation on the two-component diagrams ---------------------


def test_component_parity_constant_mod4(diagrams):
    d = diagrams["d5"]
    comp_of_arc = {}
    for a in d.arcs:
        owners = {
            i for i, comp in enumerate(d.components) if a.edges[0] in comp
        }
        assert len(owners) == 1
        comp_of_arc[a.id] = owners.pop()
    for col in enumerate_colorings(d, 4):
        for i in range(len(d.components)):
            parities = {
                col.arc_colors[a.id] % 2
                for a in d.arcs
                if comp_of_arc[a.id] == i
            }
            assert len(parities) == 1


# -- W is linear in f ----------------------------------------------------------


def weight_vector(d, ec) -> Counter:
    """W as a vector: the signed crossing count per (s, a, b), a != b, read
    off the slots and the extended coloring, not off weight().  b is the
    over arc's color, a the color of the under arc right of the oriented
    over-strand and s the color of the region right of both strands.
    Corner j lies between slots j and j + 1 (ccw), so a strand leaving
    through slot j has corner j - 1 on its right, and one entering
    through slot j has corner j."""
    vec: Counter = Counter()
    for c in d.crossings:
        slot = {(t.level, t.direction): j for j, t in enumerate(c.slots)}
        p, q = slot["over", "out"], slot["under", "out"]
        over_right = {(p - 1) % 4, slot["over", "in"]}
        (corner,) = over_right & {(q - 1) % 4, slot["under", "in"]}
        edge, direction = c.slots[corner].edge, c.slots[corner].direction
        face = d.face_of_side(edge, "left" if direction == "out" else "right")
        a, b = (
            ec.base.arc_colors[d.arc_of_edge(c.slots[k].edge)]
            for k in ((p - 1) % 4, p)
        )
        if a != b:
            vec[ec.region_colors[face], a, b] += c.sign
    return vec


@pytest.fixture(scope="module")
def weight_vectors(diagrams):
    """(n, d, ec, W vector) for every coloring of d1..d6 at its pair's
    reference (n, s)."""
    out = []
    for case in FIXTURE_CASES:
        for d in (diagrams[name] for name in case.pair):
            for col in enumerate_colorings(d, case.n):
                ec = extend_coloring(d, col, case.s)
                out.append((case.n, d, ec, weight_vector(d, ec)))
    return out


def assert_projection(weight_vectors, f_str):
    fns = {}
    for n, d, ec, vec in weight_vectors:
        f = fns.setdefault(n, CochainFn.build(f_str, n))
        assert sum(k * f(*sab) for sab, k in vec.items()) == weight(d, ec, f)


def test_library_weight_vector_is_the_slot_read_one(weight_vectors):
    # invariant.weight_vector reads the same vector off Diagram.tables,
    # with no a = b triple and no zero count
    import tribound.invariant as invariant

    for _, d, ec, vec in weight_vectors:
        assert invariant.weight_vector(d, ec) == {t: k for t, k in vec.items() if k}


def test_weight_is_projection_of_weight_vector(weight_vectors):
    assert len(weight_vectors) > 6  # every coloring, not the references only
    for case in FIXTURE_CASES:
        assert_projection(weight_vectors, case.f_str)


_monomials = st.lists(
    st.tuples(st.integers(-9, 9), *[st.integers(0, 3)] * 3), max_size=4
)


@settings(max_examples=40, deadline=None)
@given(terms=_monomials)
def test_weight_is_projection_for_any_f(weight_vectors, terms):
    # f = (y - z) * g satisfies f(x, y, y) = 0 for every g
    g = " + ".join(f"({c})*x^{i}*y^{j}*z^{k}" for c, i, j, k in terms) or "0"
    assert_projection(weight_vectors, f"(y-z)*({g})")


# -- certificates ------------------------------------------------------------


def test_reference_certificates(diagrams):
    for case in FIXTURE_CASES:
        d, d2 = diagrams[case.pair[0]], diagrams[case.pair[1]]
        f = CochainFn.build(case.f_str, case.n)
        cert = certify_lower_bound(d, d2, case.s, f, case.max_m)
        assert cert.m == case.expected_m
        assert verify_certificate(cert, d, d2)


def test_table_f_certifies_as_its_polynomial(diagrams):
    # the polynomial's table, given as a table, gives the polynomial's
    # certificate but for f's name; the verifier cannot rebuild a table
    # from its name, so it refuses that certificate, and does not raise
    for case in FIXTURE_CASES:
        d, d2 = diagrams[case.pair[0]], diagrams[case.pair[1]]
        f = CochainFn.build(case.f_str, case.n)
        table_f = CochainFn.from_table(case.n, f.table)
        cert = certify_lower_bound(d, d2, case.s, table_f, case.max_m)
        assert cert.f_str == table_f.name != f.canonical()
        assert cert._replace(f_str=f.canonical()) == certify_lower_bound(
            d, d2, case.s, f, case.max_m
        )
        assert not verify_certificate(cert, d, d2)


# SHA-256 of json.dumps(cert.to_dict(), sort_keys=True) for each of
# FIXTURE_CASES, recorded before Delta sums had a bitmask kernel
CERT_DIGESTS = {
    ("d1", "d2"): "817d662ffe30678e89a00d03996b3ea32e443aa2e8c18d06ec28866c004afc5c",
    ("d3", "d4"): "bbd285e2a48f11d2e3e86a4fb118cc4e93f74246b976d6a22601f2b0e465bf02",
    ("d5", "d6"): "21aa4b5f2d0c05374e5f2a56d179a2e094110c19b6b2e192c7f7198374e6c4a8",
}


def test_reference_certificates_pinned(diagrams):
    for case in FIXTURE_CASES:
        d, d2 = diagrams[case.pair[0]], diagrams[case.pair[1]]
        f = CochainFn.build(case.f_str, case.n)
        cert = certify_lower_bound(d, d2, case.s, f, case.max_m)
        text = json.dumps(cert.to_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == CERT_DIGESTS[case.pair]


def test_same_diagram_gives_no_bound(diagrams, f3):
    cert = certify_lower_bound(diagrams["d1"], diagrams["d1"], 0, f3, 2)
    assert cert.m == 0
    assert cert.first_hit_level == 0
    assert verify_certificate(cert, diagrams["d1"], diagrams["d1"])


def test_certified_bound_monotone_in_max_m(diagrams, f5):
    d, d2 = diagrams["d3"], diagrams["d4"]
    values = [
        certify_lower_bound(d, d2, 2, f5, max_m).m for max_m in (1, 2, 3)
    ]
    assert values == [1, 2, 3]


def test_subsearch_never_beats_full_search(diagrams, f3):
    # scoring only a subset of colorings can only lower the bound
    d, d2 = diagrams["d1"], diagrams["d2"]
    full = certify_lower_bound(d, d2, 0, f3, 2)
    phi = set(phi_set(d2, 0, f3).values)
    reach = delta_reach(f3, 1)
    for col in enumerate_colorings(d, 3):
        if is_trivial(col):
            continue
        w = weight(d, extend_coloring(d, col, 0), f3)
        diffs = {w - v for v in phi}
        m = 0
        for i in range(2):
            if diffs & set(reach.levels[i]):
                break
            m += 1
        assert m <= full.m


def test_no_nontrivial_coloring_flagged(f3):
    from tribound.diagram import diagram_from_dict
    from tribound.fixtures import closed_braid_code

    kink = diagram_from_dict(closed_braid_code(2, [(0, "L")], name="kink"))
    cert = certify_lower_bound(kink, kink, 0, f3, 2)
    assert cert.m == 0 and cert.no_nontrivial_coloring
    assert verify_certificate(cert, kink, kink)


def test_bound_stays_put_as_max_m_grows(diagrams, f3, f4):
    # the reference bounds are the exact optima for their f: more
    # levels certify no more moves; the certifier counts the sizes above
    # its half levels without building those levels.  From max_m = 6 on
    # the two splits differ: the certifier counts |Delta_4| as
    # Delta_3 + Delta_1, the verifier as Delta_2 + Delta_2
    for pair, f, s, m, max_ms, sizes in (
        (("d1", "d2"), f3, 0, 2, range(2, 8), (1, 15, 39, 61, 83, 105, 127)),
        (("d5", "d6"), f4, 0, 3, range(3, 7),
         (1, 153, 8621, 55999, 97781, 136759)),
    ):
        d, d2 = diagrams[pair[0]], diagrams[pair[1]]
        for max_m in max_ms:
            cert = certify_lower_bound(d, d2, s, f, max_m)
            assert cert.m == m
            assert cert.first_hit_level == (m if max_m > m else None)
            assert cert.delta_level_sizes == sizes[:max_m]
            assert verify_certificate(cert, d, d2)
            if max_m <= 4:
                continue
            for step in (-1, 1):  # |Delta_4| off by one
                tampered = list(cert.delta_level_sizes)
                tampered[4] += step
                assert not verify_certificate(
                    cert._replace(delta_level_sizes=tuple(tampered)), d, d2
                )


def test_certify_memory_stays_at_half_levels(diagrams, f5):
    # d3 d4 at max_m = 3 holds Delta_0 and Delta_1 (701 values) and
    # counts |Delta_2| = 238 689 without building it; building Delta_2
    # took a 21 MiB peak
    import tracemalloc

    d, d2 = diagrams["d3"], diagrams["d4"]
    tracemalloc.start()
    try:
        cert = certify_lower_bound(d, d2, 2, f5, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.m == 3 and cert.delta_level_sizes == (1, 701, 238689)
    assert peak < 8 * 2**20


@pytest.mark.parametrize(
    "field, value",
    [
        ("delta_level_sizes", (1, 999)),
        ("first_hit_level", 0),
        ("level_verdicts", ("level 0: hit 7", "level 1: nonsense")),
        ("coloring_id", 5),
        ("w", 123),
        ("coloring", (1, 2, 3)),
        ("s", 7),
        ("s", -1),
        ("d_name", "zz"),
    ],
)
def test_verifier_checks_level_fields(diagrams, f3, field, value):
    # each field alone, on a certificate that otherwise verifies, is
    # refused, never raised on; the verifier used to ignore the level
    # fields, every field but s of a certificate with no coloring, and
    # the names, and raised on an outer color out of range
    d, d2 = diagrams["d1"], diagrams["d2"]
    cert = certify_lower_bound(d, d2, 0, f3, 2)
    assert verify_certificate(cert, d, d2)
    assert getattr(cert, field) != value
    assert not verify_certificate(cert._replace(**{field: value}), d, d2)
    # also where no coloring is scored
    from tribound.diagram import diagram_from_dict
    from tribound.fixtures import closed_braid_code

    kink = diagram_from_dict(closed_braid_code(2, [(0, "L")], name="kink"))
    cert = certify_lower_bound(kink, kink, 0, f3, 2)
    assert verify_certificate(cert, kink, kink)
    assert getattr(cert, field) != value
    assert not verify_certificate(
        cert._replace(**{field: value}), kink, kink
    )


def test_verification_rejects_tampering(diagrams, f3, f5, f4):
    d, d2 = diagrams["d1"], diagrams["d2"]
    cert = certify_lower_bound(d, d2, 0, f3, 2)
    assert verify_certificate(cert, d, d2)
    assert not verify_certificate(cert._replace(m=cert.m + 1), d, d2)
    assert not verify_certificate(cert._replace(w=0), d, d2)
    assert not verify_certificate(
        cert._replace(phi=(cert.phi[0],)), d, d2
    )
    assert not verify_certificate(cert, d2, d)  # wrong diagrams
    assert not verify_certificate(cert._replace(m=0, max_m=0), d, d2)
    assert not verify_certificate(
        cert._replace(no_nontrivial_coloring=True), d, d2
    )
    # the same f spelled otherwise: the certificate carries f.canonical()
    assert CochainFn.build("z*(x-y)*(y-z)", 3) == f3
    assert not verify_certificate(cert._replace(f_str="z*(x-y)*(y-z)"), d, d2)
    # malformed inputs give False, not an exception: f that does not
    # parse or breaks f(x, y, y) = 0, a table's name, inputs of the wrong
    # type; the caps on n and on the levels still raise
    for field, value in (
        ("f_str", "(x-"),
        ("f_str", "x*y"),
        ("f_str", CochainFn.from_table(3, f3.table).name),
        ("f_str", None),
        ("coloring_id", "3"),
        ("coloring_id", 3.0),
        ("n", "3"),
        ("s", "0"),
        ("max_m", 2.0),
        ("max_m", True),
    ):
        assert not verify_certificate(cert._replace(**{field: value}), d, d2), field
    for field, value in (("n", 101), ("max_m", 10**6)):
        with pytest.raises(ResourceCapExceeded):
            verify_certificate(cert._replace(**{field: value}), d, d2)

    # every wrong m: the verifier reads Delta_2 as Delta_1 + Delta_1 for
    # d3 d4 at max_m = 3, and the first hit, Delta_3, as Delta_2 + Delta_1
    # for d5 d6 at max_m = 4
    for pair, f, s, max_m in ((("d3", "d4"), f5, 2, 3), (("d5", "d6"), f4, 0, 4)):
        d, d2 = diagrams[pair[0]], diagrams[pair[1]]
        cert = certify_lower_bound(d, d2, s, f, max_m)
        assert cert.m == 3 and verify_certificate(cert, d, d2)
        for m in set(range(max_m + 1)) - {cert.m}:
            assert not verify_certificate(cert._replace(m=m), d, d2)


def test_certificate_json_is_pinned(diagrams, f3):
    # to_dict writes the fields after f_str in record order, so this pin
    # also fails if two fields of the record trade places
    cert = certify_lower_bound(diagrams["d1"], diagrams["d2"], 0, f3, 2)
    assert json.dumps(cert.to_dict()) == (
        '{"schema": 1, "pair": {'
        '"d": {"name": "d1", "sha256": '
        '"b7f64ec7fdfa9e160bed1b9e52b40b935f3c78f02a47abd84b190dc064c3338a"}, '
        '"d2": {"name": "d2", "sha256": '
        '"d1e1b1d6fb7708f6899b3d9dac737edcefd1289a033d1a9e5e24361955019679"}}, '
        '"f": "x*y*z - x*z^2 - y^2*z + y*z^2", "n": 3, "s": 0, "max_m": 2, '
        '"m": 2, "coloring_id": 3, "coloring": [1, 0, 2], "w": -8, '
        '"phi": [-2, 2], "delta_level_sizes": [1, 15], '
        '"level_verdicts": ["level 0: empty intersection", '
        '"level 1: empty intersection"], '
        '"first_hit_level": null, "no_nontrivial_coloring": false}'
    )


def test_verifier_rejects_tampered_colorings(diagrams, f3):
    # each certificate below is consistent in every field but the one
    # tampered with: W and the level verdicts are recomputed here for
    # the coloring it carries, from Delta_0..Delta_max_m-1 in full
    import tribound.invariant as invariant

    d, d2 = diagrams["d1"], diagrams["d2"]
    cert = certify_lower_bound(d, d2, 0, f3, 2)
    levels = delta_reach(f3, cert.max_m - 1).levels
    clear = invariant._split_levels(levels, cert.max_m, lambda k: (k, 0))[1]
    cols = enumerate_colorings(d, 3)

    def scored(cid, col):
        w = weight(d, extend_coloring(d, col, 0), f3)
        m, verdicts, first_hit = clear({w - v for v in cert.phi})
        return cert._replace(
            coloring_id=cid, coloring=col.arc_colors, w=w, m=m,
            level_verdicts=tuple(verdicts), first_hit_level=first_hit,
        )

    assert [is_trivial(c) for c in cols].count(False) == 6
    for cid, col in enumerate(cols):  # the construction itself verifies
        assert verify_certificate(scored(cid, col), d, d2) != is_trivial(col)
    assert scored(cert.coloring_id, cols[cert.coloring_id]) == cert
    other = 2 if cert.coloring_id != 2 else 1
    for tampered in (
        cert._replace(coloring=None),
        cert._replace(w=None),
        cert._replace(coloring_id=None),
        cert._replace(coloring_id=len(cols)),
        scored(cert.coloring_id - len(cols), cols[cert.coloring_id]),
        scored(cert.coloring_id, cols[other]),  # a valid coloring, not #id
        scored(0, cols[0]),  # trivial, with its own id
        cert._replace(
            m=0, level_verdicts=(invariant._NO_COLORING,),
            first_hit_level=None, no_nontrivial_coloring=True,
        ),
    ):
        assert not verify_certificate(tampered, d, d2), tampered


def test_verifier_builds_only_half_levels(diagrams, f5, monkeypatch):
    import tribound.cochain as cochain

    d, d2 = diagrams["d3"], diagrams["d4"]
    asked: list[int] = []

    def spy(f, max_m, **kwargs):
        asked.append(max_m)
        return delta_reach(f, max_m, **kwargs)

    monkeypatch.setattr(cochain, "delta_reach", spy)
    for max_m in (1, 2, 3):
        reach = delta_reach(f5, max_m - 1)
        cert = certify_lower_bound(
            d, d2, 2, f5, max_m, levels=lambda f, h: reach
        )
        asked.clear()
        assert verify_certificate(cert, d, d2)
        assert asked and max(asked) <= math.ceil((max_m - 1) / 2)


def test_certify_rejects_outer_color_before_levels(diagrams, f5):
    def no_levels(f, h):
        raise AssertionError("levels asked for an outer color out of range")

    for s in (-1, 5, 9):
        with pytest.raises(ValueError, match=rf"^outer color {s} not in Z\(5\)$"):
            certify_lower_bound(
                diagrams["d3"], diagrams["d4"], s, f5, 3, levels=no_levels
            )
    with pytest.raises(ValueError, match=r"^max_m must be >= 1, got 0$"):
        certify_lower_bound(
            diagrams["d3"], diagrams["d4"], 2, f5, 0, levels=no_levels
        )


def test_certify_asks_for_its_half_levels_once(diagrams, f3, monkeypatch):
    # h = ceil((max_m - 1) / 2), from the given source or, looked up at
    # call time, from delta_reach
    import tribound.cochain as cochain

    d, d2 = diagrams["d1"], diagrams["d2"]
    asked: list[int] = []

    def source(f, h):
        asked.append(h)
        return delta_reach(f, h)

    monkeypatch.setattr(cochain, "delta_reach", source)
    for max_m in range(1, 6):
        for levels in (source, None):
            asked.clear()
            cert = certify_lower_bound(d, d2, 0, f3, max_m, levels=levels)
            assert asked == [max_m // 2] == [math.ceil((max_m - 1) / 2)]
            assert verify_certificate(cert, d, d2)


def test_verifier_rejects_levels_missing_hits(diagrams, f3):
    # the certifier trusts the half levels it is given; at max_m = 3 it
    # meets Delta_2 as Delta_1 + Delta_1, so with every value b of Delta_1
    # that pairs with some d - b in Delta_1, d in W - Phi of the winning
    # coloring, taken out it over-claims, and
    # the verifier, which builds its own levels, must refuse the
    # certificate, also with the true level sizes put back
    d, d2 = diagrams["d1"], diagrams["d2"]
    good = certify_lower_bound(d, d2, 0, f3, 3)
    assert good.m == 2 and good.delta_level_sizes == (1, 15, 39)
    diffs = {good.w - v for v in good.phi}
    reach = delta_reach(f3, 1)
    level1 = tuple(
        b for b in reach.levels[1]
        if not any(dd - b in reach.levels[1] for dd in diffs)
    )
    assert level1 == (0, 4, 7, 8, 11)
    bad = DeltaReach(f=f3, im_delta=reach.im_delta,
                     levels=(reach.levels[0], level1))
    cert = certify_lower_bound(d, d2, 0, f3, 3, levels=lambda f, h: bad)
    assert cert.m == 3 and cert.first_hit_level is None
    assert not verify_certificate(cert, d, d2)
    assert not verify_certificate(
        cert._replace(delta_level_sizes=good.delta_level_sizes), d, d2
    )


def test_certify_counts_sizes_under_the_level_cap(diagrams, f3, monkeypatch):
    # |Delta_2| = 39 is counted, cold and with the half levels supplied,
    # before Phi is built; the sizes are informational, so past the cap
    # the list stops before |Delta_2|, while the meet still finds the hit
    # in Delta_2 and the verifier stops the list at the same place
    import tribound.cochain as cochain
    import tribound.invariant as invariant

    d, d2 = diagrams["d1"], diagrams["d2"]
    warm = delta_reach(f3, 1)
    calls: list[str] = []
    count, build_phi = cochain.sumset_size, invariant.phi_set

    def counted(a, b):
        calls.append("count")
        return count(a, b)

    def phi(*args):
        calls.append("phi")
        return build_phi(*args)

    monkeypatch.setattr(cochain, "sumset_size", counted)
    monkeypatch.setattr(invariant, "phi_set", phi)
    for cap, sizes in ((38, (1, 15)), (39, (1, 15, 39))):
        monkeypatch.setattr(cochain, "DEFAULT_LEVEL_CAP", cap)
        for levels in (None, lambda f, h: warm):
            calls.clear()
            cert = certify_lower_bound(d, d2, 0, f3, 3, levels=levels)
            assert calls == ["count", "phi"]
            assert cert.delta_level_sizes == sizes
            assert (cert.m, cert.first_hit_level) == (2, 2)
            assert verify_certificate(cert, d, d2)
            other = (1, 15, 39) if cap == 38 else (1, 15)
            assert not verify_certificate(
                cert._replace(delta_level_sizes=other), d, d2
            )
    # supplied levels must reach Delta_h
    with pytest.raises(ValueError, match=r"^supplied levels reach Delta_0, need Delta_1$"):
        certify_lower_bound(
            d, d2, 0, f3, 3, levels=lambda f, h: delta_reach(f3, 0)
        )


def test_all_emitted_certificates_reverify(diagrams, f3, f5, f4, rng):
    # every certificate the searcher can emit on the bundled codes, plus
    # same-diagram pairs, must pass the independent checker
    from tribound.diagram import set_outer_face

    emitted = 0
    for name, f, s in (("d1", f3, 0), ("d5", f4, 0)):
        base = diagrams[name]
        for fa, fb in itertools.product(range(len(base.faces)), repeat=2):
            d = set_outer_face(base, fa)
            d2 = set_outer_face(base, fb)
            cert = certify_lower_bound(d, d2, s, f, 2)
            assert verify_certificate(cert, d, d2)
            emitted += 1
    assert emitted == 25 + 36


def test_certificate_serialization(diagrams, f3):
    cert = certify_lower_bound(diagrams["d1"], diagrams["d2"], 0, f3, 2)
    blob = cert.to_dict()
    assert blob["schema"] == 1
    assert blob["m"] == 2
    assert blob["pair"]["d"]["name"] == "d1"
    assert blob["coloring"] == list(REFERENCE_COLORINGS["d1"][1]) or blob["w"] == -8
