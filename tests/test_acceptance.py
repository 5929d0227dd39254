"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line.  Every expected number is exact (integer equality); the
stated wall-clock budgets are asserted too.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager

from tribound.cochain import (
    delta_f,
    delta_reach,
    image_delta,
)
from tribound.coloring import (
    Coloring,
    enumerate_colorings,
    extend_coloring,
    is_trivial,
    quandle_star,
)
from tribound.fixtures import (
    DELTA_TABLE_N3,
    EXPECTED,
    FIXTURE_CASES,
    REFERENCE_COLORINGS,
    W4_TABLE,
    load_fixture,
    w4_formula,
)
from tribound.invariant import (
    certify_lower_bound,
    phi_set,
    verify_certificate,
    weight,
)
from tribound.poly import CochainFn

from conftest import random_closed_braid


@contextmanager
def criterion(label: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"{label}: took {elapsed:.2f}s, budget {budget_s}s"
    print(f"[PASS] {label} ({elapsed:.2f}s)")


def test_criterion_1_delta_table():
    with criterion("1. coboundary table n=3: 24 values + degenerate zeros", 1.0):
        f3 = CochainFn.build("(x-y)*(y-z)*z", 3)
        for tup, want in DELTA_TABLE_N3.items():
            assert delta_f(f3, *tup) == want
        assert delta_f(f3, 0, 1, 0, 1) == 2
        assert delta_f(f3, 0, 2, 0, 1) == 11
        assert delta_f(f3, 1, 0, 1, 0) == 7
        assert delta_f(f3, 2, 1, 2, 1) == -2
        for t in itertools.product(range(3), repeat=4):
            if t[0] == t[1] or t[1] == t[2] or t[2] == t[3]:
                assert delta_f(f3, *t) == 0
            else:
                assert t in DELTA_TABLE_N3


def test_criterion_2_delta1_set():
    with criterion("2. Delta_1 = {0,±1,±2,±4,±5,±7,±8,±11} for n=3", 1.0):
        f3 = CochainFn.build("(x-y)*(y-z)*z", 3)
        assert delta_reach(f3, 1).levels[1] == EXPECTED["delta1_n3"]


def test_criterion_3_image_sizes():
    with criterion("3. |Im(df)| = 393 (n=5)", 1.0):
        f5 = CochainFn.build("(x+y)^3*(y+z)*(y-z)^3*z^5", 5)
        assert len(image_delta(f5)) == 393
    with criterion("3. |Im(df)| = 105 (n=4)", 1.0):
        f4 = CochainFn.build("(x+y)^2*(y-z)^3*z^5", 4)
        assert len(image_delta(f4)) == 105


def test_criterion_4_closed_form_table():
    with criterion("4. closed-form oracle reproduces all 20 table values", 1.0):
        f5 = CochainFn.build("(x+y)^3*(y+z)*(y-z)^3*z^5", 5)
        for (a, b), want in W4_TABLE.items():
            assert w4_formula(a, b, f5) == want
        assert w4_formula(0, 1, f5) == 142336
        assert w4_formula(3, 2, f5) == 10555072
        assert w4_formula(4, 0, f5) == -7107048


def test_criterion_5_fixture_weights_and_phi_sets():
    with criterion("5. reference weights and weight-value sets", 5.0):
        f3 = CochainFn.build("(x-y)*(y-z)*z", 3)
        f5 = CochainFn.build("(x+y)^3*(y+z)*(y-z)^3*z^5", 5)
        f4 = CochainFn.build("(x+y)^2*(y-z)^3*z^5", 4)
        for name, f, s in (("d1", f3, 0), ("d3", f5, 2), ("d5", f4, 0)):
            d = load_fixture(name)
            cid, colors = REFERENCE_COLORINGS[name]
            col = enumerate_colorings(d, f.n)[cid]
            assert col.arc_colors == colors
            ec = extend_coloring(d, col, s)
            assert weight(d, ec, f) == EXPECTED["weights"][name]
        assert phi_set(load_fixture("d2"), 0, f3).values == (-2, 2)
        oracle = tuple(
            sorted(w4_formula(a, b, f5) for a in range(5) for b in range(5) if a != b)
        )
        assert phi_set(load_fixture("d4"), 2, f5).values == oracle
        assert phi_set(load_fixture("d6"), 0, f4).values == (
            -3744, -1004, 0, 292,
        )


def test_criterion_6_certified_bounds():
    with criterion("6. certified bounds m = 2, 3, 3 (Delta_2 within budget)", 60.0):
        for case in FIXTURE_CASES:
            d = load_fixture(case.pair[0])
            d2 = load_fixture(case.pair[1])
            f = CochainFn.build(case.f_str, case.n)
            cert = certify_lower_bound(d, d2, case.s, f, case.max_m)
            assert cert.m == case.expected_m, (case.pair, cert.m)


def test_criterion_7_property_suites(rng):
    with criterion("7a. dihedral identities for all n <= 12", 2.0):
        for n in range(1, 13):
            for x, y in itertools.product(range(n), repeat=2):
                assert quandle_star(x, x, n) == x
                assert quandle_star(quandle_star(x, y, n), y, n) == x
            for s, a, b in itertools.product(range(n), repeat=3):
                assert quandle_star(
                    quandle_star(s, b, n), quandle_star(a, b, n), n
                ) == quandle_star(quandle_star(s, a, n), b, n)

    fns = [
        CochainFn.build("(x-y)*(y-z)*z", 3),
        CochainFn.build("(x+y)^3*(y+z)*(y-z)^3*z^5", 5),
        CochainFn.build("(x+y)^2*(y-z)^3*z^5", 4),
    ]
    with criterion("7b. six-term slide identity equals the coboundary", 5.0):
        for f in fns:
            n = f.n
            for s, a, b, c in itertools.product(range(n), repeat=4):
                lhs = (
                    f(s, a, b)
                    + f(quandle_star(s, b, n), quandle_star(a, b, n), c)
                    + f(s, b, c)
                    - f(quandle_star(s, a, n), b, c)
                    - f(s, a, c)
                    - f(
                        quandle_star(s, c, n),
                        quandle_star(a, c, n),
                        quandle_star(b, c, n),
                    )
                )
                assert lhs == delta_f(f, s, a, b, c)

    with criterion("7c. weight vanishes on trivial colorings, 20 random diagrams", 10.0):
        for i in range(20):
            d = random_closed_braid(rng, name=f"r{i}")
            f = fns[i % 3]
            col = Coloring(n=f.n, arc_colors=(i % f.n,) * len(d.arcs))
            ec = extend_coloring(d, col, (2 * i) % f.n)
            assert weight(d, ec, f) == 0

    with criterion("7d. level sets are symmetric and nested", 5.0):
        for f, m in zip(fns, (3, 2, 2)):
            reach = delta_reach(f, m)
            for lv in reach.levels:
                assert set(lv) == {-v for v in lv}
            for small, big in zip(reach.levels, reach.levels[1:]):
                assert set(small) <= set(big)

    with criterion("7e. region relation s+t=2a on every edge, all six diagrams", 10.0):
        moduli = {"d1": 3, "d2": 3, "d3": 5, "d4": 5, "d5": 4, "d6": 4}
        for name, n in moduli.items():
            d = load_fixture(name)
            for col in enumerate_colorings(d, n):
                for s in range(n):
                    ec = extend_coloring(d, col, s)
                    for e in d.edges:
                        a = col.arc_colors[d.arc_of_edge(e.id)]
                        lf = ec.region_colors[d.face_of_side(e.id, "left")]
                        rf = ec.region_colors[d.face_of_side(e.id, "right")]
                        assert (lf + rf - 2 * a) % n == 0

    with criterion("7f. every emitted certificate re-verifies", 30.0):
        for case in FIXTURE_CASES:
            d = load_fixture(case.pair[0])
            d2 = load_fixture(case.pair[1])
            f = CochainFn.build(case.f_str, case.n)
            for max_m in range(1, case.max_m + 1):
                cert = certify_lower_bound(d, d2, case.s, f, max_m)
                assert verify_certificate(cert, d, d2)
            same = certify_lower_bound(d, d, case.s, f, case.max_m)
            assert same.m == 0
            assert verify_certificate(same, d, d)


def test_criterion_8_oracle_equivalence():
    with criterion("8. enumeration matches brute force (trefoil 9, figure-eight 25)", 10.0):
        for name, n, want in (("d1", 3, 9), ("d3", 5, 25)):
            d = load_fixture(name)
            relations = []
            for c in d.crossings:
                under = {s.direction: d.arc_of_edge(s.edge)
                         for s in c.slots if s.level == "under"}
                over = next(
                    d.arc_of_edge(s.edge)
                    for s in c.slots
                    if s.level == "over" and s.direction == "in"
                )
                relations.append((under["in"], under["out"], over))
            brute = sorted(
                assignment
                for assignment in itertools.product(range(n), repeat=len(d.arcs))
                if all(
                    (assignment[a] + assignment[c] - 2 * assignment[b]) % n == 0
                    for (a, c, b) in relations
                )
            )
            got = [c.arc_colors for c in enumerate_colorings(d, n)]
            assert got == brute
            assert len(got) == want
        nontrivial = [
            c
            for c in enumerate_colorings(load_fixture("d3"), 5)
            if not is_trivial(c)
        ]
        assert len(nontrivial) == 20 == len(W4_TABLE)
