from __future__ import annotations

import pytest

import tribound.fixtures as fixtures
from tribound.diagram import diagram_from_dict, diagram_to_dict
from tribound.fixtures import (
    DELTA_TABLE_N3,
    EXPECTED,
    FIXTURE_CASES,
    REFERENCE_COLORINGS,
    W4_TABLE,
    closed_braid_code,
    fixture_dict,
    fixture_names,
    load_fixture,
    reproduce_checks,
)


def test_names():
    assert fixture_names() == ["d1", "d2", "d3", "d4", "d5", "d6"]
    with pytest.raises(KeyError):
        fixture_dict("d7")


def test_all_fixtures_valid():
    for name in fixture_names():
        d = load_fixture(name)
        assert diagram_from_dict(diagram_to_dict(d)) == d


def test_rebased_pairs_share_sphere_codes():
    # each even-numbered diagram is the previous code with a different
    # outer region, nothing else
    for a, b in (("d1", "d2"), ("d3", "d4"), ("d5", "d6")):
        da, db = fixture_dict(a), fixture_dict(b)
        assert da["crossings"] == db["crossings"]
        assert da["outer_face"] != db["outer_face"]
    for case in FIXTURE_CASES:
        d = load_fixture(case.pair[0])
        d2 = load_fixture(case.pair[1])
        assert diagram_to_dict(d)["crossings"] == diagram_to_dict(d2)["crossings"]


def test_braid_builder_rejects_bad_words():
    with pytest.raises(ValueError):
        closed_braid_code(1, [], name="x")
    with pytest.raises(ValueError):
        closed_braid_code(3, [(0, "L")], name="x")  # column 2 untouched
    with pytest.raises(ValueError, match="closure would split"):
        closed_braid_code(4, [(0, "L"), (2, "L")], name="x")  # column 1 empty
    with pytest.raises(ValueError):
        closed_braid_code(2, [(5, "L")], name="x")
    with pytest.raises(ValueError):
        closed_braid_code(2, [(0, "Q")], name="x")


# what `tribound reproduce` prints, one line per check, in this order
LABELS = [
    "coboundary table (n=3, 24 values + degenerate zeros)",
    "Delta_1 set (n=3)",
    "|Im(df)| = 393 (n=5)",
    "|Im(df)| = 105 (n=4)",
    "closed-form weight table (20 values, n=5)",
    "W(d1) = -8",
    "W(d3) = -3576",
    "W(d5) = -25428",
    "Phi(d2, 0) = {2, -2}",
    "Phi(d6, 0) = {-3744, 0, -1004, 292}",
    "Phi(d4, 2) matches the closed-form value set",
    "certified d1/d2 needs >= 2 type-III moves",
    "certified d3/d4 needs >= 3 type-III moves",
    "certified d5/d6 needs >= 3 type-III moves",
]


def test_reproduce_checks_pass_in_order():
    checks = reproduce_checks()
    assert [label for label, _, _ in checks] == LABELS
    assert all(ok for _, ok, _ in checks)
    assert [detail for _, _, detail in checks] == [
        "", f"got {EXPECTED['delta1_n3']}", "got 393", "got 105", "",
        "got -8", "got -3576", "got -25428", "got {2, -2}",
        "got {-3744, 0, -1004, 292}", "got 20 values",
        "got m = 2", "got m = 3", "got m = 3",
    ]


def _tamper_expected_m(monkeypatch):
    cases = list(FIXTURE_CASES)
    cases[1] = cases[1]._replace(expected_m=4)
    monkeypatch.setattr(fixtures, "FIXTURE_CASES", tuple(cases))


# each reference datum, tampered with, and the checks that must then fail
# as (label, detail); every other check must still pass
TAMPERED = {
    "coboundary entry": (
        lambda mp: mp.setitem(DELTA_TABLE_N3, (0, 2, 1, 0), -3),
        [(LABELS[0], "first mismatch ((0, 2, 1, 0), -4, -3)")],
    ),
    "degenerate zero": (
        lambda mp: mp.setitem(DELTA_TABLE_N3, (0, 0, 1, 2), 3),
        [(LABELS[0], "first mismatch ((0, 0, 1, 2), 0, 3)")],
    ),
    "Delta_1": (
        lambda mp: mp.setitem(EXPECTED, "delta1_n3", EXPECTED["delta1_n3"][:-1]),
        [(LABELS[1], f"got {EXPECTED['delta1_n3']}")],
    ),
    "image size": (
        lambda mp: mp.setitem(EXPECTED["image_sizes"], 5, 394),
        [("|Im(df)| = 394 (n=5)", "got 393")],
    ),
    "closed-form table entry": (
        lambda mp: mp.setitem(W4_TABLE, (3, 2), 10555073),
        [(LABELS[4], "first mismatch ((3, 2), 10555072, 10555073)"),
         (LABELS[10], "got 20 values")],
    ),
    "reference weight": (
        lambda mp: mp.setitem(EXPECTED["weights"], "d3", -3575),
        [("W(d3) = -3575", "got -3576")],
    ),
    "reference coloring": (
        lambda mp: mp.setitem(REFERENCE_COLORINGS, "d5", (4, (1, 0, 2, 2))),
        [(LABELS[7], "got None")],
    ),
    "Phi set": (
        lambda mp: mp.setitem(EXPECTED["phi"], "d6", (-3744, -1004, 292)),
        [("Phi(d6, 0) = {-3744, -1004, 292}", "got {-3744, 0, -1004, 292}")],
    ),
    "expected m": (
        _tamper_expected_m,
        [("certified d3/d4 needs >= 4 type-III moves", "got m = 3")],
    ),
}


@pytest.mark.parametrize("datum", TAMPERED)
def test_reproduce_fails_exactly_the_tampered_check(monkeypatch, datum):
    tamper, failing = TAMPERED[datum]
    tamper(monkeypatch)
    checks = reproduce_checks()
    assert len(checks) == len(LABELS)
    assert [(label, detail) for label, ok, detail in checks if not ok] == failing
