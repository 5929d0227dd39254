from __future__ import annotations

import pytest

from tribound.diagram import diagram_from_dict, diagram_to_dict
from tribound.fixtures import (
    FIXTURE_CASES,
    closed_braid_code,
    fixture_dict,
    fixture_names,
    load_fixture,
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
