from __future__ import annotations

import collections
import copy
import hashlib
import importlib
import itertools
import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tribound.diagram as diagram
from tribound.diagram import (
    DiagramConnectivityError,
    DiagramError,
    DiagramPlanarityError,
    DiagramStructureError,
    DiagramSyntaxError,
    derived_dict,
    diagram_from_dict,
    diagram_to_dict,
    parse_diagram,
    set_outer_face,
    sha256_hex,
)
from tribound.fixtures import EXPECTED, closed_braid_code

from conftest import random_closed_braid, relabel

BENCH = Path(__file__).resolve().parents[1] / "bench"


def kink_code() -> dict:
    return closed_braid_code(2, [(0, "L")], name="kink")


def test_trefoil_counts(diagrams):
    d = diagrams["d1"]
    assert len(d.crossings) == 3
    assert len(d.edges) == 6
    assert len(d.arcs) == 3
    assert len(d.faces) == 5
    assert all(len(a.edges) == 2 for a in d.arcs)


def test_figure_eight_counts(diagrams):
    d = diagrams["d3"]
    assert (len(d.crossings), len(d.edges), len(d.arcs), len(d.faces)) == (4, 8, 4, 6)
    assert all(len(a.edges) == 2 for a in d.arcs)


def test_torus_link_counts(diagrams):
    d = diagrams["d5"]
    assert (len(d.crossings), len(d.edges), len(d.faces)) == (4, 8, 6)
    assert len(d.components) == 2
    assert all(len(comp) == 4 for comp in d.components)


def test_kink_counts():
    d = diagram_from_dict(kink_code())
    assert (len(d.crossings), len(d.edges), len(d.faces)) == (1, 2, 3)
    # the single under-pass cuts the circle once, giving one arc that
    # runs through the over-pass
    assert len(d.arcs) == 1
    assert sorted(d.arcs[0].edges) == [0, 1]


def test_euler_formula_random(rng):
    for i in range(25):
        d = random_closed_braid(rng, name=f"r{i}")
        v, e, f = len(d.crossings), len(d.edges), len(d.faces)
        assert e == 2 * v
        assert v - e + f == 2


def test_face_tracing_covers_every_side_once(rng):
    for i in range(10):
        d = random_closed_braid(rng, name=f"r{i}")
        sides = [pair for face in d.faces for pair in face.boundary]
        assert len(sides) == 2 * len(d.edges)
        assert len(set(sides)) == len(sides)
        expected = {(e.id, s) for e in d.edges for s in ("left", "right")}
        assert set(sides) == expected


def test_arcs_partition_edges_and_break_at_unders(rng):
    for i in range(10):
        d = random_closed_braid(rng, name=f"r{i}")
        seen = [e for a in d.arcs for e in a.edges]
        edge = {e.id: e for e in d.edges}
        assert sorted(seen) == sorted(e.id for e in d.edges)
        # consecutive arc edges meet at a crossing through its over slots
        for a in d.arcs:
            pairs = list(zip(a.edges, a.edges[1:]))
            if a.closed and len(a.edges) > 1:
                pairs.append((a.edges[-1], a.edges[0]))
            for e1, e2 in pairs:
                c1, k1 = edge[e1].head
                c2, k2 = edge[e2].tail
                assert c1 == c2
                cr = d.crossing(c1)
                assert cr.slots[k1].level == "over"
                assert cr.slots[k2].level == "over"
        breaks = sum(1 for a in d.arcs if not a.closed)
        loops = sum(1 for a in d.arcs if a.closed)
        assert breaks == len(d.crossings) or loops > 0


def test_signs_of_reference_diagrams(diagrams):
    for name in ("d1", "d3", "d5"):
        d = diagrams[name]
        assert tuple(c.sign for c in d.crossings) == EXPECTED["signs"][name]
        assert tuple(d.crossing(c.id).sign for c in d.crossings) == EXPECTED["signs"][name]


def lookup_cases(diagrams):
    """d1-d6, each followed by a copy with new edge and crossing ids."""
    rng = random.Random(20261020)
    for d in diagrams.values():
        yield d
        yield relabel(d, rng)


def scan_slot(c, level, direction):
    (k,) = [k for k, s in enumerate(c.slots) if (s.level, s.direction) == (level, direction)]
    return k


def test_slot_position_is_the_slot_of_that_level_and_direction(diagrams):
    for d in lookup_cases(diagrams):
        for c in d.crossings:
            for level, direction in itertools.product(("over", "under"), ("in", "out")):
                assert d.slot_position(c.id, level, direction) == scan_slot(c, level, direction)
            for level, direction in (("middle", "in"), ("over", "across"), ("in", "over")):
                with pytest.raises(KeyError):
                    d.slot_position(c.id, level, direction)


def test_crossing_is_looked_up_by_id(diagrams):
    for d in lookup_cases(diagrams):
        for c in d.crossings:
            assert d.crossing(c.id) is c
        with pytest.raises(KeyError):
            d.crossing(len(d.crossings))


def test_corner_faces(diagrams):
    # corner k of a crossing is the face left of the dart leaving by slot
    # k, and every dart leaves by one slot of one crossing
    for d in lookup_cases(diagrams):
        corners = collections.Counter(
            d.corner_face(c.id, k) for c in d.crossings for k in range(4)
        )
        assert corners == {f.id: len(f.boundary) for f in d.faces}
        for c, row in zip(d.crossings, d.tables.crossing_rows):
            p = scan_slot(c, "over", "out")
            assert row[0] == c.id
            assert row[4] == d.corner_face(c.id, p + 2 if c.sign > 0 else p + 3)


def test_arc_and_face_lookups_agree_with_the_records(diagrams):
    for d in lookup_cases(diagrams):
        arc = {e: a.id for a in d.arcs for e in a.edges}
        assert {e.id: d.arc_of_edge(e.id) for e in d.edges} == arc
        for f in d.faces:
            for e, side in f.boundary:
                assert d.face_of_side(e, side) == f.id


@pytest.mark.parametrize("seed", [1, 2])
def test_signs_arcs_and_faces_match_the_benchmark_checker(monkeypatch, seed):
    # bench/checker.py derives signs, arcs and faces from the JSON code on
    # its own, without tribound; its face order is tribound's
    monkeypatch.syspath_prepend(str(BENCH))
    checker = importlib.import_module("checker")
    inputs = importlib.import_module("inputs")
    codes, _ = inputs.workload("certify-cold", seed)
    for code in codes.values():
        d = diagram_from_dict(code)
        assert {c.id: c.sign for c in d.crossings} == checker.signs(code)
        assert {e: a.id for a in d.arcs for e in a.edges} == checker.arcs(code)
        assert [sorted(e for e, _ in f.boundary) for f in d.faces] == checker.faces(code)


def test_mirror_negates_signs(diagrams):
    code = diagram_to_dict(diagrams["d1"])
    for c in code["crossings"]:
        for s in c["slots"]:
            s["level"] = "over" if s["level"] == "under" else "under"
    mirror = diagram_from_dict(code)
    assert [c.sign for c in mirror.crossings] == [-1, -1, -1]


def test_reversing_all_orientations_keeps_signs(diagrams):
    for name in ("d1", "d3", "d5"):
        code = diagram_to_dict(diagrams[name])
        for c in code["crossings"]:
            for s in c["slots"]:
                s["dir"] = "out" if s["dir"] == "in" else "in"
        reversed_d = diagram_from_dict(code)
        assert [c.sign for c in reversed_d.crossings] == [
            c.sign for c in diagrams[name].crossings
        ]


def test_slot_rotation_is_cosmetic(diagrams):
    # rotating a crossing's ccw slot list must not change anything derived
    base = diagrams["d3"]
    code = diagram_to_dict(base)
    for shift, c in enumerate(code["crossings"]):
        k = shift % 4
        c["slots"] = c["slots"][k:] + c["slots"][:k]
    rotated = diagram_from_dict(code)
    assert [c.sign for c in rotated.crossings] == [c.sign for c in base.crossings]
    assert rotated.arcs == base.arcs
    assert rotated.faces == base.faces


def test_round_trip(diagrams):
    for d in diagrams.values():
        again = parse_diagram(json.dumps(diagram_to_dict(d)))
        assert again == d


def test_set_outer_face(diagrams):
    d = diagrams["d1"]
    moved = set_outer_face(d, 3)
    assert moved.outer_face == 3
    assert moved.faces == d.faces and moved.arcs == d.arcs
    assert set_outer_face(d, d.outer_face) == d
    for bad in (99, len(d.faces), -1, True, 1.0, "1"):
        with pytest.raises(DiagramStructureError, match="unknown face id"):
            set_outer_face(d, bad)


def test_outer_face_by_edge_list(diagrams):
    code = diagram_to_dict(diagrams["d1"])
    face = diagrams["d1"].faces[diagrams["d1"].outer_face]
    code["outer_face"] = [e for (e, _) in face.boundary]
    assert diagram_from_dict(code).outer_face == diagrams["d1"].outer_face
    code["outer_face"] = [97, 98]
    with pytest.raises(DiagramStructureError):
        diagram_from_dict(code)


def assert_faces_have_distinct_edge_sets(d):
    """No two faces of a valid diagram have the same boundary edges, so
    an edge list names at most one face.

    The graph is 4-valent, so every vertex has even degree and no edge
    is a bridge: each edge borders two distinct faces.  Were faces
    F1 != F2 bounded by the same edges, every edge of F1 would have F1 on
    one side and F2 on the other, so at any crossing on F1 the corners
    would alternate F1, F2, F1, F2 and all four of its edges would bound
    both.  The graph is connected, so every crossing would be such a
    crossing, and there would be 2 faces in all; Euler's formula gives
    F = E - V + 2 = V + 2 >= 3.
    """
    edge_sets = [tuple(sorted(e for e, _ in f.boundary)) for f in d.faces]
    assert len(set(edge_sets)) == len(edge_sets)


def test_faces_of_reference_diagrams_have_distinct_edge_sets(diagrams):
    for d in diagrams.values():
        assert_faces_have_distinct_edge_sets(d)


@st.composite
def braid_closures(draw):
    """A connected braid closure on 2 to 4 strand positions, with up to
    11 crossings."""
    strands = draw(st.integers(2, 4))
    crossing = st.tuples(st.integers(0, strands - 2), st.sampled_from("LR"))
    word = draw(st.lists(crossing, max_size=11 - (strands - 1)))
    word += [(col, draw(st.sampled_from("LR"))) for col in range(strands - 1)]
    word = draw(st.permutations(word))
    return diagram_from_dict(closed_braid_code(strands, word, name="braid"))


@settings(max_examples=200, deadline=None)
@given(d=braid_closures())
def test_faces_of_braid_closures_have_distinct_edge_sets(d):
    assert_faces_have_distinct_edge_sets(d)


def test_outer_face_of_wrong_type_is_syntax(diagrams):
    code = diagram_to_dict(diagrams["d1"])
    for bad in (True, "x", [0, True]):
        code["outer_face"] = bad
        with pytest.raises(DiagramSyntaxError) as err:
            diagram_from_dict(code)
        assert [i.kind for i in err.value.issues] == ["syntax"]


def test_dict_round_trip(diagrams, rng):
    # the source form re-derives every derived field as parsed
    pool = [*diagrams.values()]
    pool += [random_closed_braid(rng, name=f"r{i}") for i in range(20)]
    for d in pool:
        assert diagram_from_dict(diagram_to_dict(d)) == d


def test_round_trip_rederives_stale_fields(diagrams):
    d = diagrams["d3"]
    first = d.crossings[0]
    flipped = (first._replace(sign=-first.sign),) + d.crossings[1:]
    stale_sign = d._replace(crossings=flipped)
    stale_faces = d._replace(faces=tuple(reversed(d.faces)))
    for stale, field in ((stale_sign, "crossings"), (stale_faces, "faces")):
        fresh = diagram_from_dict(diagram_to_dict(stale))
        assert fresh == d != stale
        assert getattr(fresh, field) != getattr(stale, field)


def test_edge_used_three_times():
    code = kink_code()
    code["crossings"][0]["slots"][0]["edge"] = 0  # edge 0 now appears 3 times
    with pytest.raises(DiagramStructureError) as err:
        diagram_from_dict(code)
    issues = err.value.issues
    assert issues and any("edge 0" in i.message for i in issues)


def test_two_in_under_slots():
    code = kink_code()
    # make both under slots point inward
    for s in code["crossings"][0]["slots"]:
        if s["level"] == "under":
            s["dir"] = "in"
        else:
            s["dir"] = "out"
    with pytest.raises(DiagramStructureError) as err:
        diagram_from_dict(code)
    assert any(i.kind == "orientation" for i in err.value.issues)


def test_adjacent_under_slots_rejected():
    code = kink_code()
    slots = code["crossings"][0]["slots"]
    slots[0]["level"], slots[1]["level"] = "under", "under"
    slots[2]["level"], slots[3]["level"] = "over", "over"
    with pytest.raises(DiagramStructureError) as err:
        diagram_from_dict(code)
    assert any("cyclically opposite" in i.message for i in err.value.issues)


def test_nonplanar_code_rejected(diagrams):
    # swapping the two closure edges of the 4-crossing torus braid twists
    # the closure into a genus-1 rotation system
    code = diagram_to_dict(diagrams["d5"])
    tails = {}
    for c in code["crossings"]:
        if c["id"] != 3:
            continue
        a = c["slots"][2]["edge"]
        b = c["slots"][3]["edge"]
        c["slots"][2]["edge"], c["slots"][3]["edge"] = b, a
        tails = {a, b}
    assert tails
    with pytest.raises(DiagramPlanarityError) as err:
        diagram_from_dict(code)
    assert any(i.kind == "planarity" for i in err.value.issues)


def test_split_diagram_rejected():
    a = closed_braid_code(2, [(0, "L")], name="a")
    b = closed_braid_code(2, [(0, "L")], name="b")
    # shift ids of the second kink and drop both into one file
    for c in b["crossings"]:
        c["id"] += 10
        for s in c["slots"]:
            s["edge"] += 10
    merged = {
        "name": "split",
        "crossings": a["crossings"] + b["crossings"],
        "outer_face": 0,
    }
    with pytest.raises(DiagramConnectivityError):
        diagram_from_dict(merged)


_DROP = object()


def _kink_with(*path, value=_DROP):
    """The kink's code with the entry at ``path`` set to ``value``, or
    dropped."""
    code = kink_code()
    node = code
    for key in path[:-1]:
        node = node[key]
    if value is _DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return code


def _two_kinks_one_id():
    code = closed_braid_code(2, [(0, "L"), (0, "L")], name="twice")
    code["crossings"][1]["id"] = code["crossings"][0]["id"]
    return code


# (malformed code, error class, issue kind, issue message)
MALFORMED = [
    ([kink_code()], DiagramSyntaxError, "syntax", "top level must be a JSON object"),
    (_kink_with("outer_face"), DiagramSyntaxError, "syntax",
     "missing required key 'outer_face'"),
    (_kink_with("name", value=1), DiagramSyntaxError, "syntax", '"name" must be a string'),
    (_kink_with("crossings", value={}), DiagramSyntaxError, "syntax",
     '"crossings" must be a non-empty list'),
    (_kink_with("crossings", 0, value=[0]), DiagramSyntaxError, "syntax",
     "each crossing needs 'id' and 'slots'"),
    (_kink_with("crossings", 0, "slots"), DiagramSyntaxError, "syntax",
     "each crossing needs 'id' and 'slots'"),
    (_kink_with("crossings", 0, "id", value="0"), DiagramSyntaxError, "syntax",
     "crossing ids must be integers"),
    (_kink_with("crossings", 0, "slots", 3), DiagramSyntaxError, "syntax",
     "crossing 0 must list exactly 4 slots in ccw order"),
    (_kink_with("crossings", 0, "slots", value="abcd"), DiagramSyntaxError, "syntax",
     "crossing 0 must list exactly 4 slots in ccw order"),
    (_kink_with("crossings", 0, "slots", 2, "sign", value=1), DiagramSyntaxError,
     "syntax", "crossing 0: slots need exactly keys edge/dir/level"),
    (_kink_with("crossings", 0, "slots", 1, value=[0, "in", "over"]), DiagramSyntaxError,
     "syntax", "crossing 0: slots need exactly keys edge/dir/level"),
    (_kink_with("crossings", 0, "slots", 0, "edge", value=1.0), DiagramSyntaxError,
     "syntax", "slot 'edge' must be an integer"),
    (_kink_with("crossings", 0, "slots", 3, "dir", value="up"), DiagramSyntaxError,
     "syntax", "slot 'dir' must be 'in' or 'out'"),
    (_kink_with("crossings", 0, "slots", 3, "level", value="middle"), DiagramSyntaxError,
     "syntax", "slot 'level' must be 'over' or 'under'"),
    (_two_kinks_one_id(), DiagramStructureError, "structure", "duplicate crossing id 0"),
    (_kink_with("crossings", 0, "slots", 0, "level", value="over"), DiagramStructureError,
     "structure", "crossing 0 must have two over and two under slots"),
]


@pytest.mark.parametrize("code, cls, kind, message", MALFORMED)
def test_malformed_codes_are_rejected(code, cls, kind, message):
    # each check of the schema and of the crossings' slot levels and ids,
    # reached through diagram_from_dict as every command reaches it
    with pytest.raises(cls) as err:
        diagram_from_dict(code)
    assert (kind, message) in [(i.kind, i.message) for i in err.value.issues]
    if cls is DiagramSyntaxError:
        assert str(err.value) == message


def test_zero_crossings_rejected():
    with pytest.raises(DiagramSyntaxError):
        parse_diagram(json.dumps({"name": "empty", "crossings": [], "outer_face": 0}))


def test_malformed_json():
    with pytest.raises(DiagramSyntaxError) as err:
        parse_diagram("{not json")
    assert err.value.issues[0].kind == "syntax"


def test_closed_over_loop_component():
    # two overlapping circles, the first passing over at both crossings:
    # the over circle forms a single closed arc, the under circle is cut
    # twice
    code = {
        "name": "over-loop",
        "crossings": [
            {
                "id": 0,
                "slots": [
                    {"edge": 3, "dir": "in", "level": "under"},
                    {"edge": 0, "dir": "out", "level": "over"},
                    {"edge": 2, "dir": "out", "level": "under"},
                    {"edge": 1, "dir": "in", "level": "over"},
                ],
            },
            {
                "id": 1,
                "slots": [
                    {"edge": 1, "dir": "out", "level": "over"},
                    {"edge": 2, "dir": "in", "level": "under"},
                    {"edge": 0, "dir": "in", "level": "over"},
                    {"edge": 3, "dir": "out", "level": "under"},
                ],
            },
        ],
        "outer_face": 0,
    }
    d = diagram_from_dict(code)
    assert len(d.components) == 2
    closed = [a for a in d.arcs if a.closed]
    assert len(closed) == 1
    assert sorted(closed[0].edges) == [0, 1]
    assert len(d.arcs) == 3  # the under circle is cut twice


def _pinned_cases(rng):
    """(strands, braid word) pairs for the pinned digest.

    Valid words on 2-6 strand positions have a crossing in every column;
    invalid ones use a bad type, a column out of range, fewer than two
    positions, or leave the last position untouched.  Words whose closure
    is split although every position is touched are left to
    ``tests/test_fixtures.py``.
    """
    for _ in range(500):
        strands = rng.randint(2, 6)
        word = [(col, rng.choice("LR")) for col in range(strands - 1)]
        word += [
            (rng.randrange(strands - 1), rng.choice("LR"))
            for _ in range(rng.randint(0, 6))
        ]
        rng.shuffle(word)
        flaw = rng.randrange(8)
        if flaw == 0:
            i = rng.randrange(len(word))
            word[i] = (word[i][0], rng.choice("QXl"))
        elif flaw == 1:
            word.append((rng.choice([-1, strands - 1, strands + 3]), "L"))
        elif flaw == 2:
            strands = rng.randint(0, 1)
        elif flaw == 3:
            word = [w for w in word if w[0] != strands - 2]
        yield strands, word


def _pinned_records():
    """What the builder and the parser make of each word.

    Each code that parses also gives a copy with crossing and edge ids
    relabeled, crossings reordered, slots rotated and the outer face named
    by an edge list or a stray id; two copies with the levels of some
    crossings flipped; and copies with two slot edges, or two slots of
    one crossing, swapped.
    """
    rng = random.Random(20261018)
    records = []

    def derive(code):
        try:
            d = diagram_from_dict(code)
        except DiagramError as exc:
            records.append(
                [type(exc).__name__, str(exc), [list(i) for i in exc.issues]]
            )
            return None
        records.append(["ok", diagram_to_dict(d), derived_dict(d)])
        return d

    for strands, word in _pinned_cases(rng):
        try:
            code = closed_braid_code(strands, word, name="w", outer_face=rng.randrange(3))
        except ValueError as exc:
            records.append(["ValueError", str(exc)])
            continue
        records.append(["code", code])
        d = derive(code)
        if d is None:
            continue

        edges = [e.id for e in d.edges]
        edge_map = dict(zip(edges, rng.sample(range(3 * len(edges)), len(edges))))
        cids = [c["id"] for c in code["crossings"]]
        cid_map = dict(zip(cids, rng.sample(range(50), len(cids))))
        relabeled = copy.deepcopy(code)
        for c in relabeled["crossings"]:
            c["id"] = cid_map[c["id"]]
            k = rng.randrange(4)
            c["slots"] = c["slots"][k:] + c["slots"][:k]
            for s in c["slots"]:
                s["edge"] = edge_map[s["edge"]]
        rng.shuffle(relabeled["crossings"])
        if rng.random() < 0.7:
            face = d.faces[rng.randrange(len(d.faces))]
            relabeled["outer_face"] = [edge_map[e] for e, _ in face.boundary]
        else:
            relabeled["outer_face"] = rng.randrange(-1, len(d.faces) + 2)
        derive(relabeled)

        for _ in range(2):
            flipped = copy.deepcopy(code)
            for c in flipped["crossings"]:
                if rng.random() < 0.5:
                    for s in c["slots"]:
                        s["level"] = "over" if s["level"] == "under" else "under"
            derive(flipped)

        swapped = copy.deepcopy(code)
        slots = [s for c in swapped["crossings"] for s in c["slots"]]
        a, b = rng.sample(slots, 2)
        a["edge"], b["edge"] = b["edge"], a["edge"]
        derive(swapped)

        swapped = copy.deepcopy(code)
        slots = swapped["crossings"][rng.randrange(len(word))]["slots"]
        i, j = rng.sample(range(4), 2)
        slots[i], slots[j] = slots[j], slots[i]
        derive(swapped)
    return records


def test_derived_outputs_match_pinned_digest():
    # The braid closures, parsed diagrams, derived data (arcs, faces,
    # signs, components) and rejection messages of a fixed random sample,
    # hashed together; the digest pins today's numbering conventions.
    records = _pinned_records()
    kinds = {r[0] for r in records}
    assert {"ok", "code", "ValueError", "DiagramStructureError",
            "DiagramPlanarityError"} <= kinds
    assert any(
        a["closed"] for r in records if r[0] == "ok" for a in r[2]["arcs"]
    )
    blob = json.dumps(records, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "4d9f4b52588c93b2e6ae0248c4c7170512139357316f2a9eba1b792f75cd80d4"
    )


@given(st.binary(max_size=300))
def test_sha256_hex_matches_hashlib(data):
    assert sha256_hex(data) == hashlib.sha256(data).hexdigest()


def test_sha256_hex_falls_back_to_hashlib(monkeypatch):
    # an interpreter built without its own SHA-256 module
    for name in ("_sha2", "_sha256"):
        monkeypatch.setitem(sys.modules, name, None)
    monkeypatch.setattr(diagram, "_SHA256", None)  # found again on this call
    calls = []
    real = hashlib.sha256

    def spy(data):
        calls.append(data)
        return real(data)

    monkeypatch.setattr(hashlib, "sha256", spy)
    assert sha256_hex(b"tribound") == real(b"tribound").hexdigest()
    assert calls == [b"tribound"]
