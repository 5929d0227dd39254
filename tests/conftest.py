from __future__ import annotations

import random

import pytest

from tribound.poly import CochainFn
from tribound.diagram import Diagram, diagram_from_dict, diagram_to_dict, set_outer_face
from tribound.fixtures import closed_braid_code, load_fixture


@pytest.fixture(scope="session")
def diagrams() -> dict[str, Diagram]:
    return {name: load_fixture(name) for name in ("d1", "d2", "d3", "d4", "d5", "d6")}


@pytest.fixture(scope="session")
def f3() -> CochainFn:
    return CochainFn.build("(x-y)*(y-z)*z", 3)


@pytest.fixture(scope="session")
def f5() -> CochainFn:
    return CochainFn.build("(x+y)^3*(y+z)*(y-z)^3*z^5", 5)


@pytest.fixture(scope="session")
def f4() -> CochainFn:
    return CochainFn.build("(x+y)^2*(y-z)^3*z^5", 4)


def random_closed_braid(rng: random.Random, name: str = "random") -> Diagram:
    """A random connected braid-closure diagram (2 to 4 strand positions)."""
    strands = rng.randint(2, 4)
    word = [(col, rng.choice("LR")) for col in range(strands - 1)]
    for _ in range(rng.randint(0, 5)):
        word.append((rng.randrange(strands - 1), rng.choice("LR")))
    rng.shuffle(word)
    # every column keeps a crossing after the shuffle, so the closure is
    # not split
    assert {c for c, _ in word} == set(range(strands - 1))
    code = closed_braid_code(strands, word, name=name)
    d = diagram_from_dict(code)
    return d


def relabel(d: Diagram, rng: random.Random) -> Diagram:
    """The same diagram with new edge and crossing ids, crossings listed
    in another order and each slot list rotated; the outer face is
    carried over by one of its boundary sides."""
    edge_ids = rng.sample(range(100, 100 + 3 * len(d.edges)), len(d.edges))
    new_edge = dict(zip((e.id for e in d.edges), edge_ids))
    crossing_ids = rng.sample(range(50, 50 + 3 * len(d.crossings)), len(d.crossings))
    new_crossing = dict(zip((c.id for c in d.crossings), crossing_ids))
    crossings = []
    for c in diagram_to_dict(d)["crossings"]:
        slots = [dict(s, edge=new_edge[s["edge"]]) for s in c["slots"]]
        turn = rng.randrange(4)
        crossings.append(
            {"id": new_crossing[c["id"]], "slots": slots[turn:] + slots[:turn]}
        )
    rng.shuffle(crossings)
    twin = diagram_from_dict(
        {"name": d.name + "-relabelled", "crossings": crossings, "outer_face": 0}
    )
    eid, side = d.faces[d.outer_face].boundary[0]
    return set_outer_face(twin, twin.face_of_side(new_edge[eid], side))


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(20240831)
