"""Oriented link diagrams as combinatorial half-edge structures.

A diagram is a 4-valent plane graph: crossings carry four half-edge slots
in counterclockwise cyclic order, each slot tagged with the edge occupying
it, the edge's direction relative to the crossing (``in``/``out``) and its
level (``over``/``under``).  The rotation system alone determines the
embedding on the sphere, and the planar picture is fixed by designating
one face as the outer region.  Faces, arcs and link components are the
chains of three maps (the face-tracing step on darts, and the strand
successor on edges over one or both levels), numbered by least element.

Everything derived (arcs, faces, crossing signs, components) is computed
eagerly at construction and is immutable afterwards.  The flat index
tables the coloring and weight loops read (``Diagram.tables``) are built
from it on first use.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping
from functools import cached_property
from typing import Any, NamedTuple, TypeVar

__all__ = [
    "DiagramError",
    "DiagramSyntaxError",
    "DiagramStructureError",
    "DiagramConnectivityError",
    "DiagramPlanarityError",
    "ResourceCapExceeded",
    "HalfEdgeSlot",
    "Crossing",
    "Edge",
    "Arc",
    "Face",
    "DiagramTables",
    "Diagram",
    "ValidationIssue",
    "parse_diagram",
    "diagram_from_dict",
    "diagram_to_dict",
    "derived_dict",
    "trace_faces",
    "merge_arcs",
    "set_outer_face",
    "diagram_hash",
    "sha256_hex",
]


class ValidationIssue(NamedTuple):
    kind: str
    message: str


class DiagramError(Exception):
    """Base class for all diagram construction/validation failures.

    ``issues`` lists what was found, as typed issues; by default it is
    one issue of the class's ``kind`` carrying the message.
    """

    kind = "structure"

    def __init__(self, message: str, issues: Iterable[ValidationIssue] = ()):
        super().__init__(message)
        self.issues = tuple(issues) or (ValidationIssue(self.kind, message),)


class DiagramSyntaxError(DiagramError):
    """The diagram file is not valid JSON or does not match the schema."""

    kind = "syntax"


class DiagramStructureError(DiagramError):
    """Slot/edge bookkeeping violates a structural invariant."""


class DiagramConnectivityError(DiagramError):
    """The underlying 4-valent graph is disconnected (split diagram)."""

    kind = "connectivity"


class DiagramPlanarityError(DiagramError):
    """Face tracing contradicts Euler's formula (non-planar rotation data)."""

    kind = "planarity"


# The failure that every layer shares lives here, in the module every
# command loads, so that the command line can catch it without loading
# the layers that raise it.
class ResourceCapExceeded(RuntimeError):
    """A coloring list or a level set grew past its cardinality cap, or
    the weight function f past its degree, coefficient-size, nesting or
    modulus cap."""


LEFT = "left"
RIGHT = "right"


class HalfEdgeSlot(NamedTuple):
    """One of the four edge-ends at a crossing."""

    edge: int
    direction: str  # "in" | "out", relative to the crossing
    level: str  # "over" | "under"


class Crossing(NamedTuple):
    id: int
    slots: tuple[HalfEdgeSlot, HalfEdgeSlot, HalfEdgeSlot, HalfEdgeSlot]
    sign: int  # +1 or -1, derived and cached at construction


class Edge(NamedTuple):
    """A strand segment between two crossings, oriented tail -> head."""

    id: int
    tail: tuple[int, int]  # (crossing id, slot index) of its "out" end
    head: tuple[int, int]  # (crossing id, slot index) of its "in" end


class Arc(NamedTuple):
    """Maximal chain of edges joined through over-passes.

    ``closed`` marks an over-loop component (a strand that never goes
    under anything); its edge list is a cycle rather than a path.
    """

    id: int
    edges: tuple[int, ...]
    closed: bool = False


class Face(NamedTuple):
    """A complementary region, as the cyclic list of (edge, side) pairs
    met when walking its boundary with the face on the left."""

    id: int
    boundary: tuple[tuple[int, str], ...]


class _DiagramFields(NamedTuple):
    name: str
    crossings: tuple[Crossing, ...]
    edges: tuple[Edge, ...]
    arcs: tuple[Arc, ...]
    faces: tuple[Face, ...]
    outer_face: int
    components: tuple[tuple[int, ...], ...]


class Diagram(_DiagramFields):
    """A fully derived diagram.  A subclass of its NamedTuple record, so
    that instances have the ``__dict__`` that ``tables`` is cached in."""

    # -- lookups -----------------------------------------------------------

    def crossing(self, cid: int) -> Crossing:
        for c in self.crossings:
            if c.id == cid:
                return c
        raise KeyError(f"no crossing with id {cid}")

    def arc_of_edge(self, eid: int) -> int:
        """Arc id containing the given edge."""
        return self.tables.edge_arc[eid]

    def face_of_side(self, eid: int, side: str) -> int:
        """Face id lying on the given side of the oriented edge."""
        return self.tables.side_face[(eid, side)]

    def corner_face(self, cid: int, k: int) -> int:
        """Face id occupying the corner between slots k and k+1 (ccw)."""
        return self.tables.side_face[_leaving(self.crossing(cid).slots[k % 4])]

    def slot_position(self, cid: int, level: str, direction: str) -> int:
        """Index of the unique slot at crossing cid with given level/direction."""
        for lv, k in zip(("over", "under"), _exits(self.crossing(cid).slots)):
            if level == lv and direction in ("out", "in"):
                return k if direction == "out" else (k + 2) % 4
        raise KeyError(f"crossing {cid} has no {direction} {level} slot")

    @cached_property
    def tables(self) -> "DiagramTables":
        """Flat index tables, built on first use (once per instance)."""
        return _build_tables(self)


class DiagramTables(NamedTuple):
    """Index tables of one diagram, read by the coloring and weight loops
    in place of the lookup methods.

    Arcs and faces are named by id; per-edge and per-crossing rows follow
    the order of ``Diagram.edges`` and ``Diagram.crossings``.
    """

    edge_arc: dict[int, int]  # edge id -> arc id
    side_face: dict[tuple[int, str], int]  # (edge id, side) -> face id
    edge_rows: tuple[tuple[int, int, int], ...]  # (arc, left face, right face)
    # (known face, arc, new face): a spanning tree of the faces rooted at
    # the outer face, ordered so that each step's known face comes earlier
    propagation: tuple[tuple[int, int, int], ...]
    # per crossing: (under-in arc, under-out arc, over arc)
    relations: tuple[tuple[int, int, int], ...]
    # per crossing: (id, sign, right-under arc, over arc, s-corner face)
    crossing_rows: tuple[tuple[int, int, int, int, int], ...]


def _exits(slots: tuple[HalfEdgeSlot, ...]) -> tuple[int, int]:
    """(p, q): the slots by which the over and the under strand leave a
    well-formed crossing.  Each strand enters by the opposite slot,
    p + 2 and q + 2 mod 4."""
    out = {s.level: k for k, s in enumerate(slots) if s.direction == "out"}
    return out["over"], out["under"]


def _leaving(slot: HalfEdgeSlot) -> tuple[int, str]:
    """The dart that leaves a crossing by this slot, as the (edge, side)
    whose face lies on its left: ``LEFT`` for an out slot, ``RIGHT`` for
    an in slot.  That face is the corner between this slot and the next
    one counterclockwise."""
    return (slot.edge, LEFT if slot.direction == "out" else RIGHT)


def _build_tables(d: Diagram) -> DiagramTables:
    edge_arc = {e: a.id for a in d.arcs for e in a.edges}
    side_face = {
        (e, side): f.id for f in d.faces for (e, side) in f.boundary
    }
    edge_rows = tuple(
        (edge_arc[e.id], side_face[(e.id, LEFT)], side_face[(e.id, RIGHT)])
        for e in d.edges
    )

    adjacency: list[list[tuple[int, int]]] = [[] for _ in d.faces]
    for arc, lf, rf in edge_rows:
        adjacency[lf].append((arc, rf))
        adjacency[rf].append((arc, lf))
    seen = {d.outer_face}
    queue = [d.outer_face]
    propagation = []
    for face in queue:
        for arc, other in adjacency[face]:
            if other not in seen:
                seen.add(other)
                queue.append(other)
                propagation.append((face, arc, other))

    relations = []
    crossing_rows = []
    for c in d.crossings:
        p, q = _exits(c.slots)
        arcs = [edge_arc[s.edge] for s in c.slots]
        relations.append((arcs[(q + 2) % 4], arcs[q], arcs[p]))
        # Corner k sits between slots k and k+1; a strand leaving via slot
        # r has corners r+2 and r+3 on its right.  The under-out slot q is
        # p-1 at a positive crossing and p+1 at a negative one, so the
        # corner right of both strands is p+2 or p+3.  The under arc on
        # the right of the over-strand leaves or enters at slot p+3.
        corner = (p + 2 if c.sign > 0 else p + 3) % 4
        crossing_rows.append(
            (c.id, c.sign, arcs[(p + 3) % 4], arcs[p],
             side_face[_leaving(c.slots[corner])])
        )
    return DiagramTables(
        edge_arc=edge_arc,
        side_face=side_face,
        edge_rows=edge_rows,
        propagation=tuple(propagation),
        relations=tuple(relations),
        crossing_rows=tuple(crossing_rows),
    )


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

_SLOT_KEYS = {"edge", "dir", "level"}


def _check_schema(obj: Any) -> None:
    if not isinstance(obj, Mapping):
        raise DiagramSyntaxError("top level must be a JSON object")
    for key in ("name", "crossings", "outer_face"):
        if key not in obj:
            raise DiagramSyntaxError(f"missing required key {key!r}")
    if not isinstance(obj["name"], str):
        raise DiagramSyntaxError('"name" must be a string')
    if not isinstance(obj["crossings"], list) or not obj["crossings"]:
        raise DiagramSyntaxError('"crossings" must be a non-empty list')
    for c in obj["crossings"]:
        if not isinstance(c, Mapping) or "id" not in c or "slots" not in c:
            raise DiagramSyntaxError("each crossing needs 'id' and 'slots'")
        if type(c["id"]) is not int:  # JSON true/false are Python ints
            raise DiagramSyntaxError("crossing ids must be integers")
        slots = c["slots"]
        if not isinstance(slots, list) or len(slots) != 4:
            raise DiagramSyntaxError(
                f"crossing {c['id']} must list exactly 4 slots in ccw order"
            )
        for s in slots:
            if not isinstance(s, Mapping) or set(s) != _SLOT_KEYS:
                raise DiagramSyntaxError(
                    f"crossing {c['id']}: slots need exactly keys edge/dir/level"
                )
            if type(s["edge"]) is not int:
                raise DiagramSyntaxError("slot 'edge' must be an integer")
            if s["dir"] not in ("in", "out"):
                raise DiagramSyntaxError("slot 'dir' must be 'in' or 'out'")
            if s["level"] not in ("over", "under"):
                raise DiagramSyntaxError("slot 'level' must be 'over' or 'under'")


# edge id -> {"in": [...], "out": [...]}, the (crossing id, slot index)
# of each end of the edge by direction
_EdgeEnds = dict[int, dict[str, list[tuple[int, int]]]]


def _edge_ends(crossings: list[Crossing]) -> _EdgeEnds:
    """The one edge map a parse builds."""
    ends: _EdgeEnds = {}
    for c in crossings:
        for k, s in enumerate(c.slots):
            ends.setdefault(s.edge, {"in": [], "out": []})[s.direction].append((c.id, k))
    return ends


def _structural_issues(crossings: list[Crossing], ends: _EdgeEnds) -> list[ValidationIssue]:
    issues: list[ValidationIssue] = []
    seen_ids: set[int] = set()
    for c in crossings:
        if c.id in seen_ids:
            issues.append(
                ValidationIssue("structure", f"duplicate crossing id {c.id}")
            )
        seen_ids.add(c.id)
        levels = [s.level for s in c.slots]
        if sorted(levels) != ["over", "over", "under", "under"]:
            issues.append(
                ValidationIssue(
                    "structure",
                    f"crossing {c.id} must have two over and two under slots",
                )
            )
            continue
        for lv in ("over", "under"):
            pos = [k for k, s in enumerate(c.slots) if s.level == lv]
            if (pos[1] - pos[0]) % 4 != 2:
                issues.append(
                    ValidationIssue(
                        "structure",
                        f"crossing {c.id}: the two {lv} slots must be "
                        "cyclically opposite",
                    )
                )
            dirs = sorted(s.direction for s in c.slots if s.level == lv)
            if dirs != ["in", "out"]:
                issues.append(
                    ValidationIssue(
                        "orientation",
                        f"crossing {c.id}: the {lv} strand needs one 'in' "
                        "and one 'out' slot",
                    )
                )

    for eid, d in sorted(ends.items()):
        n_in, n_out = len(d["in"]), len(d["out"])
        if n_in != 1 or n_out != 1:
            issues.append(
                ValidationIssue(
                    "structure",
                    f"edge {eid} used {n_in + n_out} times "
                    f"({n_out} out, {n_in} in); "
                    "expected exactly one of each",
                )
            )
    return issues


def _build_edges(ends: _EdgeEnds) -> list[Edge]:
    """Edges by id, from an edge map whose every edge has one end each way."""
    return [
        Edge(id=eid, tail=d["out"][0], head=d["in"][0]) for eid, d in sorted(ends.items())
    ]


def _check_connected(crossings: list[Crossing], edges: Iterable[Edge]) -> None:
    adjacency: dict[int, set[int]] = {c.id: set() for c in crossings}
    for e in edges:
        a, b = e.tail[0], e.head[0]
        adjacency[a].add(b)
        adjacency[b].add(a)
    start = crossings[0].id
    seen = {start}
    stack = [start]
    while stack:
        for nb in adjacency[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    if len(seen) != len(crossings):
        raise DiagramConnectivityError(
            f"underlying graph is split: reached {len(seen)} of "
            f"{len(crossings)} crossings"
        )


_T = TypeVar("_T")


def _chains(succ: Mapping[_T, _T], ids: Iterable[_T]) -> list[tuple[list[_T], bool]]:
    """The maximal paths and cycles of a one-to-one partial map on ids,
    as (ids in order, closed), sorted by least id.

    A path starts at an id that nothing maps to, a cycle at its least id.
    A walk that meets an id it has already passed stops there, unclosed.
    """
    ids = sorted(ids)
    targets = set(succ.values())
    seen: set[_T] = set()
    chains: list[tuple[list[_T], bool]] = []
    for start in [i for i in ids if i not in targets] + ids:
        if start in seen:
            continue
        chain: list[_T] = []
        nxt: _T | None = start
        while nxt is not None and nxt not in seen:
            chain.append(nxt)
            seen.add(nxt)
            nxt = succ.get(nxt)
        chains.append((chain, nxt == start))
    chains.sort(key=lambda ch: min(ch[0]))
    return chains


def trace_faces(
    crossings: Iterable[Crossing], edges: Iterable[Edge]
) -> tuple[Face, ...]:
    """Trace the complementary regions of the rotation system.

    A dart is named by the (edge, side) whose face lies on its left:
    (edge, LEFT) runs along the edge and (edge, RIGHT) against it.
    Walking with the face on the left, a dart arriving at slot k
    continues as the dart leaving by slot k-1 (ccw).  Faces are the
    orbits of that step, each from its least dart and numbered by it;
    LEFT < RIGHT, so an edge's forward dart comes first.  Raises
    DiagramPlanarityError if the face count contradicts Euler's formula
    for the sphere.
    """
    slots = {c.id: c.slots for c in crossings}
    edges = list(edges)
    step: dict[tuple[int, str], tuple[int, str]] = {}
    for e in edges:
        for side, (cid, k) in ((LEFT, e.head), (RIGHT, e.tail)):
            step[(e.id, side)] = _leaving(slots[cid][(k - 1) % 4])

    orbits = [orbit for orbit, _ in _chains(step, step.keys())]
    if any(step[orbit[-1]] != orbit[0] for orbit in orbits):
        raise DiagramStructureError(
            "face tracing walked into the middle of another orbit"
        )
    expected = 2 - len(slots) + len(edges)
    if len(orbits) != expected:
        raise DiagramPlanarityError(
            f"face tracing found {len(orbits)} faces where Euler's "
            f"formula needs {expected}; the code is not planar"
        )
    return tuple(Face(id=i, boundary=tuple(orbit)) for i, orbit in enumerate(orbits))


def _strand_succ(crossings: Iterable[Crossing], under: bool) -> dict[int, int]:
    """Edge -> the next edge of its strand through each crossing it
    passes over, and with ``under`` through each it passes under too.
    A strand that leaves by slot k entered by slot k + 2."""
    succ: dict[int, int] = {}
    for c in crossings:
        for k in _exits(c.slots)[: 1 + under]:
            succ[c.slots[(k + 2) % 4].edge] = c.slots[k].edge
    return succ


def merge_arcs(
    crossings: Iterable[Crossing], edges: Iterable[Edge]
) -> tuple[Arc, ...]:
    """Chain edges through over-passes into maximal arcs, numbered by
    their least edge.

    Arcs break exactly at under slots, so an open arc starts at an edge
    that emerges from under a crossing; a component that passes over at
    every crossing it meets yields a closed arc, from its least edge.
    """
    chains = _chains(_strand_succ(crossings, under=False), (e.id for e in edges))
    return tuple(
        Arc(id=i, edges=tuple(ch), closed=closed)
        for i, (ch, closed) in enumerate(chains)
    )


def _components(crossings: list[Crossing], edges: list[Edge]) -> tuple[tuple[int, ...], ...]:
    chains = _chains(_strand_succ(crossings, under=True), (e.id for e in edges))
    return tuple(tuple(sorted(ch)) for ch, _ in chains)


def _crossing_sign(slots: tuple[HalfEdgeSlot, ...]) -> int:
    """Sign of a crossing: +1 iff the outgoing over slot immediately
    follows the outgoing under slot in ccw order."""
    p, q = _exits(slots)
    return 1 if p == (q + 1) % 4 else -1


def _resolve_outer_face(designator: Any, faces: tuple[Face, ...]) -> int:
    if isinstance(designator, bool):
        raise DiagramSyntaxError("outer_face must be a face id or edge list")
    if isinstance(designator, int):
        if not 0 <= designator < len(faces):
            raise DiagramStructureError(
                f"outer_face {designator} does not name a face "
                f"(0..{len(faces) - 1})"
            )
        return designator
    if isinstance(designator, list) and all(type(x) is int for x in designator):
        # no two faces of a valid diagram share their boundary edges
        # (README "Diagram files"), so the first match is the only one
        want = sorted(designator)
        for f in faces:
            if sorted(e for (e, _) in f.boundary) == want:
                return f.id
        raise DiagramStructureError(f"no face has boundary edges {want}")
    raise DiagramSyntaxError(
        "outer_face must be an integer face id or a list of edge ids"
    )


def diagram_from_dict(obj: Mapping[str, Any]) -> Diagram:
    """Build and fully derive a Diagram from schema-shaped data."""
    _check_schema(obj)
    crossings = [
        Crossing(
            id=c["id"],
            slots=tuple(
                HalfEdgeSlot(edge=s["edge"], direction=s["dir"], level=s["level"])
                for s in c["slots"]
            ),
            sign=0,
        )
        for c in obj["crossings"]
    ]
    ends = _edge_ends(crossings)
    issues = _structural_issues(crossings, ends)
    if issues:
        raise DiagramStructureError("; ".join(i.message for i in issues), issues)
    crossings = [c._replace(sign=_crossing_sign(c.slots)) for c in crossings]
    edges = _build_edges(ends)
    _check_connected(crossings, edges)
    faces = trace_faces(crossings, edges)
    arcs = merge_arcs(crossings, edges)
    components = _components(crossings, edges)
    outer = _resolve_outer_face(obj["outer_face"], faces)
    return Diagram(
        name=obj["name"],
        crossings=tuple(crossings),
        edges=tuple(edges),
        arcs=arcs,
        faces=faces,
        outer_face=outer,
        components=components,
    )


def parse_diagram(text: str) -> Diagram:
    """Parse a diagram from JSON text (see the file schema in the README)."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DiagramSyntaxError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:  # json recurses once per nested array or object
        raise DiagramSyntaxError("JSON nested too deeply to read") from exc
    return diagram_from_dict(obj)


def diagram_to_dict(d: Diagram) -> dict[str, Any]:
    """The JSON-serializable source form (no derived data)."""
    return {
        "name": d.name,
        "crossings": [
            {
                "id": c.id,
                "slots": [
                    {"edge": s.edge, "dir": s.direction, "level": s.level}
                    for s in c.slots
                ],
            }
            for c in d.crossings
        ],
        "outer_face": d.outer_face,
    }


def derived_dict(d: Diagram) -> dict[str, Any]:
    """Derived data (arcs, faces, signs, components) for --emit-derived."""
    return {
        "arcs": [
            {"id": a.id, "edges": list(a.edges), "closed": a.closed}
            for a in d.arcs
        ],
        "faces": [
            {"id": f.id, "boundary": [[e, side] for (e, side) in f.boundary]}
            for f in d.faces
        ],
        "signs": {str(c.id): c.sign for c in d.crossings},
        "components": [list(comp) for comp in d.components],
        "outer_face": d.outer_face,
    }


def set_outer_face(d: Diagram, face: int) -> Diagram:
    """Same sphere code, different outer region."""
    if type(face) is not int or not 0 <= face < len(d.faces):
        raise DiagramStructureError(f"unknown face id {face}")
    return d._replace(outer_face=face)


# the SHA-256 constructor, found on the first hash: a failed import is
# retried on every call, about 0.1 ms each
_SHA256: Any = None


def sha256_hex(data: bytes) -> str:
    """Hex SHA-256 of data, from CPython's built-in module where it has
    one: ``hashlib`` loads OpenSSL, 2.4 MB of RSS in every process."""
    global _SHA256
    if _SHA256 is None:
        try:
            from _sha2 import sha256  # Python 3.12+
        except ImportError:
            try:
                from _sha256 import sha256  # Python 3.10-3.11
            except ImportError:
                from hashlib import sha256
        _SHA256 = sha256
    return _SHA256(data).hexdigest()


def diagram_hash(d: Diagram) -> str:
    blob = json.dumps(diagram_to_dict(d), sort_keys=True).encode()
    return sha256_hex(blob)

