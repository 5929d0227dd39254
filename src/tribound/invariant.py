"""The crossing-weight invariant and type-III move lower bounds.

For an extended coloring, each crossing contributes epsilon * f(s, a, b)
where b is the over-arc color, a the color of the under-arc on the right
side of the oriented over-strand, and s the color of the region to the
right of both oriented strands.  Summing over crossings gives the weight
W; collecting W over all non-trivial colorings with a fixed outer color
gives the value set Phi.

If [W(D) - Phi(D')] misses the reachable-change levels Delta_0..Delta_{m-1}
of f, no sequence with fewer than m type-III moves can relate D and D',
because type-I/II moves leave W fixed and each type-III move shifts it by
an element of +/- Im(df).  ``certify_lower_bound`` searches all colorings
of D for the strongest such obstruction and emits a re-checkable
certificate.

W is linear in f: ``weight_vector`` counts the signed crossings with
each triple (s, a, b), and W is that vector's inner product with f's
value table.  W and Phi read only that table, from ``poly``, so any f
with f(x, y, y) = 0, a polynomial or a table, serves.  The Delta levels
come from ``cochain``, which ``certify_lower_bound`` and
``verify_certificate`` import when they run, so the ``weight`` command
never loads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, NamedTuple

from .coloring import (
    _check_outer_color,
    ExtendedColoring,
    enumerate_colorings,
    extend_coloring,
    is_trivial,
)
from .diagram import Diagram, ResourceCapExceeded, diagram_hash
from .poly import CochainFn, ExprError, SharpConditionError

if TYPE_CHECKING:
    from .cochain import DeltaReach

__all__ = [
    "CrossingTerm",
    "PhiSet",
    "BoundCertificate",
    "weight_vector",
    "weight",
    "crossing_terms",
    "phi_set",
    "certify_lower_bound",
    "verify_certificate",
]


class CrossingTerm(NamedTuple):
    """One crossing's share of W: its sign epsilon, its triple (s, a, b)
    and its term epsilon * f(s, a, b)."""

    crossing: int
    epsilon: int
    s: int
    a: int
    b: int
    term: int


class PhiSet(NamedTuple):
    """Weight values over all non-trivial colorings with outer color s.

    ``witnesses`` maps each value to the coloring ids (indices into the
    canonical enumeration) that realize it.
    """

    values: tuple[int, ...]
    witnesses: dict[int, tuple[int, ...]]

    @classmethod
    def from_weights(cls, weights: Iterable[tuple[int, int]]) -> "PhiSet":
        """Collect (coloring id, W) pairs, given in coloring-id order."""
        witnesses: dict[int, list[int]] = {}
        for cid, w in weights:
            witnesses.setdefault(w, []).append(cid)
        return cls(
            values=tuple(sorted(witnesses)),
            witnesses={v: tuple(ids) for v, ids in witnesses.items()},
        )


def _check_modulus(ec: ExtendedColoring, f: CochainFn) -> None:
    if f.n != ec.n:
        raise ValueError(
            f"modulus mismatch: f over Z({f.n}), coloring over Z({ec.n})"
        )


def weight_vector(d: Diagram, ec: ExtendedColoring) -> dict[tuple[int, int, int], int]:
    """W as a vector: the signed count of crossings with each triple
    (s, a, b), read off ``Diagram.tables.crossing_rows``.  Triples with
    a = b, where every f is 0, and zero counts are left out."""
    arcs, regions = ec.base.arc_colors, ec.region_colors
    vec: dict[tuple[int, int, int], int] = {}
    for _, sign, under, over, corner in d.tables.crossing_rows:
        key = (regions[corner], arcs[under], arcs[over])
        vec[key] = vec.get(key, 0) + sign
    return {(s, a, b): k for (s, a, b), k in vec.items() if a != b and k}


def weight(d: Diagram, ec: ExtendedColoring, f: CochainFn) -> int:
    """W = sum over crossings of epsilon * f(s, a, b), exact: the inner
    product of f's table with ``weight_vector``."""
    _check_modulus(ec, f)
    return sum(k * f.table[s][a][b] for (s, a, b), k in weight_vector(d, ec).items())


def crossing_terms(
    d: Diagram, ec: ExtendedColoring, f: CochainFn
) -> tuple[CrossingTerm, ...]:
    """Each crossing's term of W, in ``Diagram.tables.crossing_rows``
    order: b is the over arc's color, a the color of the under arc on
    the right of the oriented over-strand, and s the color of the region
    right of both strands.  ``Diagram.tables`` holds the slot
    arithmetic; the bundled reference diagrams pin it (see tests).
    """
    _check_modulus(ec, f)
    arcs, regions, table = ec.base.arc_colors, ec.region_colors, f.table
    terms = []
    for cid, sign, under, over, corner in d.tables.crossing_rows:
        s, a, b = regions[corner], arcs[under], arcs[over]
        terms.append(CrossingTerm(cid, sign, s, a, b, sign * table[s][a][b]))
    return tuple(terms)


def phi_set(d: Diagram, s: int, f: CochainFn) -> PhiSet:
    """Weight values of every non-trivial coloring with outer color s."""
    return PhiSet.from_weights(
        (cid, weight(d, extend_coloring(d, col, s), f))
        for cid, col in enumerate(enumerate_colorings(d, f.n))
        if not is_trivial(col)
    )


# ---------------------------------------------------------------------------
# Lower-bound certificates
# ---------------------------------------------------------------------------


class BoundCertificate(NamedTuple):
    """Witness data proving at least ``m`` type-III moves separate the pair.

    Everything needed for an independent re-check is carried verbatim:
    the chosen coloring's arc vector, its weight, the full Phi set of the
    second diagram, and the per-level intersection verdicts.  The record
    is the one description of a certificate: ``to_dict`` writes every
    field after ``f_str`` in this order, and ``verify_certificate``
    compares the whole record, so the sequence fields must stay tuples.
    """

    d_name: str
    d_hash: str
    d2_name: str
    d2_hash: str
    f_str: str
    n: int
    s: int
    max_m: int
    m: int
    coloring_id: int | None
    coloring: tuple[int, ...] | None
    w: int | None
    phi: tuple[int, ...]
    delta_level_sizes: tuple[int, ...]
    level_verdicts: tuple[str, ...]
    first_hit_level: int | None
    no_nontrivial_coloring: bool

    def to_dict(self) -> dict[str, Any]:
        """The JSON form: the pair, f, then every later field in record
        order, tuples written as lists."""
        rest = self._fields.index("f_str") + 1
        return {
            "schema": 1,
            "pair": {
                "d": {"name": self.d_name, "sha256": self.d_hash},
                "d2": {"name": self.d2_name, "sha256": self.d2_hash},
            },
            "f": self.f_str,
            **{
                key: list(value) if isinstance(value, tuple) else value
                for key, value in zip(self._fields[rest:], self[rest:])
            },
        }


_NO_COLORING = "no non-trivial coloring on the first diagram"


def _levels_clear(
    diffs: set[int], max_m: int, hits: Callable[[set[int], int], set[int]]
) -> tuple[int, tuple[str, ...], int | None]:
    """Largest m <= max_m with diffs disjoint from Delta_0..Delta_m-1,
    where ``hits(diffs, k)`` is diffs intersected with Delta_k."""
    verdicts: list[str] = []
    for k in range(max_m):
        hit = hits(diffs, k)
        if hit:
            verdicts.append(f"level {k}: hit {min(hit)}")
            return k, tuple(verdicts), k
        verdicts.append(f"level {k}: empty intersection")
    return max_m, tuple(verdicts), None


def _split_levels(
    held: tuple[tuple[int, ...], ...], max_m: int, split: Callable[[int], tuple[int, int]]
) -> tuple[tuple[int, ...], Callable[[set[int], int], set[int]]]:
    """The sizes |Delta_0|, |Delta_1|, ... and the ``hits`` of
    ``_levels_clear``, read off the held levels Delta_0..Delta_h, where
    ``split(k) = (i, j)``, i + j = k, names the held Delta_i + Delta_j
    that stands for Delta_k.

    A size below ``len(held)`` is that held level's; a higher one is
    ``sumset_size`` of the split.  These sizes are informational, as
    the bound rests on the verdicts alone, so the list stops before the
    first size past the level cap of ``cochain``.  ``hits(diffs, k)`` is
    diffs & Delta_i when j = 0, and otherwise the d in diffs with d - b
    in Delta_i for some b in Delta_j, found without building the sum
    (meet in the middle).
    """
    from .cochain import sumset_size

    sizes = [len(lv) for lv in held[:max_m]]
    for k in range(len(sizes), max_m):
        try:
            sizes.append(sumset_size(*(held[i] for i in split(k))))
        except ResourceCapExceeded:
            break
    sets = [set(lv) for lv in held]

    def hits(diffs: set[int], k: int) -> set[int]:
        i, j = split(k)
        if j == 0:
            return diffs & sets[i]
        return {d for d in diffs if not sets[i].isdisjoint(map(d.__sub__, held[j]))}

    return tuple(sizes), hits


def certify_lower_bound(
    d: Diagram,
    d2: Diagram,
    s: int,
    f: CochainFn,
    max_m: int,
    levels: Callable[[CochainFn, int], DeltaReach] | None = None,
) -> BoundCertificate:
    """Best obstruction over all non-trivial colorings of d.

    Each coloring is scored by the largest m <= max_m such that
    [W - Phi(d2, s)] avoids Delta_i for all i < m; the certificate keeps
    the winner (ties to the smallest coloring id).  m = 0 is an honest
    negative result: every coloring's weight already occurs in Phi, so
    this choice of f certifies nothing for the pair.

    Only the half levels Delta_0..Delta_h, h = ceil((max_m - 1) / 2), are
    held.  ``levels(f, h)``, by default ``delta_reach``, gives them and
    may give more; it is called once, after max_m and s are checked.  A
    level k <= h is looked up directly; a higher one is met in the
    middle, Delta_k = Delta_h + Delta_k-h.  The size |Delta_k| of each
    level h < k < max_m is ``sumset_size`` of the same split, taken
    before any coloring is scored; the sizes stop before the first one
    past the level cap of ``cochain`` (see ``_split_levels``).
    """
    if max_m < 1:
        raise ValueError(f"max_m must be >= 1, got {max_m}")
    _check_outer_color(s, f.n)  # before any level is asked for
    # the level layer loads here, so that the weight command never loads
    # it, and a replaced delta_reach is the one used
    from .cochain import delta_reach

    h = max_m // 2  # = ceil((max_m - 1) / 2)
    held = (levels or delta_reach)(f, h).levels[: h + 1]
    if len(held) <= h:
        raise ValueError(
            f"supplied levels reach Delta_{len(held) - 1}, need Delta_{h}"
        )
    sizes, hits = _split_levels(held, max_m, lambda k: (min(k, h), max(k - h, 0)))
    phi = phi_set(d2, s, f).values

    # the record for no non-trivial coloring; each better coloring
    # replaces the seven fields that score it
    cert = BoundCertificate(
        d.name, diagram_hash(d), d2.name, diagram_hash(d2), f.canonical(),
        f.n, s, max_m, m=0, coloring_id=None, coloring=None, w=None, phi=phi,
        delta_level_sizes=sizes, level_verdicts=(_NO_COLORING,),
        first_hit_level=None, no_nontrivial_coloring=True,
    )
    for cid, col in enumerate(enumerate_colorings(d, f.n)):
        if is_trivial(col):
            continue
        w = weight(d, extend_coloring(d, col, s), f)
        m, verdicts, first_hit = _levels_clear({w - v for v in phi}, max_m, hits)
        if cert.no_nontrivial_coloring or m > cert.m:
            cert = cert._replace(
                m=m, coloring_id=cid, coloring=col.arc_colors, w=w,
                level_verdicts=verdicts, first_hit_level=first_hit,
                no_nontrivial_coloring=False,
            )
        if m == max_m:
            break  # cannot improve; smallest id already wins ties
    return cert


def verify_certificate(
    cert: BoundCertificate, d: Diagram, d2: Diagram
) -> bool:
    """Independent re-check of an emitted certificate.

    Takes only the certificate's inputs from it: f's string, n, s,
    max_m and the coloring id, where None claims that d has no
    non-trivial coloring.  From these it rebuilds the certificate it
    expects and accepts iff that equals ``cert``, field for field.  An
    input of the wrong type, or an f string that parses to no f with
    f(x, y, y) = 0, gives False; so does a table's name, since a table
    f cannot be rebuilt from it.  The caps on f, n and the levels still
    raise.  The weight is the sum of the coloring's ``crossing_terms``
    rather than ``weight``, and the level sizes and verdicts come from
    half levels it builds itself rather than the certifier's levels.
    Every level past Delta_1, the half levels too, is split as
    Delta_ceil(k/2) + Delta_floor(k/2), where the certifier looks up
    Delta_k or splits it as Delta_h + Delta_k-h; the sizes stop where
    the certifier's do, before the first past the level cap.
    """
    hashes = diagram_hash(d), diagram_hash(d2)
    if hashes != (cert.d_hash, cert.d2_hash):
        return False
    f_str, n, s, max_m, cid = cert.f_str, cert.n, cert.s, cert.max_m, cert.coloring_id
    ints = (n, s, max_m, 0 if cid is None else cid)
    malformed = type(f_str) is not str or any(type(v) is not int for v in ints)
    if malformed or max_m < 1 or not 0 <= s < n:
        return False
    from .cochain import delta_reach

    try:
        f = CochainFn.build(f_str, n)
    except (ExprError, SharpConditionError):
        return False
    phi = phi_set(d2, s, f).values
    # Delta_0..Delta_{max_m-1} are needed; max_m // 2 = ceil((max_m-1)/2)
    halves = delta_reach(f, max_m // 2).levels
    sizes, hits = _split_levels(halves, max_m, lambda k: ((k + 1) // 2, k // 2))
    colorings = enumerate_colorings(d, n)
    if cid is None:
        if not all(map(is_trivial, colorings)):
            return False
        scored = dict(
            m=0, coloring=None, w=None, level_verdicts=(_NO_COLORING,),
            first_hit_level=None, no_nontrivial_coloring=True,
        )
    else:
        if not 0 <= cid < len(colorings) or is_trivial(colorings[cid]):
            return False
        ec = extend_coloring(d, colorings[cid], s)
        w = sum(t.term for t in crossing_terms(d, ec, f))
        m, verdicts, first_hit = _levels_clear({w - v for v in phi}, max_m, hits)
        scored = dict(
            m=m, coloring=colorings[cid].arc_colors, w=w, level_verdicts=verdicts,
            first_hit_level=first_hit, no_nontrivial_coloring=False,
        )
    return cert == BoundCertificate(
        d.name, hashes[0], d2.name, hashes[1], f.canonical(), n, s, max_m,
        coloring_id=cid, phi=phi, delta_level_sizes=sizes, **scored,
    )
