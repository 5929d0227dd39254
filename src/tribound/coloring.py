"""Fox n-colorings of diagram arcs and their region extensions.

An n-coloring assigns a color in Z(n) = {0, ..., n-1} to every arc so
that at each crossing the two under-arc colors a, c and the over-arc
color b satisfy a + c = 2b (mod n).  Every coloring extends uniquely to
the complementary regions once the outer region's color s is fixed: the
two regions on either side of an arc of color a satisfy s + t = 2a.

The dihedral operation ``x * y = 2y - x (mod n)`` underlies both rules
and is exposed as :func:`quandle_star`.
"""

from __future__ import annotations

from itertools import zip_longest
from math import gcd, prod
from typing import NamedTuple

from .diagram import Diagram, ResourceCapExceeded

__all__ = [
    "quandle_star",
    "Coloring",
    "ExtendedColoring",
    "RegionConflictError",
    "ResourceCapExceeded",
    "COLORING_CAP",
    "enumerate_colorings",
    "is_trivial",
    "extend_coloring",
]


def quandle_star(x: int, y: int, n: int) -> int:
    """The integer k in Z(n) with k = 2y - x (mod n)."""
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    return (2 * y - x) % n


# enumerate_colorings refuses to build more colorings than this; the Delta
# level cap lives in cochain.py
COLORING_CAP = 10**5


class RegionConflictError(RuntimeError):
    """Region propagation left an edge whose two sides break the region
    relation s + t = 2a.

    This cannot happen for a valid diagram and a valid coloring; it
    signals corrupted input or a conventions bug.
    """


class Coloring(NamedTuple):
    """Arc colors indexed by arc id."""

    n: int
    arc_colors: tuple[int, ...]


class ExtendedColoring(NamedTuple):
    """A coloring plus region colors indexed by face id."""

    base: Coloring
    region_colors: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.base.n


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s*a + t*b."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _eliminate(p: int, b: int, n: int) -> tuple[int, int, int, int]:
    """A unimodular 2x2 step (s, t, u, v) taking (p, b) to (g, 0) mod n:
    s*p + t*b = g and u*p + v*b = 0, with s*v - t*u = 1.

    When p divides b this is plain subtraction: an extended-gcd step can
    come back with s = 0 (xgcd(1, 1) = (1, 0, 1)), which only swaps the
    two lines and would repeat forever.
    """
    if b % p == 0:
        return 1, 0, -(b // p) % n, 1
    g, s, t = _xgcd(p, b)
    return s % n, t % n, -(b // g) % n, (p // g) % n


def _diagonalize(
    rows: list[list[int]], k: int, n: int
) -> tuple[list[int], list[list[int]]]:
    """Bring a matrix over Z/n with k columns to diagonal form by
    unimodular row and column operations.

    Returns the diagonal entries d_0..d_{k-1} (0 past the rank) and the
    column transform V as a list of its columns: rows * V = U^-1 * D.
    """
    a = [list(r) for r in rows]
    cols = [[int(i == j) for i in range(k)] for j in range(k)]
    diag = [0] * k
    for t in range(min(len(a), k)):
        pivot = next(
            ((i, j) for i in range(t, len(a)) for j in range(t, k) if a[i][j]),
            None,
        )
        if pivot is None:
            break
        i, j = pivot
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        cols[t], cols[j] = cols[j], cols[t]
        while True:
            for i in range(t + 1, len(a)):
                if a[i][t]:
                    s, u, v, w = _eliminate(a[t][t], a[i][t], n)
                    top, low = a[t], a[i]
                    a[t] = [(s * x + u * y) % n for x, y in zip(top, low)]
                    a[i] = [(v * x + w * y) % n for x, y in zip(top, low)]
            for j in range(t + 1, k):
                if a[t][j]:
                    s, u, v, w = _eliminate(a[t][t], a[t][j], n)
                    for row in a:
                        x, y = row[t], row[j]
                        row[t], row[j] = (s * x + u * y) % n, (v * x + w * y) % n
                    left, right = cols[t], cols[j]
                    cols[t] = [(s * x + u * y) % n for x, y in zip(left, right)]
                    cols[j] = [(v * x + w * y) % n for x, y in zip(left, right)]
            if not any(a[i][t] for i in range(t + 1, len(a))):
                break
        diag[t] = a[t][t]
    return diag, cols


def _seed_forms(
    relations: tuple[tuple[int, int, int], ...], k: int, n: int
) -> tuple[list[list[int]], list[tuple[int, int, int]]]:
    """Every arc color as a linear form over Z/n in a few seed arcs.

    At a crossing whose over color b and one under color a are known,
    the other under color is 2b - a.  When no crossing can be used, the
    lowest-index unknown arc becomes a new seed, whose form reads its own
    coordinate.  Returns the forms (coefficient lists, shorter ones
    padded with zeros up to the final seed count) and the relations that
    derived no arc: the colorings are exactly the seed vectors on which
    those relations hold, mapped through the forms.
    """
    forms: list[list[int] | None] = [None] * k
    at_arc: list[list[int]] = [[] for _ in range(k)]
    for i, rel in enumerate(relations):
        for arc in set(rel):
            at_arc[arc].append(i)
    used = [False] * len(relations)
    seeds = 0
    queue: list[int] = []
    for start in range(k):
        if forms[start] is not None:
            continue
        forms[start] = [0] * seeds + [1 % n]
        seeds += 1
        queue.append(start)
        while queue:
            for i in at_arc[queue.pop()]:
                under_in, under_out, over = relations[i]
                b = forms[over]
                if used[i] or b is None:
                    continue
                if forms[under_in] is None:
                    known, new = forms[under_out], under_in
                else:
                    known, new = forms[under_in], under_out
                if known is None or forms[new] is not None:
                    continue
                forms[new] = [
                    (2 * x - y) % n
                    for x, y in zip_longest(b, known, fillvalue=0)
                ]
                used[i] = True
                queue.append(new)
    padded = [f + [0] * (seeds - len(f)) for f in forms]  # type: ignore[operator]
    return padded, [rel for i, rel in enumerate(relations) if not used[i]]


def enumerate_colorings(d: Diagram, n: int) -> list[Coloring]:
    """All Fox n-colorings, in lexicographic order of arc-color vectors.

    The colorings are the kernel of the crossings x arcs coloring matrix
    (a + c - 2b per crossing) over Z/n, for any modulus n.  Colors are
    first propagated through the crossings, so that every arc color is a
    linear form in a few seed arcs (``_seed_forms``; a braid closure
    needs about one seed per strand), and the relations that derived no
    arc become the rows of a small seeds x seeds system with the same
    kernel.  Unimodular row and column operations bring that system to a
    diagonal D with column transform V; the kernel is then every V*y
    where y_i runs over the multiples of n / gcd(d_i, n), mapped through
    the forms to arc colors.  The number of colorings, prod gcd(d_i, n),
    is known before any vector is built: past ``COLORING_CAP`` the call
    raises ResourceCapExceeded.  Every vector is checked against every
    crossing relation before it is returned.
    """
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    k = len(d.arcs)
    relations = d.tables.relations
    forms, rest = _seed_forms(relations, k, n)
    seeds = len(forms[0]) if forms else 0
    matrix = [
        [(x + y - 2 * z) % n for x, y, z in zip(forms[a], forms[c], forms[b])]
        for a, c, b in rest
    ]
    diag, cols = _diagonalize(matrix, seeds, n)
    orders = [gcd(x, n) for x in diag]
    count = prod(orders)
    if count > COLORING_CAP:
        raise ResourceCapExceeded(
            f"{count} colorings over Z({n}), past the cap {COLORING_CAP}"
        )

    vectors = [(0,) * k]
    for order, col in zip(orders, cols):
        if order == 1:
            continue
        step = n // order
        arc_col = [sum(x * y for x, y in zip(form, col)) % n for form in forms]
        gens = [
            tuple(j * step * x % n for x in arc_col) for j in range(order)
        ]
        vectors = [
            tuple((x + y) % n for x, y in zip(vec, gen))
            for vec in vectors
            for gen in gens
        ]
    vectors.sort()
    for vec in vectors:
        for under_in, under_out, over in relations:
            if (vec[under_in] + vec[under_out] - 2 * vec[over]) % n:
                raise AssertionError(
                    f"kernel vector {vec} breaks a crossing relation mod {n}"
                )
    return [Coloring(n=n, arc_colors=vec) for vec in vectors]


def is_trivial(c: Coloring) -> bool:
    """True iff all arcs carry the same color."""
    return len(set(c.arc_colors)) == 1


def _check_outer_color(s: int, n: int) -> None:
    if n < 1:  # as enumerate_colorings says it, when this runs first
        raise ValueError(f"modulus must be >= 1, got {n}")
    if not 0 <= s < n:
        raise ValueError(f"outer color {s} not in Z({n})")


def extend_coloring(d: Diagram, c: Coloring, s: int) -> ExtendedColoring:
    """The unique region extension with outer-region color s.

    Region colors propagate from the outer face along a spanning tree of
    the faces: crossing an edge of arc color a from a region of color r
    lands in the region of color 2a - r (mod n).  Every edge relation is
    re-checked afterwards.
    """
    n = c.n
    _check_outer_color(s, n)
    t = d.tables
    colors = c.arc_colors
    region = [-1] * len(d.faces)
    region[d.outer_face] = s
    for known, arc, new in t.propagation:
        region[new] = (2 * colors[arc] - region[known]) % n
    for e, (arc, lf, rf) in zip(d.edges, t.edge_rows):
        if (region[lf] + region[rf] - 2 * colors[arc]) % n != 0:
            raise RegionConflictError(
                f"edge {e.id} violates the region relation after propagation"
            )
    return ExtendedColoring(base=c, region_colors=tuple(region))
