"""Independent checks of tribound outputs.

Standard library only, and nothing here imports ``tribound``: every
number the benchmark accepts is recomputed by a different route from the
program's own.

- ``compile_f`` evaluates an f string through its own tokenizer and an
  RPN stack machine (the program expands a syntax tree into monomials).
- ``coboundary`` is the six-term formula with x*y = 2y - x (mod n).
- ``Levels.member`` decides d in Delta_k by meet-in-the-middle: d is in
  Delta_k iff (d - Delta_ceil(k/2)) meets Delta_floor(k/2), since
  Delta_{i+j} = Delta_i + Delta_j.  The program instead tests
  membership in a materialised Delta_k.
- ``rank_mod_p`` gives the rank over F_p of a diagram's Fox coloring
  matrix (``coloring_rows``), read straight from the diagram JSON.
- ``colorings`` lists every Fox n-coloring: the kernel of that matrix
  over F_p for prime n, a plain search over all arc colorings else.
- ``weight`` recomputes W of a coloring: region colors spread from the
  outer face over the faces that ``face_walk`` traces, r' = 2a - r
  across an arc of color a, then one term eps*f(s, a, b) per crossing.

Each ``check_*`` function returns a list of problems; empty means the
output passed.
"""

from __future__ import annotations

import itertools
import re
from typing import Any, Callable

FFunc = Callable[[int, int, int], int]

# ---------------------------------------------------------------------------
# f strings
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([xyz])|(.))")
_PREC = {"+": 1, "-": 1, "*": 2}


def _tokens(text: str) -> list[str]:
    out = []
    for num, var, other in _TOKEN.findall(text.strip()):
        tok = num or var or other
        if tok and not tok.isspace():
            out.append(tok)
    return out


def _to_rpn(text: str) -> list[Any]:
    """Shunting-yard over the tribound grammar.

    Unary minus applies to the following base, so it binds tighter than
    ``^``: ``-x^2`` is (-x)^2.  An exponent is an integer literal,
    optionally in parentheses.
    """
    toks = _tokens(text)
    out: list[Any] = []
    ops: list[str] = []
    pending_neg = [0]  # unary minus count waiting for the current base
    expect_operand = True
    i = 0
    while i < len(toks):
        t = toks[i]
        if expect_operand:
            if t == "-":
                pending_neg[-1] += 1
            elif t == "(":
                ops.append("(")
                pending_neg.append(0)
            elif t.isdigit():
                out.append(int(t))
                expect_operand = False
            elif t in "xyz":
                out.append(t)
                expect_operand = False
            else:
                raise ValueError(f"unexpected {t!r} in {text!r}")
            if not expect_operand:
                out.extend(["neg"] * pending_neg[-1])
                pending_neg[-1] = 0
            i += 1
            continue
        if t == "^":
            if toks[i + 1] == "(":
                exp, i = int(toks[i + 2]), i + 4
                if toks[i - 1] != ")":
                    raise ValueError(f"bad exponent in {text!r}")
            else:
                exp, i = int(toks[i + 1]), i + 2
            out.append(("pow", exp))
            continue
        if t == ")":
            while ops[-1] != "(":
                out.append(ops.pop())
            ops.pop()
            pending_neg.pop()
            out.extend(["neg"] * pending_neg[-1])
            pending_neg[-1] = 0
            i += 1
            continue
        if t not in _PREC:
            raise ValueError(f"unexpected {t!r} in {text!r}")
        while ops and ops[-1] != "(" and _PREC[ops[-1]] >= _PREC[t]:
            out.append(ops.pop())
        ops.append(t)
        expect_operand = True
        i += 1
    if expect_operand or "(" in ops:
        raise ValueError(f"incomplete expression {text!r}")
    out.extend(reversed(ops))
    return out


def compile_f(text: str) -> FFunc:
    """An evaluator of the f string at integer points."""
    rpn = _to_rpn(text)

    def f(x: int, y: int, z: int) -> int:
        env = {"x": x, "y": y, "z": z}
        stack: list[int] = []
        for item in rpn:
            if isinstance(item, int):
                stack.append(item)
            elif item in env:
                stack.append(env[item])
            elif item == "neg":
                stack.append(-stack.pop())
            elif isinstance(item, tuple):
                stack.append(stack.pop() ** item[1])
            else:
                b, a = stack.pop(), stack.pop()
                stack.append(a + b if item == "+" else a - b if item == "-" else a * b)
        (value,) = stack
        return value

    return f


def value_table(f: FFunc, n: int) -> list[int]:
    """f at every point of Z(n)^3, flat index (x*n + y)*n + z."""
    return [f(x, y, z) for x in range(n) for y in range(n) for z in range(n)]


# ---------------------------------------------------------------------------
# Coboundary and the Delta levels
# ---------------------------------------------------------------------------


def coboundary(t: list[int], n: int, x: int, y: int, z: int, w: int) -> int:
    """(df)(x,y,z,w) from the value table of f."""

    def f(a: int, b: int, c: int) -> int:
        return t[(a * n + b) * n + c]

    def st(a: int, b: int) -> int:
        return (2 * b - a) % n

    return (
        f(x, z, w) - f(x, y, w) + f(x, y, z) - f(st(x, y), z, w)
        + f(st(x, z), st(y, z), w) - f(st(x, w), st(y, w), st(z, w))
    )


def image(t: list[int], n: int) -> set[int]:
    """Im(df) over all of Z(n)^4."""
    return {
        coboundary(t, n, *p) for p in itertools.product(range(n), repeat=4)
    }


def sumset(a: set[int], b: set[int]) -> set[int]:
    """{p + q}.  Dense sets go through big-integer bitmasks: one shift
    and OR per element of b instead of |a| set insertions."""
    lo_a, lo_b = min(a), min(b)
    width = max(a) - lo_a + max(b) - lo_b + 1  # of the result
    if width > 64 * len(a):
        return {p + q for p in a for q in b}
    mask = 0
    for p in a:
        mask |= 1 << (p - lo_a)
    out = 0
    for q in b:
        out |= mask << (q - lo_b)
    bits = bin(out)[:1:-1]  # least significant bit first
    base = lo_a + lo_b
    return {base + i for i, bit in enumerate(bits) if bit == "1"}


class Levels:
    """Delta_0 = {0}, Delta_k = Delta_{k-1} + (+/- Im df), built on demand."""

    def __init__(self, f: FFunc, n: int):
        self.im = image(value_table(f, n), n)
        self.pm = {v for k in self.im for v in (k, -k)}
        self._levels: list[set[int]] = [{0}]

    def level(self, k: int) -> set[int]:
        while len(self._levels) <= k:
            self._levels.append(sumset(self._levels[-1], self.pm))
        return self._levels[k]

    def member(self, d: int, k: int) -> bool:
        """d in Delta_k, via Delta_ceil(k/2) + Delta_floor(k/2)."""
        big, small = self.level((k + 1) // 2), self.level(k // 2)
        if len(big) < len(small):
            big, small = small, big
        return any(d - a in big for a in small)


# ---------------------------------------------------------------------------
# Diagrams: arcs, signs and the coloring matrix
# ---------------------------------------------------------------------------


def _slot(c: dict[str, Any], level: str, direction: str) -> int:
    (k,) = [
        k for k, s in enumerate(c["slots"])
        if s["level"] == level and s["dir"] == direction
    ]
    return k


def arcs(d: dict[str, Any]) -> dict[int, int]:
    """Edge id -> arc id.  Arcs join edges through over-passes and are
    numbered by their smallest edge id."""
    parent: dict[int, int] = {}

    def find(e: int) -> int:
        parent.setdefault(e, e)
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    for c in d["crossings"]:
        for s in c["slots"]:
            find(s["edge"])
        over = [s["edge"] for s in c["slots"] if s["level"] == "over"]
        parent[find(over[0])] = find(over[1])
    groups: dict[int, list[int]] = {}
    for e in parent:
        groups.setdefault(find(e), []).append(e)
    ordered = sorted(groups.values(), key=min)
    return {e: i for i, g in enumerate(ordered) for e in g}


def signs(d: dict[str, Any]) -> dict[int, int]:
    """Crossing id -> +1 iff the outgoing over slot is the ccw successor
    of the outgoing under slot."""
    return {
        c["id"]: 1 if _slot(c, "over", "out") == (_slot(c, "under", "out") + 1) % 4 else -1
        for c in d["crossings"]
    }


def coloring_rows(d: dict[str, Any]) -> tuple[list[dict[int, int]], int]:
    """One row per crossing: under_in + under_out - 2*over, as {arc: coeff}."""
    arc = arcs(d)
    rows = []
    for c in d["crossings"]:
        row: dict[int, int] = {}
        for s in c["slots"]:
            coeff = -2 if s["level"] == "over" and s["dir"] == "in" else (
                1 if s["level"] == "under" else 0
            )
            a = arc[s["edge"]]
            row[a] = row.get(a, 0) + coeff
        rows.append(row)
    return rows, len(set(arc.values()))


def _echelon(rows: list[dict[int, int]], p: int) -> dict[int, dict[int, int]]:
    """Pivot column -> row with 1 there and zeros left of it, over F_p."""
    basis: dict[int, dict[int, int]] = {}
    for row in rows:
        r = {k: v % p for k, v in row.items() if v % p}
        while r:
            col = min(r)
            if col not in basis:
                inv = pow(r[col], p - 2, p)
                basis[col] = {k: v * inv % p for k, v in r.items()}
                break
            _subtract(r, basis[col], r[col], p)
    return basis


def _subtract(r: dict[int, int], row: dict[int, int], coef: int, p: int) -> None:
    """r -= coef * row over F_p, dropping zeros."""
    for k, v in row.items():
        nv = (r.get(k, 0) - coef * v) % p
        if nv:
            r[k] = nv
        else:
            r.pop(k, None)


def rank_mod_p(rows: list[dict[int, int]], p: int) -> int:
    """Rank over F_p (p prime) by Gaussian elimination."""
    return len(_echelon(rows, p))


def kernel_mod_p(rows: list[dict[int, int]], columns: int, p: int) -> list[list[int]]:
    """A basis of the null space over F_p (p prime), from the reduced
    row echelon form: one vector per free column."""
    basis = _echelon(rows, p)
    for col in sorted(basis, reverse=True):  # clear each pivot column above
        for other, row in basis.items():
            if other != col and row.get(col):
                _subtract(row, basis[col], row[col], p)
    vectors = []
    for j in range(columns):
        if j in basis:
            continue
        v = [0] * columns
        v[j] = 1
        for col, row in basis.items():
            v[col] = -row.get(j, 0) % p
        vectors.append(v)
    return vectors


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % q for q in range(2, int(n**0.5) + 1))


def coloring_count(d: dict[str, Any], p: int) -> int:
    """Number of Fox p-colorings, p prime: p^(arcs - rank)."""
    rows, arc_count = coloring_rows(d)
    return p ** (arc_count - rank_mod_p(rows, p))


def _satisfies(rows: list[dict[int, int]], colors: Any, n: int) -> bool:
    return all(sum(v * colors[a] for a, v in row.items()) % n == 0 for row in rows)


def is_coloring(d: dict[str, Any], colors: list[int], n: int) -> bool:
    rows, arc_count = coloring_rows(d)
    return len(colors) == arc_count and _satisfies(rows, colors, n)


SEARCH_LIMIT = 10**6  # arc colorings tried at composite n


def colorings(d: dict[str, Any], n: int) -> list[list[int]]:
    """Every Fox n-coloring, as arc colors.  For prime n these are the
    combinations of a kernel basis over F_n; otherwise every arc
    coloring is tried, which suits diagrams with a few arcs only."""
    rows, arc_count = coloring_rows(d)
    if is_prime(n):
        basis = kernel_mod_p(rows, arc_count, n)
        return [
            [sum(c * v[i] for c, v in zip(coeffs, basis)) % n for i in range(arc_count)]
            for coeffs in itertools.product(range(n), repeat=len(basis))
        ]
    if n**arc_count > SEARCH_LIMIT:
        raise ValueError(f"{n}^{arc_count} arc colorings are too many to try")
    return [
        list(colors) for colors in itertools.product(range(n), repeat=arc_count)
        if _satisfies(rows, colors, n)
    ]


# ---------------------------------------------------------------------------
# Faces, region colors and weights
# ---------------------------------------------------------------------------


def face_walk(d: dict[str, Any]) -> tuple[list[list[int]], dict[tuple[int, bool], int]]:
    """The faces of d, as sorted boundary edge lists in tribound's face
    order (by smallest boundary dart, forward first), and the face of
    every dart.

    A dart is (edge, forward); the forward dart arrives at the edge's
    "in" slot, the backward one at its "out" slot.  The walk leaves a
    crossing by the slot before the one it arrived at (cw), so the face
    of the dart arriving at slot k+1 holds the corner between slots k
    and k+1.
    """
    slots = {c["id"]: c["slots"] for c in d["crossings"]}
    ends: dict[tuple[int, bool], tuple[int, int]] = {}
    for cid, ss in slots.items():
        for k, s in enumerate(ss):
            ends[(s["edge"], s["dir"] == "in")] = (cid, k)
    seen: set[tuple[int, bool]] = set()
    found = []
    for start in sorted(ends, key=lambda dart: (dart[0], not dart[1])):
        if start in seen:
            continue
        orbit, dart = [], start
        while dart not in seen:
            seen.add(dart)
            orbit.append(dart)
            cid, k = ends[dart]
            s = slots[cid][(k - 1) % 4]
            dart = (s["edge"], s["dir"] == "out")
        found.append((min((e, not fwd) for e, fwd in orbit), sorted(e for e, _ in orbit), orbit))
    found.sort(key=lambda item: item[:2])
    face_of = {dart: i for i, (_, _, orbit) in enumerate(found) for dart in orbit}
    return [edges for _, edges, _ in found], face_of


def faces(d: dict[str, Any]) -> list[list[int]]:
    """Sorted boundary edge lists of the faces, in tribound's face order."""
    return face_walk(d)[0]


def weigher(d: dict[str, Any], s: int, n: int, f: FFunc) -> Callable[[list[int]], int]:
    """W of a coloring of d with outer region color s.

    Region colors spread from the outer face (given as its edge list):
    across an edge of an arc of color a, a region of color r meets one
    of color 2a - r.  At a crossing whose over strand leaves by slot p,
    b is the over arc's color, a the color of the under arc on the
    over strand's right (slot p-1), and the region color is read in the
    corner right of both strands; the term is eps * f(region, a, b).
    """
    fs, face_of = face_walk(d)
    outer = [i for i, edges in enumerate(fs) if edges == sorted(d["outer_face"])]
    if len(outer) != 1:
        raise ValueError(f"outer face {d['outer_face']} names {len(outer)} faces")
    arc = arcs(d)
    sign = signs(d)
    across: dict[int, list[tuple[int, int]]] = {}  # face -> (face beyond, arc)
    for e, a in arc.items():
        left, right = face_of[(e, True)], face_of[(e, False)]
        across.setdefault(left, []).append((right, a))
        across.setdefault(right, []).append((left, a))
    crossings = []
    for c in d["crossings"]:
        ss = c["slots"]
        p, q = _slot(c, "over", "out"), _slot(c, "under", "out")
        # a strand leaving by slot r has corners r-1 and r-2 on its right
        k = (p - 2) % 4 if q == (p - 1) % 4 else (p - 1) % 4
        corner = ss[(k + 1) % 4]
        crossings.append((
            sign[c["id"]], face_of[(corner["edge"], corner["dir"] == "in")],
            arc[ss[(p - 1) % 4]["edge"]], arc[ss[p]["edge"]],
        ))

    def w(colors: list[int]) -> int:
        region = {outer[0]: s % n}
        todo = [outer[0]]
        while todo:
            here = todo.pop()
            for there, a in across[here]:
                t = (2 * colors[a] - region[here]) % n
                if there not in region:
                    region[there] = t
                    todo.append(there)
                elif region[there] != t:
                    raise ValueError("region colors clash: not a coloring")
        return sum(
            eps * f(region[face], colors[a], colors[b]) for eps, face, a, b in crossings
        )

    return w


def phi(d: dict[str, Any], s: int, n: int, f: FFunc) -> list[int]:
    """Sorted weights of the non-trivial colorings of d."""
    w = weigher(d, s, n, f)
    return sorted({w(c) for c in colorings(d, n) if len(set(c)) > 1})


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def check_certificate(
    cert: dict[str, Any],
    f_text: str,
    n: int,
    s: int,
    max_m: int,
    d: dict[str, Any],
    d2: dict[str, Any],
    levels: Levels,
) -> list[str]:
    """A ``certify`` certificate against f_text and the pair (d, d2).

    ``levels`` must be built from f_text and n.  W, Phi and m are
    recomputed here, not taken from the certificate.
    """
    bad: list[str] = []
    if (cert.get("n"), cert.get("s"), cert.get("max_m")) != (n, s, max_m):
        bad.append("n, s or max_m differ from the inputs")
        return bad
    m = cert.get("m")
    if not isinstance(m, int) or not 0 <= m <= max_m:
        return [f"m = {m!r} outside 0..{max_m}"]
    f_in, f_canon = compile_f(f_text), compile_f(cert["f"])
    if value_table(f_in, n) != value_table(f_canon, n):
        bad.append(f"canonical f {cert['f']!r} differs from {f_text!r}")
    sizes = [len(levels.level(i)) for i in range(max_m)]
    if cert.get("delta_level_sizes") != sizes:
        bad.append(f"level sizes {cert.get('delta_level_sizes')} != {sizes}")
    want_phi = phi(d2, s, n, f_in)
    if cert.get("phi") != want_phi:
        bad.append(f"Phi of the second diagram is {cert.get('phi')}, not {want_phi}")
    w_of = weigher(d, s, n, f_in)
    scores = [
        _score({w - v for v in want_phi}, levels, max_m)
        for w in {w_of(c) for c in colorings(d, n) if len(set(c)) > 1}
    ]
    if cert.get("no_nontrivial_coloring"):
        if m != 0 or cert.get("coloring") is not None:
            bad.append("no_nontrivial_coloring with m != 0 or a coloring")
        if scores:
            bad.append("claims no non-trivial coloring, but the checker finds some")
        return bad
    if scores and m != max(scores):
        bad.append(f"m = {m}, but the best coloring scores {max(scores)}")
    colors, w = cert.get("coloring"), cert.get("w")
    if not isinstance(colors, list) or not isinstance(w, int):
        return bad + ["certificate lacks a coloring or a weight"]
    if not is_coloring(d, colors, n):
        return bad + ["certificate coloring breaks a crossing relation"]
    if len(set(colors)) < 2:
        bad.append("certificate coloring is trivial")
    if w != w_of(colors):
        bad.append(f"W of the certificate coloring is {w_of(colors)}, not {w}")
    diffs = {w - v for v in want_phi}
    for i in range(m):
        if any(levels.member(x, i) for x in diffs):
            bad.append(f"W - Phi meets Delta_{i}, below the claimed m = {m}")
    if m < max_m:
        if not any(levels.member(x, m) for x in diffs):
            bad.append(f"m = {m} is not maximal: W - Phi misses Delta_{m}")
        if cert.get("first_hit_level") != m:
            bad.append("first_hit_level differs from m")
    elif cert.get("first_hit_level") is not None:
        bad.append("first_hit_level set although m = max_m")
    return bad


def _score(diffs: set[int], levels: Levels, max_m: int) -> int:
    """The first level that W - Phi meets, or max_m: the m a coloring
    earns.  Uses the materialised levels, which the size check builds."""
    for k in range(max_m):
        if not diffs.isdisjoint(levels.level(k)):
            return k
    return max_m


def check_weight_all(
    results: dict[str, Any], f_text: str, n: int, s: int, d: dict[str, Any]
) -> list[str]:
    """A ``weight --coloring all`` report, against the checker's own
    colorings and weights of d."""
    bad: list[str] = []
    f = compile_f(f_text)
    rows = results.get("weights", [])
    found = colorings(d, n)
    if len(rows) != len(found):
        bad.append(f"{len(rows)} colorings listed, the checker finds {len(found)}")
    weights = [weigher(d, s, n, f)(c) for c in found]
    if sorted(row["w"] for row in rows) != sorted(weights):
        bad.append("the weights differ from the checker's own")
    sign = signs(d)
    trivial = 0
    for row in rows:
        terms = row["per_crossing"]
        if len(terms) != len(sign):
            bad.append(f"coloring {row['id']}: {len(terms)} crossing terms")
        for t in terms:
            if t["epsilon"] != sign.get(t["crossing"]):
                bad.append(f"coloring {row['id']}: wrong sign at {t['crossing']}")
            if t["term"] != t["epsilon"] * f(t["s"], t["a"], t["b"]):
                bad.append(f"coloring {row['id']}: term at {t['crossing']} != eps*f(s,a,b)")
        if row["w"] != sum(t["term"] for t in terms):
            bad.append(f"coloring {row['id']}: W is not the sum of its terms")
        if row["trivial"]:
            trivial += 1
            if row["w"] != 0:
                bad.append(f"trivial coloring {row['id']} weighs {row['w']}")
    if trivial != n:
        bad.append(f"{trivial} trivial colorings, expected {n}")
    want_phi = sorted({w for w, c in zip(weights, found) if len(set(c)) > 1})
    if results.get("phi", {}).get("values") != want_phi:
        bad.append("Phi differs from the checker's weights of the non-trivial colorings")
    return bad
