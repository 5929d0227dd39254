"""Integer-valued weight functions f: Z(n)^3 -> Z and their coboundary.

f is given as a polynomial expression in x, y, z with integer
coefficients, for example ``(x-y)*(y-z)*z``, and is parsed straight
into its monomials {(ex, ey, ez): coeff}.  Arguments are the canonical
representatives 0..n-1 and the value is the exact integer: nothing is
reduced mod n on the output side, so results routinely exceed
machine-word range and we rely on Python's big integers.

The coboundary of f is the six-term alternating sum

    (df)(x,y,z,w) = f(x,z,w) - f(x,y,w) + f(x,y,z)
                    - f(x*y,z,w) + f(x*z,y*z,w) - f(x*w,y*w,z*w)

with x*y = 2y - x (mod n).  Its image generates the level sets
Delta_0 = {0}, Delta_m = Delta_{m-1} + (+/- Im df), which bound how much
the weight invariant can move (one summand per move).
"""

from __future__ import annotations

import bisect
import itertools
from typing import Iterable, NamedTuple

from .diagram import DEFAULT_LEVEL_CAP, ResourceCapExceeded

__all__ = [
    "ExprError",
    "ExprSyntaxError",
    "UnknownVariableError",
    "NegativeExponentError",
    "SharpConditionError",
    "ResourceCapExceeded",
    "Monomials",
    "parse_poly",
    "canonical_str",
    "CochainFn",
    "delta_f",
    "image_delta",
    "DeltaReach",
    "delta_reach",
    "sumset",
    "sumset_size",
    "DEFAULT_LEVEL_CAP",
    "MAX_DEGREE",
    "MAX_COEFF_BITS",
    "MAX_TERM_PRODUCTS",
]

# Caps on the size of f, checked before each product or power is formed.
# 4096 bits is about 1233 decimal digits, below CPython's 4300-digit
# limit on int/str conversion.  MAX_TERM_PRODUCTS bounds the parser's
# work: the running count, per parse, of len(a) * len(b) over every
# product of monomials a * b it forms.
MAX_DEGREE = 64
MAX_COEFF_BITS = 4096
MAX_TERM_PRODUCTS = 10**6

Monomials = dict[tuple[int, int, int], int]
_Terms = tuple[tuple[tuple[int, int, int], int], ...]
_Table = tuple[tuple[tuple[int, ...], ...], ...]


class ExprError(ValueError):
    """Base class for expression parsing problems."""

    def __init__(self, message: str, pos: int | None = None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)


class ExprSyntaxError(ExprError):
    pass


class UnknownVariableError(ExprError):
    pass


class NegativeExponentError(ExprError):
    pass


class SharpConditionError(ValueError):
    """f(x, y, y) != 0 for some x, y: the function cannot be used as a
    crossing weight."""

    def __init__(self, triple: tuple[int, int, int], value: int):
        self.triple = triple
        self.value = value
        super().__init__(
            f"f{triple} = {value} != 0 violates the y=z vanishing condition"
        )


# ---------------------------------------------------------------------------
# Polynomial arithmetic and parsing
# ---------------------------------------------------------------------------

_VARS = ("x", "y", "z")


def _poly_add(a: Monomials, b: Monomials, sign: int = 1) -> Monomials:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + sign * v
        if out[k] == 0:
            del out[k]
    return out


def _poly_mul(a: Monomials, b: Monomials) -> Monomials:
    out: Monomials = {}
    for (ea, ca) in a.items():
        for (eb, cb) in b.items():
            k = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[k] = out.get(k, 0) + ca * cb
            if out[k] == 0:
                del out[k]
    return out


def _degree(a: Monomials) -> int:
    return max((sum(e) for e in a), default=0)


def _norm_bits(a: Monomials) -> int:
    """Bit length of the sum of |coeff|.  The product of the factors'
    sums bounds every coefficient of a product, so adding these bit
    lengths bounds the product's coefficients."""
    return sum(abs(c) for c in a.values()).bit_length()


def _check_size(degree: int, bits: int, pos: int) -> None:
    if degree > MAX_DEGREE or bits > MAX_COEFF_BITS:
        raise ResourceCapExceeded(
            f"f could reach degree {degree} and {bits}-bit coefficients at "
            f"position {pos}, past the cap of degree {MAX_DEGREE} and "
            f"{MAX_COEFF_BITS} bits"
        )


class _Parser:
    """Recursive descent over the grammar

        expr   := term (("+"|"-") term)*
        term   := factor ("*" factor)*
        factor := base ("^" nat)?
        base   := "x"|"y"|"z" | int | "(" expr ")" | "-" base

    building the monomials of each node as it is read.  A signed or
    parenthesized-negative exponent is reported as a negative-exponent
    error rather than a bare syntax error.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.products = 0

    def mul(self, a: Monomials, b: Monomials, pos: int) -> Monomials:
        self.products += len(a) * len(b)
        if self.products > MAX_TERM_PRODUCTS:
            raise ResourceCapExceeded(
                f"f needs more than {MAX_TERM_PRODUCTS} term products at "
                f"position {pos}, past the cap"
            )
        return _poly_mul(a, b)

    def parse(self) -> Monomials:
        poly = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise ExprSyntaxError(
                f"unexpected {self.text[self.pos]!r}", self.pos
            )
        return poly

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def expr(self) -> Monomials:
        poly = self.term()
        while self.peek() in ("+", "-"):
            sign = 1 if self.take() == "+" else -1
            poly = _poly_add(poly, self.term(), sign)
        return poly

    def term(self) -> Monomials:
        poly = self.factor()
        while self.peek() == "*":
            at = self.pos
            self.take()
            rhs = self.factor()
            _check_size(
                _degree(poly) + _degree(rhs),
                _norm_bits(poly) + _norm_bits(rhs),
                at,
            )
            poly = self.mul(poly, rhs, at)
        return poly

    def factor(self) -> Monomials:
        poly = self.base()
        if self.peek() == "^":
            at = self.pos
            self.take()
            k = self.exponent()
            _check_size(_degree(poly) * k, _norm_bits(poly) * k, at)
            if not poly and k:
                return {}  # 0^k: the bit check does not bound k here
            out: Monomials = {(0, 0, 0): 1}
            for _ in range(k):
                out = self.mul(out, poly, at)
            poly = out
        return poly

    def exponent(self) -> int:
        ch = self.peek()
        at = self.pos
        if ch == "(":
            self.take()
            inner = self.signed_int()
            if self.peek() != ")":
                raise ExprSyntaxError("expected ')' after exponent", self.pos)
            self.take()
        elif ch == "-" or ch.isdigit():
            inner = self.signed_int()
        else:
            raise ExprSyntaxError("expected an integer exponent", at)
        if inner < 0:
            raise NegativeExponentError(
                f"negative exponent {inner} not allowed", at
            )
        return inner

    def signed_int(self) -> int:
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        if not self.peek().isdigit():
            raise ExprSyntaxError("expected an integer", self.pos)
        return sign * self.integer()

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        return int(self.text[start:self.pos])

    def base(self) -> Monomials:
        ch = self.peek()
        if ch == "-":
            self.take()
            return {k: -v for k, v in self.base().items()}
        if ch == "(":
            self.take()
            poly = self.expr()
            if self.peek() != ")":
                raise ExprSyntaxError("expected ')'", self.pos)
            self.take()
            return poly
        if ch.isdigit():
            value = self.integer()
            return {(0, 0, 0): value} if value else {}
        if ch.isalpha():
            at = self.pos
            name = self.take()
            if name not in _VARS:
                raise UnknownVariableError(f"unknown variable {name!r}", at)
            e = [0, 0, 0]
            e[_VARS.index(name)] = 1
            return {tuple(e): 1}
        if ch == "":
            raise ExprSyntaxError("unexpected end of input", self.pos)
        raise ExprSyntaxError(f"unexpected {ch!r}", self.pos)


def parse_poly(text: str) -> Monomials:
    """Parse an expression in x, y, z into its expanded monomials
    {(ex, ey, ez): coeff}, without zero coefficients.

    A product or power whose degree could pass ``MAX_DEGREE``, or whose
    coefficients could pass ``MAX_COEFF_BITS`` bits, raises
    ResourceCapExceeded before it is formed.
    """
    return _Parser(text).parse()


def _terms(f: str | Monomials) -> _Terms:
    """Non-zero monomials sorted by (total degree, exponents) descending."""
    mono = parse_poly(f) if isinstance(f, str) else f
    return tuple(
        sorted(
            ((e, c) for e, c in mono.items() if c),
            key=lambda t: (sum(t[0]), t[0]),
            reverse=True,
        )
    )


def _format(terms: _Terms) -> str:
    if not terms:
        return "0"
    parts: list[str] = []
    for e, coeff in terms:
        names = [
            f"{v}^{p}" if p > 1 else v
            for v, p in zip(_VARS, e)
            if p > 0
        ]
        mag = abs(coeff)
        if not names:
            body = str(mag)
        elif mag == 1 and (parts or coeff > 0):
            body = "*".join(names)
        else:
            # a leading minus binds to the base ("-x^2*y" reads as
            # (-x)^2*y), so a negative leading term keeps its "1"
            body = "*".join([str(mag)] + names)
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts)


def canonical_str(f: str | Monomials) -> str:
    """Canonical string of the expanded polynomial: monomials sorted by
    (total degree, exponents) descending.  Two expressions denote the
    same function on all of Z^3 iff their canonical strings agree, and
    the string parses back to the same polynomial."""
    return _format(_terms(f))


def _first_nonvanishing(table: _Table) -> tuple[int, int, int] | None:
    n = len(table)
    return next(
        ((x, y, y) for x in range(n) for y in range(n) if table[x][y][y]), None
    )


def _value_table(terms: _Terms, n: int) -> _Table:
    """table[x][y][z] = f(x, y, z), substituting x, then y, then z from
    per-variable power tables."""
    degree = sum(terms[0][0]) if terms else 0
    powers = [[v**k for k in range(degree + 1)] for v in range(n)]
    table = []
    for px in powers:
        in_yz: dict[tuple[int, int], int] = {}
        for (ex, ey, ez), c in terms:
            in_yz[ey, ez] = in_yz.get((ey, ez), 0) + c * px[ex]
        plane = []
        for py in powers:
            in_z: dict[int, int] = {}
            for (ey, ez), c in in_yz.items():
                in_z[ez] = in_z.get(ez, 0) + c * py[ey]
            plane.append(
                tuple(sum(c * pz[ez] for ez, c in in_z.items()) for pz in powers)
            )
        table.append(tuple(plane))
    return tuple(table)


# ---------------------------------------------------------------------------
# CochainFn
# ---------------------------------------------------------------------------


class CochainFn(NamedTuple):
    """A weight function with a precomputed value table.

    ``terms`` holds the monomials ((ex, ey, ez), coeff) in canonical
    order and ``table[x][y][z]`` the exact integer f(x, y, z).
    Construction rejects any f with f(x, y, y) != 0.
    """

    terms: _Terms
    n: int
    table: _Table

    @classmethod
    def build(cls, f: str | Monomials, n: int) -> "CochainFn":
        if n < 1:
            raise ValueError(f"modulus must be >= 1, got {n}")
        terms = _terms(f)
        table = _value_table(terms, n)
        bad = _first_nonvanishing(table)
        if bad is not None:
            x, y, _ = bad
            raise SharpConditionError(bad, table[x][y][y])
        return cls(terms=terms, n=n, table=table)

    def __call__(self, x: int, y: int, z: int) -> int:
        return self.table[x][y][z]

    def canonical(self) -> str:
        return _format(self.terms)


def delta_f(f: CochainFn, x: int, y: int, z: int, w: int) -> int:
    """The six-term coboundary value at (x, y, z, w)."""
    n = f.n
    t = f.table
    # the dihedral star p * q = 2q - p (mod n), as coloring.quandle_star
    return (
        t[x][z][w]
        - t[x][y][w]
        + t[x][y][z]
        - t[(2 * y - x) % n][z][w]
        + t[(2 * z - x) % n][(2 * z - y) % n][w]
        - t[(2 * w - x) % n][(2 * w - y) % n][(2 * w - z) % n]
    )


def image_delta(f: CochainFn) -> tuple[int, ...]:
    """Sorted set of all coboundary values over Z(n)^4; always contains 0.

    Equal to the set of ``delta_f`` over every tuple, read from a
    precomputed star table: for each (x, y, z) the four w-indexed rows
    t[x][z], t[x][y], t[x*y][z] and t[x*z][y*z] are fixed, and only the
    last term t[x*w][y*w][z*w] is looked up per w.
    """
    n = f.n
    t = f.table
    star = [[(2 * y - x) % n for y in range(n)] for x in range(n)]  # x * y
    values: set[int] = set()
    for x in range(n):
        tx, sx = t[x], star[x]
        for y in range(n):
            txy, sy, t_xy = tx[y], star[y], t[sx[y]]
            # t[x*w][y*w], indexed by w
            last = [t[p][q] for p, q in zip(sx, sy)]
            for z in range(n):
                c = txy[z]
                values.update(
                    a - b + c - d + e - r[s]
                    for a, b, d, e, r, s in zip(
                        tx[z], txy, t_xy[z], t[sx[z]][sy[z]], last, star[z]
                    )
                )
    return tuple(sorted(values))


# sumset takes the bitmask kernel when the span of the sum is at most this
# many times |a|; a sparser sum stays on the set loop.
DENSE_FACTOR = 1024
# bytes of the mask turned into a bit string at a time when reading it back,
# and the translation of that string's "0" and "1" into bytes 0 and 1
_READ_CHUNK = 1 << 16
_BITS = bytes.maketrans(b"01", b"\x00\x01")
# sumset_size counts a sparse sum one value range at a time; a range holds
# at most max(PAIR_BUDGET, PAIRS_PER_VALUE * |a|) pairs p + q unless it is
# one value wide.  Each range costs a pass over a, so scaling the budget
# with |a| keeps that pass small against the pairs.  The range's set of
# distinct sums is the count's working set: near the ends of a sum it
# holds about one value per pair.
PAIR_BUDGET = 1 << 12
PAIRS_PER_VALUE = 8
# sumset's set loop raises ResourceCapExceeded once its set's estimated
# size, values times SET_BYTES_PER_VALUE, passes SET_BYTES_CAP.  A value
# costs its int and its share of the hash table: about 66 bytes of peak
# RSS at 10^7 values, but about 120 while the table doubles past 1.26
# million values with old and new table alive (measured on a 64-bit
# CPython 3.11).  128 keeps the whole process below 150 MB.
SET_BYTES_CAP = 150 * 10**6
SET_BYTES_PER_VALUE = 128


def _past_cap(cap: int) -> ResourceCapExceeded:
    return ResourceCapExceeded(f"sumset grew past the cardinality cap {cap}")


def _is_dense(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    width = max(a) - min(a) + max(b) - min(b) + 1
    return width <= DENSE_FACTOR * len(a)


def _is_symmetric(values: list[int]) -> bool:
    """True iff sorted distinct ``values`` equal their negation."""
    return all(p == -q for p, q in zip(values, reversed(values)))


def _dense_mask(a: tuple[int, ...], b: tuple[int, ...], cap: int | None) -> int:
    """The bitmask kernel: bit k of the result stands for min(a) + min(b)
    + k, and each q in b ORs in the mask of a shifted by q - min(b).  Each
    width/8-byte buffer is dropped once it is spent, so at most four are
    alive at a time."""
    lo_a, lo_b = min(a), min(b)
    buf = bytearray((max(a) - lo_a) // 8 + 1)
    for p in a:
        k = p - lo_a
        buf[k >> 3] |= 1 << (k & 7)
    mask = int.from_bytes(buf, "little")
    del buf
    out = 0
    for i, q in enumerate(set(b), 1):
        out |= mask << (q - lo_b)
        # the count only grows: test the cap after ORs 1, 2, 4, 8, ...
        if cap is not None and i & (i - 1) == 0 and out.bit_count() > cap:
            raise _past_cap(cap)
    del mask
    if cap is not None and out.bit_count() > cap:
        raise _past_cap(cap)
    return out


def _sumset_dense(
    a: tuple[int, ...], b: tuple[int, ...], cap: int | None
) -> tuple[int, ...]:
    """The values of the bitmask kernel's mask, read back in chunks."""
    lo = min(a) + min(b)
    out = _dense_mask(a, b, cap)
    raw = out.to_bytes((out.bit_length() + 7) // 8, "little")
    del out
    values: list[int] = []
    for i in range(0, len(raw), _READ_CHUNK):
        # bit string least significant bit first: character j is bit j
        bits = bin(int.from_bytes(raw[i:i + _READ_CHUNK], "little"))[:1:-1]
        start = lo + 8 * i
        values.extend(
            itertools.compress(
                range(start, start + len(bits)), bits.encode().translate(_BITS)
            )
        )
    return tuple(values)


def sumset(a: Iterable[int], b: Iterable[int], cap: int | None = None) -> tuple[int, ...]:
    """Sorted {p + q : p in a, q in b}, aborting past ``cap`` elements.

    A dense sum, whose span max(a) - min(a) + max(b) - min(b) + 1 is at
    most ``DENSE_FACTOR * |a|``, is built as a bitmask on a Python int
    with one shift and OR per value of b; any other sum is built with one
    set insertion per pair.  Both give the same tuple and raise the same
    ResourceCapExceeded.  The set loop also raises once its set's
    estimated size passes ``SET_BYTES_CAP``.
    """
    a, b = tuple(a), tuple(b)
    if a and b and _is_dense(a, b):
        return _sumset_dense(a, b, cap)
    out: set[int] = set()
    limit = SET_BYTES_CAP // SET_BYTES_PER_VALUE
    for p in a:
        out.update(p + q for q in b)
        if cap is not None and len(out) > cap:
            raise _past_cap(cap)
        if len(out) > limit:
            raise ResourceCapExceeded(
                f"sumset set grew past {limit} values, about "
                f"{SET_BYTES_CAP // 10**6} MB (memory cap)"
            )
    return tuple(sorted(out))


def sumset_size(a: Iterable[int], b: Iterable[int], cap: int | None = None) -> int:
    """``len(sumset(a, b))``, raising the same ResourceCapExceeded past
    ``cap``, without holding the sum.

    A dense sum is the bitmask kernel's mask, whose bits
    ``int.bit_count`` counts.  A sparse sum is tallied one value range
    [lo, hi) at a time: for each p of a, the q of b with lo <= p + q < hi
    are a slice of sorted b that starts where the last range's slice
    ended.  Each range is sized from the last one's pair density and
    halved while it holds more than the pair budget, so the set of
    distinct sums in hand never passes the budget.

    The sparse count reads two properties off its operands, as every
    Delta level has them.  If a and b are both symmetric (a = -a), so is
    their sum: only its negative values are tallied, twice, plus one
    for 0, which is a sum exactly when a and b share a value.  If a and
    b are equal, p + q = q + p: row p of the count starts at q = p.
    """
    a, b = tuple(a), tuple(b)
    if not a or not b:
        return 0
    if _is_dense(a, b):
        return _dense_mask(a, b, cap).bit_count()
    a, b = sorted(set(a)), sorted(set(b))
    lo, top = a[0] + b[0], a[-1] + b[-1]
    scale, count = 1, 0
    if _is_symmetric(a) and _is_symmetric(b):
        # the count runs up from the sparse edge of the sum, so a cap trips
        # before the dense middle is reached
        scale, count, top = 2, int(not set(a).isdisjoint(b)), -1
    budget = max(PAIR_BUDGET, PAIRS_PER_VALUE * len(a))
    # row i of the count starts at the first q of b, or at q = p if a == b
    starts = list(range(len(a))) if a == b else [0] * len(a)
    width = 1
    while lo <= top:
        hi = min(lo + width, top + 1)
        # only p with p + b[-1] >= lo and p + b[0] < hi have pairs in range
        first = bisect.bisect_left(a, lo - b[-1])
        last = bisect.bisect_left(a, hi - b[0])
        ps, js = a[first:last], starts[first:last]
        ends = [bisect.bisect_left(b, hi - p, j) for p, j in zip(ps, js)]
        pairs = sum(ends) - sum(js)
        if pairs > budget and width > 1:
            width = max(1, width * budget // (2 * pairs))
            continue
        count += scale * len(
            {p + q for p, j, e in zip(ps, js, ends) for q in b[j:e]}
        )
        if cap is not None and count > cap:
            raise _past_cap(cap)
        starts[first:last] = ends
        lo = hi
        # aim the next range at 3/4 of the budget, growing it at most 4-fold
        aim = 3 * width * budget // (4 * pairs) if pairs else 2 * width
        width = max(1, min(4 * width, aim))
    return count


class DeltaReach(NamedTuple):
    """Im(df) and the levels Delta_0..Delta_L, each a sorted tuple."""

    f: CochainFn
    im_delta: tuple[int, ...]
    levels: tuple[tuple[int, ...], ...]


def delta_reach(f: CochainFn, max_m: int, cap: int = DEFAULT_LEVEL_CAP) -> DeltaReach:
    """Delta_0 = {0}; Delta_m = Delta_{m-1} + (+/- Im df), each sorted.

    Since 0 is always in Im(df), the levels are nested increasing.  A
    level exceeding ``cap`` elements raises ResourceCapExceeded: the
    levels feed the move-count certificates, so truncation is never
    acceptable.
    """
    if max_m < 0:
        raise ValueError(f"max_m must be >= 0, got {max_m}")
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    im = image_delta(f)
    pm_im = tuple(sorted({v for k in im for v in (k, -k)}))
    levels = [(0,)]
    while len(levels) <= max_m:
        levels.append(sumset(levels[-1], pm_im, cap=cap))
    return DeltaReach(f=f, im_delta=im, levels=tuple(levels))

