"""Integer-valued weight functions f: Z(n)^3 -> Z.

f is given as a polynomial expression in x, y, z with integer
coefficients, for example ``(x-y)*(y-z)*z``, and is parsed straight
into its monomials {(ex, ey, ez): coeff}.  Arguments are the canonical
representatives 0..n-1 and the value is the exact integer: nothing is
reduced mod n on the output side, so results routinely exceed
machine-word range and we rely on Python's big integers.

``CochainFn.build`` checks the modulus against its cap, parses f,
checks the caps on its size, tabulates f(x, y, z) over Z(n)^3 and
rejects any f with f(x, y, y) != 0.  ``CochainFn.from_table`` takes
the table itself, through the same modulus and vanishing checks.  Past
these two, f is its name, n and table: the weight W and the Phi sets
read only the table; the coboundary of f and its levels live in
``cochain``, which the ``weight`` command never loads.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .diagram import ResourceCapExceeded, sha256_hex

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
    "MAX_DEGREE",
    "MAX_MODULUS",
    "MAX_COEFF_BITS",
    "MAX_NESTING",
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
# The parser recurses about four frames per parenthesis and one per unary
# minus; past this many of them, open at once, it stops well inside
# Python's recursion limit.
MAX_NESTING = 100
# The value table holds all n^3 values of f: n = 100 is 10^6 of them, and
# builds in about a second.  build checks n before it parses f.
MAX_MODULUS = 100

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
        self.depth = 0  # "(" and unary "-" open around the current base

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
        elif ch == "-" or ch.isdecimal():
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
        if not self.peek().isdecimal():
            raise ExprSyntaxError("expected an integer", self.pos)
        return sign * self.integer()

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        return int(self.text[start:self.pos])

    def base(self) -> Monomials:
        ch = self.peek()
        if ch in ("-", "("):
            return self.nested(ch)
        if ch.isdecimal():
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

    def nested(self, ch: str) -> Monomials:
        """A negated base or a parenthesized expr, one level deeper; one
        level past ``MAX_NESTING`` raises before the parser recurses."""
        if self.depth == MAX_NESTING:
            raise ResourceCapExceeded(
                f"f nests more than {MAX_NESTING} parentheses and unary "
                f"minuses at position {self.pos}, past the cap"
            )
        self.depth += 1
        self.take()
        if ch == "-":
            poly = {k: -v for k, v in self.base().items()}
        else:
            poly = self.expr()
            if self.peek() != ")":
                raise ExprSyntaxError("expected ')'", self.pos)
            self.take()
        self.depth -= 1
        return poly


def parse_poly(text: str) -> Monomials:
    """Parse an expression in x, y, z into its expanded monomials
    {(ex, ey, ez): coeff}, without zero coefficients.

    A product or power whose degree could pass ``MAX_DEGREE``, or whose
    coefficients could pass ``MAX_COEFF_BITS`` bits, raises
    ResourceCapExceeded before it is formed, as does a parenthesis or
    unary minus nested more than ``MAX_NESTING`` deep.
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


def _check_modulus(n: int) -> None:
    if type(n) is not int:
        raise TypeError(f"modulus must be an int, got {n!r}")
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    if n > MAX_MODULUS:
        raise ResourceCapExceeded(
            f"modulus {n} past the cap {MAX_MODULUS} on the n^3 values "
            f"of f's table"
        )


def _check_vanishing(table: _Table) -> None:
    """Raise SharpConditionError at the first (x, y, y), x then y, where
    f is not 0."""
    for x, plane in enumerate(table):
        for y, row in enumerate(plane):
            if row[y]:
                raise SharpConditionError((x, y, y), row[y])


class CochainFn(NamedTuple):
    """A weight function: its name, its modulus and its value table.

    ``table[x][y][z]`` is the exact integer f(x, y, z).  ``name`` is the
    canonical string of a polynomial f, or ``table:`` and 16 hex digits
    of a hash of the values for an f given as a table.  Both
    constructors reject any f with f(x, y, y) != 0.
    """

    name: str
    n: int
    table: _Table

    @classmethod
    def build(cls, f: str | Monomials, n: int) -> "CochainFn":
        """f as a polynomial, checked against the modulus cap before it
        is parsed."""
        _check_modulus(n)
        terms = _terms(f)
        table = _value_table(terms, n)
        _check_vanishing(table)
        return cls(name=_format(terms), n=n, table=table)

    @classmethod
    def from_table(cls, n: int, table: Iterable[Iterable[Iterable[int]]]) -> "CochainFn":
        """f as its n x n x n table of ints, none longer than a polynomial
        within ``build``'s caps can reach at this n."""
        _check_modulus(n)
        table = tuple(tuple(tuple(row) for row in plane) for plane in table)
        if {len(table)} | {len(r) for plane in table for r in (plane, *plane)} != {n}:
            raise ValueError(f"f's table is not {n} x {n} x {n}")
        values = [v for plane in table for row in plane for v in row]
        bits = MAX_COEFF_BITS + MAX_DEGREE * n.bit_length()
        for v in values:
            if type(v) is not int:
                raise TypeError(f"f's table holds {v!r}, not an int")
            if v.bit_length() > bits:
                raise ResourceCapExceeded(f"f's table passes the {bits}-bit cap")
        _check_vanishing(table)
        digest = sha256_hex(",".join(map(str, values)).encode())[:16]
        return cls(name=f"table:{digest}", n=n, table=table)

    def __call__(self, x: int, y: int, z: int) -> int:
        return self.table[x][y][z]

    def canonical(self) -> str:
        return self.name
