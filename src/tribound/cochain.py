"""Integer-valued weight functions f: Z(n)^3 -> Z and their coboundary.

f is given as a polynomial expression in x, y, z with integer
coefficients, for example ``(x-y)*(y-z)*z``.  Arguments are the
canonical representatives 0..n-1 and the value is the exact integer:
nothing is reduced mod n on the output side, so results routinely
exceed machine-word range and we rely on Python's big integers.

The coboundary of f is the six-term alternating sum

    (df)(x,y,z,w) = f(x,z,w) - f(x,y,w) + f(x,y,z)
                    - f(x*y,z,w) + f(x*z,y*z,w) - f(x*w,y*w,z*w)

with x*y = 2y - x (mod n).  Its image generates the level sets
Delta_0 = {0}, Delta_m = Delta_{m-1} + (+/- Im df), which bound how much
the weight invariant can move (one summand per move).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Union

from .coloring import ResourceCapExceeded, quandle_star

__all__ = [
    "ExprError",
    "ExprSyntaxError",
    "UnknownVariableError",
    "NegativeExponentError",
    "SharpConditionError",
    "ResourceCapExceeded",
    "PolyExpr",
    "parse_poly",
    "eval_expr",
    "eval_f",
    "expand",
    "expr_to_str",
    "canonical_str",
    "CochainFn",
    "check_sharp",
    "sharp_counterexample",
    "delta_f",
    "image_delta",
    "DeltaReach",
    "delta_reach",
    "sumset",
    "DEFAULT_LEVEL_CAP",
]

DEFAULT_LEVEL_CAP = 10**7


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
# Expression AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class Add:
    left: "PolyExpr"
    right: "PolyExpr"


@dataclass(frozen=True)
class Sub:
    left: "PolyExpr"
    right: "PolyExpr"


@dataclass(frozen=True)
class Mul:
    left: "PolyExpr"
    right: "PolyExpr"


@dataclass(frozen=True)
class Neg:
    operand: "PolyExpr"


@dataclass(frozen=True)
class Pow:
    base: "PolyExpr"
    exponent: int


PolyExpr = Union[Var, Const, Add, Sub, Mul, Neg, Pow]

_VARS = ("x", "y", "z")


class _Parser:
    """Recursive descent over the grammar

        expr   := term (("+"|"-") term)*
        term   := factor ("*" factor)*
        factor := base ("^" nat)?
        base   := "x"|"y"|"z" | int | "(" expr ")" | "-" base

    A signed or parenthesized-negative exponent is reported as a
    negative-exponent error rather than a bare syntax error.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def parse(self) -> PolyExpr:
        node = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise ExprSyntaxError(
                f"unexpected {self.text[self.pos]!r}", self.pos
            )
        return node

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

    def expr(self) -> PolyExpr:
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self) -> PolyExpr:
        node = self.factor()
        while self.peek() == "*":
            self.take()
            node = Mul(node, self.factor())
        return node

    def factor(self) -> PolyExpr:
        node = self.base()
        if self.peek() == "^":
            self.take()
            node = Pow(node, self.exponent())
        return node

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

    def base(self) -> PolyExpr:
        ch = self.peek()
        if ch == "-":
            self.take()
            return Neg(self.base())
        if ch == "(":
            self.take()
            node = self.expr()
            if self.peek() != ")":
                raise ExprSyntaxError("expected ')'", self.pos)
            self.take()
            return node
        if ch.isdigit():
            return Const(self.integer())
        if ch.isalpha():
            at = self.pos
            name = self.take()
            if name not in _VARS:
                raise UnknownVariableError(f"unknown variable {name!r}", at)
            return Var(name)
        if ch == "":
            raise ExprSyntaxError("unexpected end of input", self.pos)
        raise ExprSyntaxError(f"unexpected {ch!r}", self.pos)


def parse_poly(text: str) -> PolyExpr:
    """Parse an expression in x, y, z into an AST."""
    return _Parser(text).parse()


def eval_expr(expr: PolyExpr, x: int, y: int, z: int) -> int:
    env = {"x": x, "y": y, "z": z}

    def go(e: PolyExpr) -> int:
        if isinstance(e, Var):
            return env[e.name]
        if isinstance(e, Const):
            return e.value
        if isinstance(e, Add):
            return go(e.left) + go(e.right)
        if isinstance(e, Sub):
            return go(e.left) - go(e.right)
        if isinstance(e, Mul):
            return go(e.left) * go(e.right)
        if isinstance(e, Neg):
            return -go(e.operand)
        if isinstance(e, Pow):
            return go(e.base) ** e.exponent
        raise TypeError(f"not a PolyExpr node: {e!r}")

    return go(expr)


def expr_to_str(expr: PolyExpr) -> str:
    """Re-parsable rendering of the AST (parenthesized where needed)."""
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Const):
        return str(expr.value)
    if isinstance(expr, Add):
        return f"{expr_to_str(expr.left)} + {expr_to_str(expr.right)}"
    if isinstance(expr, Sub):
        rhs = expr_to_str(expr.right)
        if isinstance(expr.right, (Add, Sub)):
            rhs = f"({rhs})"
        return f"{expr_to_str(expr.left)} - {rhs}"
    if isinstance(expr, Mul):
        parts = []
        for side in (expr.left, expr.right):
            s = expr_to_str(side)
            if isinstance(side, (Add, Sub, Neg)):
                s = f"({s})"
            parts.append(s)
        return "*".join(parts)
    if isinstance(expr, Neg):
        s = expr_to_str(expr.operand)
        # "-x^2" would re-parse as (-x)^2, so parenthesize powers too
        if isinstance(expr.operand, (Add, Sub, Mul, Neg, Pow)):
            s = f"({s})"
        return f"-{s}"
    if isinstance(expr, Pow):
        s = expr_to_str(expr.base)
        if not isinstance(expr.base, (Var, Const)) or (
            isinstance(expr.base, Const) and expr.base.value < 0
        ):
            s = f"({s})"
        return f"{s}^{expr.exponent}"
    raise TypeError(f"not a PolyExpr node: {expr!r}")


# ---------------------------------------------------------------------------
# Canonical expanded form
# ---------------------------------------------------------------------------

_Monomials = dict[tuple[int, int, int], int]


def _poly_add(a: _Monomials, b: _Monomials, sign: int = 1) -> _Monomials:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + sign * v
        if out[k] == 0:
            del out[k]
    return out


def _poly_mul(a: _Monomials, b: _Monomials) -> _Monomials:
    out: _Monomials = {}
    for (ea, ca) in a.items():
        for (eb, cb) in b.items():
            k = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[k] = out.get(k, 0) + ca * cb
            if out[k] == 0:
                del out[k]
    return out


def expand(expr: PolyExpr) -> _Monomials:
    """Fully expanded monomial form {(ex, ey, ez): coeff}."""
    if isinstance(expr, Var):
        e = [0, 0, 0]
        e[_VARS.index(expr.name)] = 1
        return {tuple(e): 1}
    if isinstance(expr, Const):
        return {(0, 0, 0): expr.value} if expr.value else {}
    if isinstance(expr, Add):
        return _poly_add(expand(expr.left), expand(expr.right))
    if isinstance(expr, Sub):
        return _poly_add(expand(expr.left), expand(expr.right), sign=-1)
    if isinstance(expr, Mul):
        return _poly_mul(expand(expr.left), expand(expr.right))
    if isinstance(expr, Neg):
        return {k: -v for k, v in expand(expr.operand).items()}
    if isinstance(expr, Pow):
        out: _Monomials = {(0, 0, 0): 1}
        base = expand(expr.base)
        for _ in range(expr.exponent):
            out = _poly_mul(out, base)
        return out
    raise TypeError(f"not a PolyExpr node: {expr!r}")


def canonical_str(expr: PolyExpr) -> str:
    """Canonical string of the expanded polynomial: monomials sorted by
    (total degree, exponents) descending.  Two expressions denote the
    same function on all of Z^3 iff their canonical strings agree, and
    the string parses back to the same polynomial."""
    mono = expand(expr)
    if not mono:
        return "0"
    keys = sorted(mono, key=lambda e: (sum(e), e), reverse=True)
    parts: list[str] = []
    for e in keys:
        coeff = mono[e]
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


# ---------------------------------------------------------------------------
# CochainFn
# ---------------------------------------------------------------------------


def sharp_counterexample(
    expr: PolyExpr | str, n: int
) -> tuple[int, int, int] | None:
    """First (x, y, y) with f(x, y, y) != 0, scanning x then y; None if
    the vanishing condition holds."""
    ast = parse_poly(expr) if isinstance(expr, str) else expr
    for x in range(n):
        for y in range(n):
            if eval_expr(ast, x, y, y) != 0:
                return (x, y, y)
    return None


def check_sharp(expr: PolyExpr | str, n: int) -> bool:
    """True iff f(x, y, y) = 0 for all x, y in Z(n)."""
    return sharp_counterexample(expr, n) is None


@dataclass(frozen=True)
class CochainFn:
    """A weight function with a precomputed value table.

    ``table[x][y][z]`` holds the exact integer f(x, y, z).  Construction
    rejects any f with f(x, y, y) != 0.
    """

    expr: PolyExpr
    n: int
    table: tuple[tuple[tuple[int, ...], ...], ...]

    @classmethod
    def build(cls, expr: PolyExpr | str, n: int) -> "CochainFn":
        if n < 1:
            raise ValueError(f"modulus must be >= 1, got {n}")
        ast = parse_poly(expr) if isinstance(expr, str) else expr
        bad = sharp_counterexample(ast, n)
        if bad is not None:
            raise SharpConditionError(bad, eval_expr(ast, *bad))
        table = tuple(
            tuple(
                tuple(eval_expr(ast, x, y, z) for z in range(n))
                for y in range(n)
            )
            for x in range(n)
        )
        return cls(expr=ast, n=n, table=table)

    def __call__(self, x: int, y: int, z: int) -> int:
        return self.table[x][y][z]

    def canonical(self) -> str:
        return canonical_str(self.expr)

    def check_table(self) -> bool:
        """Cache coherence: every table entry equals a fresh evaluation."""
        return all(
            self.table[x][y][z] == eval_expr(self.expr, x, y, z)
            for x in range(self.n)
            for y in range(self.n)
            for z in range(self.n)
        )


def eval_f(f: CochainFn, x: int, y: int, z: int) -> int:
    """Exact integer value of f at canonical representatives."""
    return f.table[x][y][z]


def delta_f(f: CochainFn, x: int, y: int, z: int, w: int) -> int:
    """The six-term coboundary value at (x, y, z, w)."""
    n = f.n
    t = f.table
    return (
        t[x][z][w]
        - t[x][y][w]
        + t[x][y][z]
        - t[quandle_star(x, y, n)][z][w]
        + t[quandle_star(x, z, n)][quandle_star(y, z, n)][w]
        - t[quandle_star(x, w, n)][quandle_star(y, w, n)][quandle_star(z, w, n)]
    )


def image_delta(f: CochainFn) -> tuple[int, ...]:
    """Sorted set of all coboundary values over Z(n)^4; always contains 0."""
    n = f.n
    values = {
        delta_f(f, x, y, z, w)
        for x, y, z, w in itertools.product(range(n), repeat=4)
    }
    return tuple(sorted(values))


def sumset(a: Iterable[int], b: Iterable[int], cap: int | None = None) -> tuple[int, ...]:
    """Sorted {p + q : p in a, q in b}, aborting past ``cap`` elements."""
    b = tuple(b)
    out: set[int] = set()
    for p in a:
        out.update(p + q for q in b)
        if cap is not None and len(out) > cap:
            raise ResourceCapExceeded(
                f"sumset grew past the cardinality cap {cap}"
            )
    return tuple(sorted(out))


@dataclass(frozen=True)
class DeltaReach:
    """Im(df) together with the reachable-change levels Delta_0..Delta_M."""

    f: CochainFn
    im_delta: tuple[int, ...]
    levels: tuple[tuple[int, ...], ...]

    @property
    def max_level(self) -> int:
        return len(self.levels) - 1

    def level(self, m: int) -> tuple[int, ...]:
        return self.levels[m]


def delta_reach(f: CochainFn, max_m: int, cap: int = DEFAULT_LEVEL_CAP) -> DeltaReach:
    """Delta_0 = {0}; Delta_m = Delta_{m-1} + (+/- Im df), each sorted.

    Since 0 is always in Im(df), the levels are nested increasing.  A
    level exceeding ``cap`` elements raises ResourceCapExceeded: the
    levels feed the move-count certificates, so truncation is never
    acceptable.

    Results are memoized per (n, canonical form of f); repeated calls
    reuse and extend previously computed levels.
    """
    if max_m < 0:
        raise ValueError(f"max_m must be >= 0, got {max_m}")
    key = (f.n, f.canonical())
    cached = _REACH_MEMO.get(key)
    if cached is not None and cached.max_level >= max_m:
        result = DeltaReach(f=f, im_delta=cached.im_delta,
                            levels=cached.levels[: max_m + 1])
    else:
        if cached is not None:
            im = cached.im_delta
            levels = list(cached.levels)
        else:
            im = image_delta(f)
            levels = [(0,)]
        pm_im = tuple(sorted({v for k in im for v in (k, -k)}))
        while len(levels) <= max_m:
            levels.append(sumset(levels[-1], pm_im, cap=cap))
        result = DeltaReach(f=f, im_delta=im, levels=tuple(levels))
        _REACH_MEMO[key] = result
    # the cap also applies to memoized levels
    for m, lv in enumerate(result.levels):
        if len(lv) > cap:
            raise ResourceCapExceeded(
                f"level {m} holds {len(lv)} values, past the cap {cap}"
            )
    return result


_REACH_MEMO: dict[tuple[int, str], DeltaReach] = {}
