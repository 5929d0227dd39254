from __future__ import annotations

import copy
import hashlib
import itertools
import json
import random
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tribound import cochain
from tribound.cochain import (
    DENSE_FACTOR,
    ResourceCapExceeded,
    coboundary_vector,
    delta_f,
    delta_reach,
    image_delta,
    sumset,
    sumset_size,
)
from tribound.coloring import quandle_star
from tribound.fixtures import DELTA_TABLE_N3, EXPECTED
from tribound.poly import (
    MAX_COEFF_BITS,
    MAX_DEGREE,
    MAX_MODULUS,
    MAX_NESTING,
    CochainFn,
    ExprSyntaxError,
    NegativeExponentError,
    SharpConditionError,
    UnknownVariableError,
    canonical_str,
    parse_poly,
)


# -- parsing -----------------------------------------------------------------


def value(mono, x, y, z):
    """Evaluate monomials {(ex, ey, ez): coeff} at (x, y, z)."""
    return sum(c * x**ex * y**ey * z**ez for (ex, ey, ez), c in mono.items())


REFERENCE_FUNCTIONS = {
    "(x-y)*(y-z)*z": lambda x, y, z: (x - y) * (y - z) * z,
    "(x+y)^3*(y+z)*(y-z)^3*z^5": lambda x, y, z: (
        (x + y) ** 3 * (y + z) * (y - z) ** 3 * z**5
    ),
    "(x+y)^2*(y-z)^3*z^5": lambda x, y, z: (x + y) ** 2 * (y - z) ** 3 * z**5,
}


def test_parse_reference_expressions():
    for text, ref in REFERENCE_FUNCTIONS.items():
        mono = parse_poly(text)
        assert all(
            value(mono, x, y, z) == ref(x, y, z)
            for x, y, z in itertools.product(range(-3, 4), repeat=3)
        )
        assert parse_poly(canonical_str(mono)) == mono


def test_parse_values():
    assert value(parse_poly("(x-y)*(y-z)*z"), 2, 0, 2) == -8
    assert parse_poly("2^3") == {(0, 0, 0): 8}
    assert value(parse_poly("-3 + x*x"), 5, 0, 0) == 22
    assert parse_poly("x - x") == {}


def test_unary_minus_binds_before_power():
    # per the grammar, -x^2 parses as (-x)^2
    assert parse_poly("-x^2") == parse_poly("x^2") == {(2, 0, 0): 1}
    assert parse_poly("-(x^2)") == parse_poly("0 - x^2") == {(2, 0, 0): -1}


def test_negative_exponent_rejected():
    with pytest.raises(NegativeExponentError):
        parse_poly("x^(-1)")
    with pytest.raises(NegativeExponentError):
        parse_poly("x^-2")


def test_unknown_variable():
    with pytest.raises(UnknownVariableError) as err:
        parse_poly("x*w")
    assert err.value.pos == 2


def test_syntax_errors_carry_position():
    for text, pos in (
        ("x +", 3), ("(x", 2), ("x^", 2), ("x y", 2), ("", 0),
        ("x^(2", 4), ("x^-", 3), ("x+*", 2),
        # a digit that is not a decimal digit is no integer
        ("x^\u00b2", 2), ("\u00b2", 0), ("2\u00b2", 1), ("x^(\u00b2)", 3), ("x^-\u00b2", 3),
    ):
        with pytest.raises(ExprSyntaxError) as err:
            parse_poly(text)
        assert err.value.pos == pos
    with pytest.raises(ExprSyntaxError, match="^unexpected '\u00b2' \\(at position 0\\)$"):
        parse_poly("\u00b2")
    # decimal digits of other scripts are integers, as int() reads them
    assert parse_poly("\u0663*x^\u0662") == {(2, 0, 0): 3}


def test_size_caps():
    assert parse_poly(f"x^{MAX_DEGREE}") == {(MAX_DEGREE, 0, 0): 1}
    assert parse_poly("0^99999999999999*x") == {}
    for text in (
        f"x^{MAX_DEGREE + 1}",
        f"x^{MAX_DEGREE}*y",
        "x^10000000*(y-z)",
        "((9^64)^64)^64*(y-z)",
        f"2^{MAX_COEFF_BITS}",
        "(x+y+z+1)^32*(x+y+z+1)^32",
        "(x+y+z+1)^64",
    ):
        with pytest.raises(ResourceCapExceeded):
            parse_poly(text)
    # about 1.2e5 term products, within MAX_TERM_PRODUCTS
    assert max(map(sum, parse_poly("(x+y+z)^60*(y-z)"))) == 61


def test_nesting_cap():
    # a parenthesis or unary minus past MAX_NESTING open ones raises at its
    # own position, before the parser recurses into it
    k = MAX_NESTING
    assert parse_poly("(" * k + "x" + ")" * k) == {(1, 0, 0): 1}
    assert parse_poly("-" * k + "x") == {(1, 0, 0): 1}
    assert parse_poly("(-" * (k // 2) + "x" + ")" * (k // 2)) == {(1, 0, 0): 1}
    # sequential groups do not add up
    assert parse_poly("*".join(["(" * k + "x" + ")" * k] * 3)) == {(3, 0, 0): 1}
    for text, pos in (
        ("(" * (k + 1) + "x" + ")" * (k + 1), k),
        ("-" * (k + 1) + "x", k),
        ("y*" + "(-" * (k // 2) + "(x" + ")" * (k // 2 + 1), k + 2),
        (" ( " * 250 + "x", 3 * k + 1),
        ("-" * 1000 + "x", k),
    ):
        with pytest.raises(
            ResourceCapExceeded,
            match=rf"^f nests more than {k} parentheses and unary minuses "
            rf"at position {pos}, past the cap$",
        ):
            parse_poly(text)


def test_modulus_below_one():
    with pytest.raises(ValueError, match=r"^modulus must be >= 1, got 0$"):
        CochainFn.build("y-z", 0)


def test_modulus_cap():
    # the value table holds n^3 values: 10^6 at the cap, which still builds
    assert len(CochainFn.build("y-z", MAX_MODULUS).table) == MAX_MODULUS
    with pytest.raises(
        ResourceCapExceeded,
        match=rf"^modulus {MAX_MODULUS + 1} past the cap {MAX_MODULUS} ",
    ):
        CochainFn.build("y-z", MAX_MODULUS + 1)


def test_canonical_form():
    assert canonical_str(parse_poly("(x-y)*(y-z)*z")) == canonical_str(
        parse_poly("x*y*z - x*z^2 - y^2*z + y*z^2")
    )
    assert canonical_str(parse_poly("x - x")) == "0"
    assert canonical_str(parse_poly("z + x")) == "x + z"
    # a bare "-x^2*y" would parse back as (-x)^2*y
    assert canonical_str(parse_poly("(y-z)*(0-x^2)")) == "-1*x^2*y + x^2*z"


# Expression text drawn from a tree kept here, with the tree's own value
# function, so the reference does not go through the parser.  A node is
# (text, value, binding, degree bound); binding 3 is a base, 2 a power, 1 a
# product and 0 a sum, and text is only parenthesized where the grammar
# needs it.


def _operand(node, binding):
    text, _, node_binding, _ = node
    return text if node_binding >= binding else f"({text})"


def _negated(node):
    text, fn, _, degree = node
    return f"-{_operand(node, 3)}", (lambda *p: -fn(*p)), 3, degree


@st.composite
def poly_texts(draw, depth=0):
    kind = draw(st.integers(0, 6 if depth < 4 else 1))
    if kind == 0:
        i = draw(st.integers(0, 2))
        return "xyz"[i], (lambda *p: p[i]), 3, 1
    if kind == 1:
        c = draw(st.integers(0, 9))
        return str(c), (lambda *p: c), 3, 0
    a = draw(poly_texts(depth=depth + 1))
    if kind == 5:
        return _negated(a)
    if kind == 6:
        # half the powers take a negated base printed bare: "-x^2" is (-x)^2
        if draw(st.booleans()):
            a = _negated(a)
        k = draw(st.integers(0, 3))
        fn = a[1]
        return f"{_operand(a, 3)}^{k}", (lambda *p: fn(*p) ** k), 2, a[3] * k
    b = draw(poly_texts(depth=depth + 1))
    fa, fb = a[1], b[1]
    if kind == 2:
        return (f"{_operand(a, 0)} + {_operand(b, 1)}",
                lambda *p: fa(*p) + fb(*p), 0, max(a[3], b[3]))
    if kind == 3:
        return (f"{_operand(a, 0)} - {_operand(b, 1)}",
                lambda *p: fa(*p) - fb(*p), 0, max(a[3], b[3]))
    return (f"{_operand(a, 1)}*{_operand(b, 2)}",
            lambda *p: fa(*p) * fb(*p), 1, a[3] + b[3])


small_polys = poly_texts().filter(lambda node: node[3] <= MAX_DEGREE)


@settings(max_examples=150, deadline=None)
@given(node=small_polys, x=st.integers(-5, 5), y=st.integers(-5, 5), z=st.integers(-5, 5))
def test_expansion_preserves_evaluation(node, x, y, z):
    text, fn, _, _ = node
    assert value(parse_poly(text), x, y, z) == fn(x, y, z)


@settings(max_examples=100, deadline=None)
@given(node=small_polys)
def test_canonical_string_reparses_with_negative_leading_term(node):
    mono = parse_poly(node[0])
    for signed in (mono, {e: -c for e, c in mono.items()}):
        assert parse_poly(canonical_str(signed)) == signed


@settings(max_examples=60, deadline=None)
@given(node=small_polys, n=st.integers(1, 6))
def test_table_matches_tree(node, n):
    # the factor y - z makes any f satisfy the vanishing condition
    text, fn, _, _ = node
    f = CochainFn.build(f"({text})*(y-z)", n)
    assert table_matches_terms(f)
    for x, y, z in itertools.product(range(n), repeat=3):
        assert f(x, y, z) == fn(x, y, z) * (y - z)


def table_matches_terms(f: CochainFn) -> bool:
    """Every table entry equals a fresh evaluation of f's monomials."""
    mono = parse_poly(f.canonical())
    return all(
        f(x, y, z) == value(mono, x, y, z)
        for x, y, z in itertools.product(range(f.n), repeat=3)
    )


# -- the vanishing condition -------------------------------------------------


def counterexample(f, n):
    """First (x, y, y) with f(x, y, y) != 0, scanning x then y, by
    evaluating f's monomials; None if the vanishing condition holds."""
    mono = parse_poly(f) if isinstance(f, str) else dict(f)
    return next(
        ((x, y, y) for x in range(n) for y in range(n) if value(mono, x, y, y)),
        None,
    )


def test_reference_functions_satisfy_condition(f3, f5, f4):
    for f in (f3, f5, f4):
        assert counterexample(f.canonical(), f.n) is None
        assert table_matches_terms(f)


def test_condition_counterexample():
    assert counterexample("x", 3) == (1, 0, 0)
    assert counterexample("0", 3) is None
    CochainFn.build("0", 3)
    with pytest.raises(SharpConditionError) as err:
        CochainFn.build("x", 3)
    assert err.value.triple == (1, 0, 0)


# -- f as a table --------------------------------------------------------------


def off_diagonal(n, value):
    """The n x n x n table, as lists, of value(x, y, z) where y != z and
    0 where y = z."""
    return [
        [[0 if y == z else value(x, y, z) for z in range(n)] for y in range(n)]
        for x in range(n)
    ]


def edited(table, at, new):
    """A deep copy of table with the item at the index path ``at``
    replaced by new."""
    out = copy.deepcopy(table)
    *path, last = at
    inner = out
    for i in path:
        inner = inner[i]
    inner[last] = new
    return out


def test_table_of_a_polynomial(f3, f5, f4):
    # each paper f's table, given as lists, is f under a table's name
    for f in (f3, f5, f4):
        lists = [[list(row) for row in plane] for plane in f.table]
        t = CochainFn.from_table(f.n, lists)
        assert (t.n, t.table) == (f.n, f.table)  # stored as tuples
        assert t.canonical() == t.name
        assert t.name.startswith("table:") and len(t.name) == len("table:") + 16
        assert CochainFn.from_table(f.n, t.table) == t


def test_table_that_no_polynomial_gives():
    # f = x(x - 1)/2 where y != z, n = 3: at y = 0, z = 1 an integer
    # polynomial would be p(x) with p(0) = p(1) = 0, so p = x(x - 1)q and
    # p(2) = 2q(2) is even, not 1
    f = CochainFn.from_table(3, off_diagonal(3, lambda x, y, z: x * (x - 1) // 2))
    assert [f(x, 0, 1) for x in range(3)] == [0, 0, 1]
    assert [f(x, 1, 1) for x in range(3)] == [0, 0, 0]


def test_tables_are_named_by_their_values(tmp_path):
    # a table's name is a hash of its values and never spells a
    # polynomial, so the zero table and the zero polynomial, which have
    # equal tables, get different names and cache entries too
    from tribound.cache import cache_path

    table = off_diagonal(3, lambda x, y, z: x * (x - 1) // 2)
    fns = [
        CochainFn.from_table(3, table),
        CochainFn.from_table(3, edited(table, (2, 0, 1), 2)),
        CochainFn.from_table(3, off_diagonal(3, lambda x, y, z: 0)),
        CochainFn.build("0", 3),
    ]
    assert len({f.name for f in fns}) == len({cache_path(f, tmp_path) for f in fns}) == 4


def test_from_table_checks():
    good = off_diagonal(3, lambda x, y, z: x - y)
    CochainFn.from_table(3, good)
    # the modulus, with build's errors
    with pytest.raises(ValueError, match=r"^modulus must be >= 1, got 0$"):
        CochainFn.from_table(0, [])
    with pytest.raises(ResourceCapExceeded, match=rf"^modulus {MAX_MODULUS + 1} past "):
        CochainFn.from_table(MAX_MODULUS + 1, [])
    # a modulus that is not an int, a bool included, refused by both
    # constructors before f is parsed or its table read
    for n in (3.0, True, False, "3", None):
        for make in (
            lambda: CochainFn.build("y-z", n),
            lambda: CochainFn.build("((", n),
            lambda: CochainFn.from_table(n, good),
            lambda: CochainFn.from_table(n, None),
        ):
            with pytest.raises(TypeError, match=rf"^modulus must be an int, got {n!r}$"):
                make()
    # the shape: the table, a plane or a row one short or one long
    for bad in (
        good[:2],
        good + [good[0]],
        edited(good, (1,), good[1][:2]),
        edited(good, (1,), good[1] + [good[1][0]]),
        edited(good, (1, 2), good[1][2][:2]),
        edited(good, (1, 2), good[1][2] + [0]),
    ):
        with pytest.raises(ValueError, match=r"^f's table is not 3 x 3 x 3$"):
            CochainFn.from_table(3, bad)
    # the entries: ints only, bools refused too
    for entry in (True, 1.0, "1", None):
        with pytest.raises(TypeError, match="not an int"):
            CochainFn.from_table(3, edited(good, (0, 0, 1), entry))
    # the size: as long as a polynomial within build's caps can reach at n
    bits = MAX_COEFF_BITS + MAX_DEGREE * 2
    for entry in (1 << (bits - 1), -(1 << (bits - 1))):
        assert CochainFn.from_table(3, edited(good, (0, 0, 1), entry))(0, 0, 1) == entry
    capped = rf"^f's table passes the {bits}-bit cap$"
    for entry in (1 << bits, -(1 << bits)):
        with pytest.raises(ResourceCapExceeded, match=capped):
            CochainFn.from_table(3, edited(good, (0, 0, 1), entry))
    # f(x, y, y) = 0, the first (x, y, y) in build's order named
    with pytest.raises(SharpConditionError) as err:
        CochainFn.from_table(3, edited(edited(good, (2, 1, 1), 5), (2, 2, 2), 1))
    assert (err.value.triple, err.value.value) == ((2, 1, 1), 5)


# -- evaluation --------------------------------------------------------------


def test_reference_values(f3, f5, f4):
    assert f3(2, 0, 2) == -8
    assert f3(2, 2, 1) == 0 and f3(2, 1, 0) == 0
    assert f5(4, 1, 2) == -12000
    assert f5(0, 1, 3) == -7776
    assert f5(4, 2, 1) == 648
    assert f4(2, 0, 3) == -26244
    assert f4(2, 3, 2) == 800
    assert f4(2, 2, 1) == 16
    for f, ref in zip((f3, f5, f4), REFERENCE_FUNCTIONS.values()):
        for x, y, z in itertools.product(range(f.n), repeat=3):
            assert f(x, y, z) == ref(x, y, z)


def test_condition_on_diagonal(f3, f5, f4):
    for f in (f3, f5, f4):
        for x in range(f.n):
            for y in range(f.n):
                assert f(x, y, y) == 0


# -- coboundary --------------------------------------------------------------


def test_delta_full_table(f3):
    for tup, want in DELTA_TABLE_N3.items():
        assert delta_f(f3, *tup) == want


def test_delta_anchor_values(f3):
    assert delta_f(f3, 0, 1, 0, 1) == 2
    assert delta_f(f3, 0, 2, 0, 1) == 11
    assert delta_f(f3, 1, 0, 1, 0) == 7
    assert delta_f(f3, 2, 1, 2, 1) == -2


def test_delta_degenerate_tuples_vanish(f3, f5, f4):
    # y=z and z=w force vanishing for every f with the vanishing
    # condition; x=y additionally needs f(p,p,r) = 0, which only the
    # n=3 function provides (its x-y factor)
    for f in (f3, f5, f4):
        n = f.n
        for x, y, z, w in itertools.product(range(n), repeat=4):
            if y == z or z == w:
                assert delta_f(f, x, y, z, w) == 0
    for x, z, w in itertools.product(range(3), repeat=3):
        assert delta_f(f3, x, x, z, w) == 0


def test_coboundary_vector_leaves_out_degenerate_triples():
    # g(t) is empty where y = z or z = w, and never holds a triple
    # (p, q, q), where every f is 0, or a zero count
    for n in range(1, 7):
        for t in itertools.product(range(n), repeat=4):
            g = coboundary_vector(n, *t)
            assert all(q != r and k for (_, q, r), k in g.items()), (n, t, g)
            if t[1] == t[2] or t[2] == t[3]:
                assert g == {}, (n, t, g)


def slide_identity(f, s, a, b, c):
    """The weight change produced by sliding a strand across a crossing
    pair, six terms through ``quandle_star``."""
    n = f.n
    return (
        f(s, a, b)
        + f(quandle_star(s, b, n), quandle_star(a, b, n), c)
        + f(s, b, c)
        - f(quandle_star(s, a, n), b, c)
        - f(s, a, c)
        - f(
            quandle_star(s, c, n),
            quandle_star(a, c, n),
            quandle_star(b, c, n),
        )
    )


def test_six_term_identity_matches_delta(f3, f5, f4, rng):
    # the slide identity equals <f, g(t)>, term for term, for the paper's
    # f and for random tables that no polynomial need give; delta_f is
    # that inner product
    tables = [
        CochainFn.from_table(n, off_diagonal(n, lambda x, y, z: rng.randint(-3, 3)))
        for n in [3, 4, 5] * 7
    ][:20]
    for f in (f3, f5, f4, *tables):
        for t in itertools.product(range(f.n), repeat=4):
            g = coboundary_vector(f.n, *t)
            inner = sum(k * f(*triple) for triple, k in g.items())
            assert inner == slide_identity(f, *t) == delta_f(f, *t), (f.name, t)


def test_image_delta(f3, f5, f4):
    im3 = image_delta(f3)
    assert im3 == (-8, -7, -5, -4, -2, -1, 0, 1, 2, 4, 5, 7, 11)
    assert len(image_delta(f5)) == EXPECTED["image_sizes"][5]
    assert len(image_delta(f4)) == EXPECTED["image_sizes"][4]
    for f in (f3, f5, f4):
        assert 0 in image_delta(f)


def test_image_delta_cap(f3, monkeypatch):
    # n^4 = 81 tuples at n = 3: the walk runs at the cap, and past it
    # raises before it reads f's table
    monkeypatch.setattr(cochain, "MAX_IMAGE_TUPLES", 81)
    assert image_delta(f3) == (-8, -7, -5, -4, -2, -1, 0, 1, 2, 4, 5, 7, 11)
    monkeypatch.setattr(cochain, "MAX_IMAGE_TUPLES", 80)
    with pytest.raises(ResourceCapExceeded, match="^modulus 3 past the cap 80 on the n"):
        image_delta(f3)
    monkeypatch.undo()
    assert cochain.MAX_IMAGE_TUPLES == 40**4
    with pytest.raises(ResourceCapExceeded, match="past the cap 2560000"):
        image_delta(SimpleNamespace(n=41))  # no table to read


def _seeded_f(seed: int) -> str:
    """A random quadratic times (y - z), so that f(x, y, y) = 0."""
    rng = random.Random(seed)
    c = [rng.randint(-5, 5) for _ in range(4)]
    return f"(y-z)*({c[0]}*x^2 + {c[1]}*x*y + {c[2]}*y*z + {c[3]})"


@pytest.mark.parametrize("f_str", [*REFERENCE_FUNCTIONS, _seeded_f(8)])
def test_image_delta_matches_delta_f(f_str):
    # image_delta reads a star table and hoists rows; delta_f is the
    # six-term formula evaluated one tuple at a time
    for n in range(1, 9):
        f = CochainFn.build(f_str, n)
        brute = {
            delta_f(f, *t) for t in itertools.product(range(n), repeat=4)
        }
        assert image_delta(f) == tuple(sorted(brute))


# -- level sets --------------------------------------------------------------


def test_delta_levels_n3(f3):
    reach = delta_reach(f3, 2)
    assert reach.levels[0] == (0,)
    assert reach.levels[1] == EXPECTED["delta1_n3"]
    assert 22 in reach.levels[2]  # 11 + 11


def test_levels_symmetric_and_nested(f3, f4):
    for f, m in ((f3, 3), (f4, 2)):
        reach = delta_reach(f, m)
        for lv in reach.levels:
            values = set(lv)
            assert values == {-v for v in values}
        for small, big in zip(reach.levels, reach.levels[1:]):
            assert set(small) <= set(big)


def test_sumset():
    assert sumset((0, 1), (0, 10)) == (0, 1, 10, 11)
    with mock.patch.object(cochain, "DEFAULT_LEVEL_CAP", 10):
        with pytest.raises(ResourceCapExceeded):
            sumset(range(100), range(100))


def _sumset_case(a, b, dense):
    """sumset(a, b) against the brute-force sum, with the kernel checked:
    a is passed as an iterator and b reversed, so neither is a sorted
    tuple.  A nonempty sum one element past ``DEFAULT_LEVEL_CAP`` must
    raise the same message on either kernel."""
    want = tuple(sorted({p + q for p in a for q in b}))
    spy = mock.patch.object(
        cochain, "_sumset_dense", wraps=cochain._sumset_dense
    )
    with spy as kernel:
        assert sumset(iter(a), b[::-1]) == want
        with mock.patch.object(cochain, "DEFAULT_LEVEL_CAP", len(want)):
            assert sumset(a, b) == want
        if want:
            with mock.patch.object(cochain, "DEFAULT_LEVEL_CAP", len(want) - 1), \
                    pytest.raises(ResourceCapExceeded) as err:
                sumset(a, b)
            assert str(err.value) == (
                f"sumset grew past the cardinality cap {len(want) - 1}"
            )
    assert kernel.called == (dense and bool(a) and bool(b))


@settings(max_examples=150, deadline=None)
@given(
    lo=st.integers(-10**6, 10**6),
    a=st.lists(st.integers(0, 300), max_size=60),
    b=st.lists(st.integers(-300, 300), max_size=60),
    chunk=st.integers(1, 9) | st.just(cochain._READ_CHUNK),
)
def test_sumset_dense_matches_brute_force(lo, a, b, chunk):
    # span at most 901 <= DENSE_FACTOR * |a| for any nonempty a; a read
    # chunk of a few bytes makes the read-back cross chunk boundaries
    assert 901 <= DENSE_FACTOR
    with mock.patch.object(cochain, "_READ_CHUNK", chunk):
        _sumset_case([lo + p for p in a], b, dense=True)


@settings(max_examples=150, deadline=None)
@given(
    a=st.lists(st.integers(-10**12, 10**12), max_size=20),
    b=st.lists(st.integers(-10**12, 10**12), max_size=20),
)
def test_sumset_sparse_matches_brute_force(a, b):
    # the two pinned values make the span at least 4e12, far past
    # DENSE_FACTOR * |a|
    a = a + [-(2 * 10**12), 2 * 10**12]
    _sumset_case(a, b, dense=False)
    _sumset_case([], a, dense=False)
    _sumset_case(a, [], dense=False)


def test_sumset_dense_factor_boundary():
    # span 1025 over |a| = 1 is sparse, span 1024 is dense
    with mock.patch.object(
        cochain, "_sumset_dense", wraps=cochain._sumset_dense
    ) as kernel:
        assert sumset((0,), (0, DENSE_FACTOR)) == (0, DENSE_FACTOR)
        assert not kernel.called
        assert sumset((5,), (0, DENSE_FACTOR - 1)) == (5, DENSE_FACTOR + 4)
        assert kernel.called


def _size_case(a, b, dense):
    """sumset_size(a, b) against len(sumset(a, b)), with the kernel
    checked, and the cap raising the exact sumset message one element
    below the size and passing at the size."""
    size = len(sumset(a, b))
    spy = mock.patch.object(cochain, "_dense_mask", wraps=cochain._dense_mask)
    with spy as kernel:
        assert sumset_size(iter(a), b[::-1]) == size
        with mock.patch.object(cochain, "DEFAULT_LEVEL_CAP", size):
            assert sumset_size(a, b) == size
        if size:
            with mock.patch.object(cochain, "DEFAULT_LEVEL_CAP", size - 1), \
                    pytest.raises(ResourceCapExceeded) as err:
                sumset_size(a, b)
            assert str(err.value) == (
                f"sumset grew past the cardinality cap {size - 1}"
            )
    assert kernel.called == (dense and bool(a) and bool(b))


@settings(max_examples=150, deadline=None)
@given(
    lo=st.integers(-10**6, 10**6),
    a=st.lists(st.integers(0, 300), max_size=60),
    b=st.lists(st.integers(-300, 300), max_size=60),
)
def test_sumset_size_dense_matches_sumset(lo, a, b):
    # span at most 901 <= DENSE_FACTOR * |a|, as in the sumset test
    _size_case([lo + p for p in a], b, dense=True)


@settings(max_examples=150, deadline=None)
@given(
    a=st.lists(st.integers(-10**12, 10**12), max_size=20),
    b=st.lists(st.integers(-10**12, 10**12), max_size=20),
    small=st.lists(st.integers(-3, 3), max_size=8),
    budget=st.integers(1, 8) | st.just(cochain.PAIR_BUDGET),
)
def test_sumset_size_sparse_matches_sumset(a, b, small, budget):
    # the pinned values make the span at least 4e12, far past
    # DENSE_FACTOR * |a|; ``small`` repeats values and sums, so a range
    # one value wide can hold more pairs than a budget of a few pairs,
    # and such a budget splits the count into many ranges
    a = a + small + [-(2 * 10**12), 2 * 10**12]
    b = b + small
    with mock.patch.multiple(cochain, PAIR_BUDGET=budget, PAIRS_PER_VALUE=0):
        _size_case(a, b, dense=False)
        _size_case([], a, dense=False)
        _size_case(a, [], dense=False)


def test_sumset_size_counts_paper_levels(f5):
    # |Delta_2| = |Delta_1 + Delta_1| on the sparse path, one range or many
    reach = delta_reach(f5, 1)
    level1 = reach.levels[1]
    assert sumset_size(level1, level1) == 238689
    with mock.patch.multiple(cochain, PAIR_BUDGET=1000, PAIRS_PER_VALUE=0):
        assert sumset_size(level1, level1) == 238689


def _symmetric(values, zero):
    """Sorted {+v, -v} over values, with 0 if ``zero``."""
    return sorted({w for v in values for w in (v, -v)} | ({0} if zero else set()))


@settings(max_examples=100, deadline=None)
@given(
    xs=st.lists(st.integers(1, 10**12), max_size=6),
    ys=st.lists(st.integers(1, 10**12), max_size=6),
    small=st.lists(st.integers(1, 3), max_size=4),
    zeros=st.tuples(st.booleans(), st.booleans()),
    other=st.lists(st.integers(-10**12, 10**12), max_size=6),
    budget=st.integers(1, 8),
)
def test_sumset_size_symmetric_and_equal_operands(xs, ys, small, zeros, other, budget):
    # every Delta level is symmetric and every even level sums a level with
    # itself; random sets are neither.  The pinned 2e12 makes each sum
    # sparse, and ``small`` repeats sums, so a one-value range can pass a
    # budget of a few pairs.  Each case goes through the cap check of
    # _size_case, so the count must hold at the size and raise below it.
    far = 2 * 10**12
    a = _symmetric(xs + small + [far], zeros[0])
    b = _symmetric(ys + small + [far], zeros[1])
    lopsided = other + small + [0, far]  # never symmetric: -far is missing
    with mock.patch.multiple(cochain, PAIR_BUDGET=budget, PAIRS_PER_VALUE=0):
        _size_case(a, b, dense=False)  # symmetric, 0 a sum iff a, b meet
        _size_case(a, a, dense=False)  # symmetric and equal
        _size_case(a, lopsided, dense=False)  # one symmetric operand
        _size_case(lopsided, a, dense=False)
        _size_case(lopsided, lopsided, dense=False)  # equal only


class _Summand(int):
    """An int that counts the sums formed with it on the left."""

    sums = 0

    def __add__(self, other):
        _Summand.sums += 1
        return int(self) + other


@pytest.mark.parametrize(
    "values", [(-10**9, -4, 0, 4, 10**9), (-10**9, -5, -4, 3, 5, 10**9, 10**10)]
)
def test_sumset_size_forms_each_unordered_sum_once(values):
    # equal operands: row p of the count starts at q = p, so it forms the
    # sums p + q with p <= q, and a symmetric sum only its negative ones;
    # the two more are the ends of the sum, a[0] + b[0] and a[-1] + b[-1]
    pairs = [(p, q) for p in values for q in values if p <= q]
    if values == tuple(-v for v in reversed(values)):
        pairs = [(p, q) for p, q in pairs if p + q < 0]
    _Summand.sums = 0
    level = tuple(map(_Summand, values))
    assert sumset_size(level, level) == len(sumset(values, values))
    assert _Summand.sums == len(pairs) + 2


@pytest.mark.parametrize(
    "values", [(-10**9, -4, 0, 4, 10**9), (-10**9, -5, -4, 3, 5, 10**9, 10**10)]
)
def test_sumset_forms_each_unordered_sum_once(values):
    # the walk that builds a sparse sum forms the same sums as the count:
    # for equal operands those p + q with p <= q, for a symmetric sum only
    # the negative ones, plus the two ends, never all |a| * |b| of them
    pairs = [(p, q) for p in values for q in values if p <= q]
    if values == tuple(-v for v in reversed(values)):
        pairs = [(p, q) for p, q in pairs if p + q < 0]
    _Summand.sums = 0
    level = tuple(map(_Summand, values))
    assert sumset(level, level) == tuple(sorted({p + q for p in values for q in values}))
    assert _Summand.sums == len(pairs) + 2


def test_sumset_size_working_set(f5):
    # |Delta_1 + Delta_1| = 238689 for the d3/d4 function at n = 5: the
    # sets of sums in hand stay within a pair budget of 8 * 701 pairs
    level1 = delta_reach(f5, 1).levels[1]
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert sumset_size(level1, level1) == 238689
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 1.5 * 2**20


def _traced_peak(fn, *args):
    """fn(*args) and the peak of traced memory above its start."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def test_sumset_size_holds_one_range_at_a_time(f5):
    # with a budget of 2^16 pairs a range's set of distinct sums takes
    # about 4 MiB; the count drops it before it builds the next one, where
    # two alive at once would peak near 7 MiB
    level1 = delta_reach(f5, 1).levels[1]
    with mock.patch.multiple(cochain, PAIR_BUDGET=2**16, PAIRS_PER_VALUE=0):
        size, peak = _traced_peak(sumset_size, level1, level1)
    assert size == 238689
    assert peak < 5 * 2**20


def test_sumset_working_set(f5):
    # Delta_2 = Delta_1 + Delta_1 of the d3/d4 function at n = 5 is built by
    # the sparse walk.  Its 238 689 values take about 9.1 MiB as a tuple;
    # the walk adds its negative half and mirror lists, about 2 MiB, and
    # the bound leaves no room for a set of the whole sum besides.
    level1 = delta_reach(f5, 1).levels[1]
    level2, peak = _traced_peak(sumset, level1, level1)
    assert len(level2) == 238689
    assert peak < 14 * 2**20


def test_level_cap(f3, monkeypatch):
    monkeypatch.setattr(cochain, "DEFAULT_LEVEL_CAP", 5)
    with pytest.raises(ResourceCapExceeded):
        delta_reach(f3, 2)
    # Delta_1 is +/- Im df itself, 15 values, held to the cap as a sum is
    monkeypatch.setattr(cochain, "DEFAULT_LEVEL_CAP", 15)
    assert len(delta_reach(f3, 1).levels[1]) == 15
    monkeypatch.setattr(cochain, "DEFAULT_LEVEL_CAP", 14)
    with pytest.raises(
        ResourceCapExceeded, match=r"^sumset grew past the cardinality cap 14$"
    ):
        delta_reach(f3, 1)


def test_sparse_walk_memory_cap(f5, monkeypatch):
    # {0} + (+/- Im df) of the d3/d4 function is 701 values from the sparse
    # walk; the walk raises once values * SET_BYTES_PER_VALUE pass
    # SET_BYTES_CAP, well below the cardinality cap
    pm_im = sorted({v for k in image_delta(f5) for v in (k, -k)})
    per = cochain.SET_BYTES_PER_VALUE
    monkeypatch.setattr(cochain, "SET_BYTES_CAP", 701 * per)
    assert len(cochain.sumset((0,), pm_im)) == 701
    monkeypatch.setattr(cochain, "SET_BYTES_CAP", 700 * per)
    with pytest.raises(ResourceCapExceeded, match="past 700 values.*memory cap"):
        cochain.sumset((0,), pm_im)


def test_memory_cap_spares_the_count(f3, f5, monkeypatch):
    # the walk holds no values when it only counts, so sumset_size counts
    # past the byte cap that stops a build of the same sum; so does the
    # bitmask kernel, which reads no value back to count
    pm_im = sorted({v for k in image_delta(f5) for v in (k, -k)})
    monkeypatch.setattr(cochain, "SET_BYTES_CAP", 700 * cochain.SET_BYTES_PER_VALUE)
    assert sumset_size((0,), pm_im) == 701
    with pytest.raises(ResourceCapExceeded, match="memory cap"):
        sumset((0,), pm_im)
    level1 = delta_reach(f3, 1).levels[1]
    assert cochain._is_dense(level1, level1)
    monkeypatch.setattr(cochain, "SET_BYTES_CAP", 38 * cochain.SET_BYTES_PER_VALUE)
    assert sumset_size(level1, level1) == 39


def test_dense_build_memory_cap(f3, monkeypatch):
    # Delta_1 + Delta_1 of (x-y)(y-z)z at n = 3 is 39 values from the
    # bitmask kernel, which raises past the byte cap before its read-back
    level1 = delta_reach(f3, 1).levels[1]
    per = cochain.SET_BYTES_PER_VALUE
    with mock.patch.object(cochain, "_walk") as walk:
        monkeypatch.setattr(cochain, "SET_BYTES_CAP", 39 * per)
        assert len(sumset(level1, level1)) == 39
        monkeypatch.setattr(cochain, "SET_BYTES_CAP", 38 * per)
        with pytest.raises(ResourceCapExceeded, match="past 38 values.*memory cap"):
            sumset(level1, level1)
    walk.assert_not_called()


def test_levels_held_memory_cap(f3, monkeypatch):
    # Delta_0..Delta_2 of (x-y)(y-z)z at n = 3 hold 1 + 15 + 39 = 55
    # values: each level is within a 54-value byte cap, their sum is not
    per = cochain.SET_BYTES_PER_VALUE
    monkeypatch.setattr(cochain, "SET_BYTES_CAP", 55 * per)
    assert [len(lv) for lv in delta_reach(f3, 2).levels] == [1, 15, 39]
    monkeypatch.setattr(cochain, "SET_BYTES_CAP", 54 * per)
    with pytest.raises(ResourceCapExceeded, match="past 54 values.*memory cap"):
        delta_reach(f3, 2)
    # Delta_1, taken as +/- Im df without a sum, counts too
    monkeypatch.setattr(cochain, "SET_BYTES_CAP", 16 * per)
    assert len(delta_reach(f3, 1).levels) == 2
    monkeypatch.setattr(cochain, "SET_BYTES_CAP", 15 * per)
    with pytest.raises(ResourceCapExceeded, match="memory cap"):
        delta_reach(f3, 1)


def test_reach_memo_extends(f5):
    r1 = delta_reach(f5, 1)
    r2 = delta_reach(f5, 2)
    assert r2.levels[: 2] == r1.levels
    assert len(r2.levels) == 3


def _digest(values) -> str:
    return hashlib.sha256(json.dumps(list(values)).encode()).hexdigest()


def test_paper_d3_levels_pinned(f5):
    # Delta_1 and Delta_2 of the d3/d4 function, as built by the set loop
    # alone before the bitmask kernel existed.  Delta_2 spans 7.4e7 for
    # 238 689 values, so both levels stay on the sparse walk.
    with mock.patch.object(
        cochain, "_sumset_dense", wraps=cochain._sumset_dense
    ) as kernel:
        levels = delta_reach(f5, 2).levels
    assert not kernel.called
    assert tuple(len(lv) for lv in levels) == (1, 701, 238689)
    assert _digest(levels[1]) == (
        "f2b59f069fcc85158547de112c888f54af8ecab1d4a282636766a2f5b0d5c45f"
    )
    assert _digest(levels[2]) == (
        "a7495555bb5443f117f4815b5b0b468806e944f1587a2ede6e5eb71c1c7e1f79"
    )


def test_dense_levels_match_sparse_walk(monkeypatch):
    f = CochainFn.build("(x-y)*(y-z)*z", 7)
    dense = delta_reach(f, 3).levels
    monkeypatch.setattr(cochain, "DENSE_FACTOR", 0)
    assert delta_reach(f, 3).levels == dense
