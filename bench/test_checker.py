"""Tests of the independent checker: it rebuilds published numbers from
scratch.  Run with ``python3 -m unittest discover -s bench``."""

from __future__ import annotations

import unittest

import checker
import inputs

# The 24 non-degenerate coboundary values of (x-y)*(y-z)*z over Z(3),
# as published with the source paper; every degenerate tuple gives 0.
PUBLISHED_DF_N3 = {
    (0, 1, 0, 1): 2, (0, 1, 0, 2): 7, (0, 1, 2, 0): 4, (0, 1, 2, 1): -1,
    (0, 2, 0, 1): 11, (0, 2, 0, 2): 7, (0, 2, 1, 0): -4, (0, 2, 1, 2): -8,
    (1, 0, 1, 0): 7, (1, 0, 1, 2): 5, (1, 0, 2, 0): -2, (1, 0, 2, 1): -4,
    (1, 2, 0, 1): 4, (1, 2, 0, 2): -4, (1, 2, 1, 0): 1, (1, 2, 1, 2): -7,
    (2, 0, 1, 0): 2, (2, 0, 1, 2): 4, (2, 0, 2, 0): -7, (2, 0, 2, 1): -5,
    (2, 1, 0, 1): -5, (2, 1, 0, 2): -4, (2, 1, 2, 0): -1, (2, 1, 2, 1): -2,
}
F3 = "(x-y)*(y-z)*z"
F5 = "(x+y)^3*(y+z)*(y-z)^3*z^5"
F4 = "(x+y)^2*(y-z)^3*z^5"


class FStrings(unittest.TestCase):
    def test_precedence(self):
        f = checker.compile_f("1 + 2*x^2 - (y - z)*3")
        self.assertEqual(f(2, 5, 1), 1 + 8 - 12)

    def test_unary_minus_binds_to_the_base(self):
        # the tribound grammar reads -x^2 as (-x)^2
        self.assertEqual(checker.compile_f("-x^2")(3, 0, 0), 9)
        self.assertEqual(checker.compile_f("0-x^2")(3, 0, 0), -9)
        self.assertEqual(checker.compile_f("-(x+y)^3")(1, 1, 0), -8)
        self.assertEqual(checker.compile_f("2*-y^(2)")(0, 3, 0), 18)

    def test_rejects_garbage(self):
        for text in ("x+", "(x", "w", "x^"):
            with self.assertRaises((ValueError, IndexError)):
                checker.compile_f(text)(1, 1, 1)


class Coboundary(unittest.TestCase):
    def test_n3_table(self):
        t = checker.value_table(checker.compile_f(F3), 3)
        for x in range(3):
            for y in range(3):
                for z in range(3):
                    for w in range(3):
                        got = checker.coboundary(t, 3, x, y, z, w)
                        self.assertEqual(got, PUBLISHED_DF_N3.get((x, y, z, w), 0))

    def test_n3_delta1(self):
        lv = checker.Levels(checker.compile_f(F3), 3)
        want = {0, 1, -1, 2, -2, 4, -4, 5, -5, 7, -7, 8, -8, 11, -11}
        self.assertEqual(lv.level(1), want)

    def test_image_sizes(self):
        for text, n, size in ((F5, 5, 393), (F4, 4, 105)):
            t = checker.value_table(checker.compile_f(text), n)
            self.assertEqual(len(checker.image(t, n)), size)

    def test_sumset_paths_agree(self):
        dense, sparse = set(range(-40, 41, 3)), {-10**6, 5, 7, 10**6}
        for a in (dense, sparse):
            for b in (dense, sparse, {0}):
                self.assertEqual(checker.sumset(a, b), {p + q for p in a for q in b})

    def test_meet_in_the_middle_matches_materialised_levels(self):
        lv = checker.Levels(checker.compile_f(F3), 3)
        top = lv.level(4)
        for k in range(5):
            for d in range(min(top) - 2, max(top) + 3):
                self.assertEqual(lv.member(d, k), d in lv.level(k), (d, k))


class Diagrams(unittest.TestCase):
    def test_trefoil_and_figure_eight_counts(self):
        trefoil = inputs.closure(2, [(0, "L")] * 3, "t")
        fig8 = inputs.closure(3, [(0, "L"), (1, "R"), (0, "L"), (1, "R")], "e")
        self.assertEqual(checker.coloring_count(trefoil, 3), 9)
        self.assertEqual(checker.coloring_count(trefoil, 5), 5)
        self.assertEqual(checker.coloring_count(fig8, 5), 25)
        self.assertEqual(checker.coloring_count(fig8, 3), 3)

    def test_rank_is_relabeling_invariant(self):
        code = inputs.closure(3, [(0, "L"), (1, "L"), (0, "R"), (1, "L")] * 3, "k")
        shuffled = inputs.shuffle(code, inputs.Random(7))
        for p in (2, 3, 5, 7):
            self.assertEqual(
                checker.coloring_count(code, p), checker.coloring_count(shuffled, p)
            )

    def test_kernel_vectors_are_colorings(self):
        code = inputs.closure(3, [(0, "L"), (1, "L"), (0, "R"), (1, "L")] * 3, "k")
        rows, arc_count = checker.coloring_rows(code)
        for p in (3, 5, 7):
            basis = checker.kernel_mod_p(rows, arc_count, p)
            self.assertEqual(len(basis), arc_count - checker.rank_mod_p(rows, p))
            for v in basis:
                self.assertTrue(checker.is_coloring(code, v, p))

    def test_colorings_at_composite_n(self):
        # the trefoil has n*gcd(n, 3) Fox n-colorings, the figure-eight n*gcd(n, 5)
        trefoil = inputs.closure(2, [(0, "L")] * 3, "t")
        fig8 = inputs.closure(3, [(0, "L"), (1, "R"), (0, "L"), (1, "R")], "e")
        self.assertEqual(len(checker.colorings(trefoil, 6)), 18)
        self.assertEqual(len(checker.colorings(trefoil, 4)), 4)
        self.assertEqual(len(checker.colorings(fig8, 10)), 50)
        self.assertEqual(len(checker.colorings(fig8, 5)), 25)

    def test_published_phi_sets(self):
        d2 = inputs.closure(*inputs.PAPER["d2"][:2], "d2", inputs.PAPER["d2"][2])
        d6 = inputs.closure(*inputs.PAPER["d6"][:2], "d6", inputs.PAPER["d6"][2])
        self.assertEqual(checker.phi(d2, 0, 3, checker.compile_f(F3)), [-2, 2])
        self.assertEqual(
            checker.phi(d6, 0, 4, checker.compile_f(F4)), [-3744, -1004, 0, 292]
        )

    def test_weights_are_relabeling_invariant_and_vanish_on_trivial_colorings(self):
        code = inputs.closure(3, [(0, "L"), (1, "L"), (0, "R"), (1, "L")] * 3, "k")
        outer = inputs.unique_faces(code)[2]
        code = {**code, "outer_face": outer}
        shuffled = inputs.shuffle(code, inputs.Random(7))
        f = checker.compile_f(F3)
        for s in range(3):
            self.assertEqual(checker.phi(code, s, 3, f), checker.phi(shuffled, s, 3, f))
            w = checker.weigher(code, s, 3, f)
            arc_count = checker.coloring_rows(code)[1]
            self.assertEqual([w([c] * arc_count) for c in range(3)], [0, 0, 0])

    def test_signs(self):
        fig8 = inputs.closure(3, [(0, "L"), (1, "R"), (0, "L"), (1, "R")], "e")
        self.assertEqual(list(checker.signs(fig8).values()), [1, -1, 1, -1])


if __name__ == "__main__":
    unittest.main()
