"""Tests of the benchmark's reference computations against the definitions.

    python3 bench/test_oracles.py          # or: python3 -m pytest bench/test_oracles.py

The integer oracles in oracles.py are checked here, on small r, against the
Fraction definitions they replace.  None of this imports toricsing.
"""
from __future__ import annotations

import itertools
import os
import sys
from fractions import Fraction
from math import gcd

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles as O  # noqa: E402


def test_age_oracle_matches_fraction_sums():
    for r in range(1, 13):
        for w in itertools.product(range(r), repeat=3):
            kind, k, min_age = O.age_verdict(r, w)
            assert (kind, k) == O.fraction_verdict(r, w), (r, w)
            if kind == "terminal" and r > 1:
                sums = [sum(Fraction(j * a % r, r) for a in w) for j in range(1, r)]
                assert Fraction(min_age - r, r) == min(sums) - 1


def test_orbit_min_is_the_least_image_over_units_and_permutations():
    for r in range(1, 13):
        units = [u for u in range(1, max(r, 2)) if gcd(u, r) == 1]
        assert O.units(r) == units
        for w in itertools.product(range(r), repeat=3):
            brute = min(
                p
                for u in units
                for p in itertools.permutations(tuple(u * a % r for a in w))
            )
            assert O.orbit_min(r, w) == brute, (r, w)


def test_plt_inequality_matches_fractions():
    for case in range(1, 9):
        for p in O.plt_candidates(case, 7):
            a, d, gamma = O.plt_shape(case, p)
            neg = sum(a) - gamma - sum(Fraction(di - 1, di) * ai for ai, di in zip(a, d))
            assert O.plt_ample(case, p) == (neg > 0)
            ample, log_degree = O.triple_expect(a, d, gamma)
            assert ample == (neg > 0)
            assert log_degree == -neg * Fraction(gamma, a[0] * a[1] * a[2])


def test_discrepancy_functional_matches_closed_forms():
    for w in itertools.product(range(1, 6), repeat=3):
        assert O.a_s0(("smooth",), w) == sum(w) - 1
        for r in range(2, 6):
            for q in O.units(r):
                want = Fraction(w[2] + (r * w[1] - q * w[2]) + (r * w[0] - w[2]), r) - 1
                assert O.a_s0(("cyclic", r, q), w) == want
    for w1, w2, w3 in itertools.product(range(1, 6), repeat=3):
        w4 = w1 + w2 - w3
        if w4 >= 1:
            assert O.a_s0(("odp",), (w1, w2, w3, w4)) == w1 + w2 - 1


def test_kawakita_set_matches_age_oracle_on_charts():
    # terminal smooth-point blow-ups: every chart terminal and a(S,0) > 0
    for bound in range(1, 8):
        found = set()
        for w in itertools.product(range(1, bound + 1), repeat=3):
            if not w[0] >= w[1] >= w[2] or O.content(w) != 1:
                continue
            charts = O.chart_formulas(("smooth",), w)
            if all(O.age_verdict(r, a)[0] == "terminal" for r, a in charts):
                found.add(w)
        assert found == O.smooth_terminal_hits(bound)


def test_table_row_counts_match_enumerated_families():
    for b in range(1, 16):
        a_rows = {
            (a1, a2, q3)
            for q3 in range(1, b + 1)
            for a1 in range(1, b + 1)
            for a2 in range(1, a1 + 1)
            if gcd(a1, a2) == 1 and a1 * q3 <= b
        }
        d_rows = list(range(2, b + 1)) * 2 + list(range(2, b))
        e_rows = [w for w in O.CANONICAL_E_ROWS if max(w) <= b]
        assert O.canonical_triples_rows(b) == len(a_rows) + len(d_rows) + len(e_rows)
        assert O.canonical_smooth_rows(b) == len(O.smooth_canonical_hits(b))


def test_gamma_tilde_from_numerators_matches_fractions():
    for g2, pair, ap1 in itertools.product(
        (Fraction(4), Fraction(49, 6), Fraction(2048, 189)),
        (Fraction(-6), Fraction(-28, 3), Fraction(-320, 27)),
        (Fraction(3), Fraction(17, 2)),
    ):
        for b1, b2 in ((1, 1), (2, 1), (1, 2), (3, 2)):
            assert O.gamma_tilde_sq(g2, pair, ap1, b1, b2) == b1 * pair / ap1 - b2 * g2


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    for name, fn in tests:
        fn()
        print("ok", name)
    print("%d oracle tests passed" % len(tests))
