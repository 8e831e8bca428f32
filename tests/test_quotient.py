"""Cyclic quotient germs: age profiles, the canonical/terminal verdicts,
the closed-form three-case test, and normalization."""
import contextlib
import io
import time
from fractions import Fraction
from itertools import permutations
from math import floor, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricsing.cli import main
from toricsing.lattice import Cone
from toricsing.quotient import (
    CyclicQuotientType,
    canonical_by_criterion,
    has_opposite_weight_pair,
    is_canonical,
    is_terminal,
    minimal_discrepancy,
    normalize,
    quotient_type,
    reid_tai_profile,
)

F = Fraction


def test_reid_tai_profile_examples():
    assert reid_tai_profile(CyclicQuotientType(2, (1, 1, 1))) == [F(3, 2)]
    assert reid_tai_profile(CyclicQuotientType(5, (4, 3, 1))) == [
        F(8, 5),
        F(6, 5),
        F(9, 5),
        F(7, 5),
    ]
    assert min(reid_tai_profile(CyclicQuotientType(9, (1, 4, 7)))) == 1


def test_verdicts_examples():
    v = is_canonical(CyclicQuotientType(9, (1, 4, 7)))
    assert v.kind == "canonical-not-terminal"
    v = is_canonical(CyclicQuotientType(14, (1, 9, 11)))
    assert v.kind == "canonical-not-terminal"
    # the age at k = 1 is exactly 1 here
    v = is_canonical(CyclicQuotientType(5, (1, 2, 2)))
    assert v.kind == "canonical-not-terminal"
    assert v.witness_k == 1


def test_is_terminal_examples():
    assert is_terminal(CyclicQuotientType(5, (2, 4, 1)))
    assert is_terminal(CyclicQuotientType(1, (0, 0, 0)))
    assert not is_terminal(CyclicQuotientType(9, (1, 4, 7)))


def test_minimal_discrepancy_examples():
    assert minimal_discrepancy(CyclicQuotientType(5, (2, 4, 1))) == F(1, 5)
    assert minimal_discrepancy(CyclicQuotientType(2, (1, 1, 1))) == F(1, 2)
    assert minimal_discrepancy(CyclicQuotientType(7, (3, 4, 1))) == F(1, 7)


def test_criterion_on_well_formed_types():
    # integral ages
    assert canonical_by_criterion(CyclicQuotientType(3, (1, 1, 1)))
    # opposite pair
    assert canonical_by_criterion(CyclicQuotientType(5, (2, 3, 1)))
    # the two exceptional types
    assert canonical_by_criterion(CyclicQuotientType(9, (1, 4, 7)))
    assert canonical_by_criterion(CyclicQuotientType(14, (1, 9, 11)))
    assert not canonical_by_criterion(CyclicQuotientType(7, (1, 2, 3)))


def test_criterion_strictly_stronger_off_well_formed():
    """1/8(3,2,7) is canonical in the age sense but meets none of the three
    closed-form cases (gcd(2,8) = 2 spoils the opposite-pair route)."""
    t = CyclicQuotientType(8, (3, 2, 7))
    assert is_canonical(t).kind in ("canonical-not-terminal", "terminal")
    assert not canonical_by_criterion(t)


def test_quotient_type_examples():
    t = quotient_type(Cone(((1, 0, 0), (0, 1, 0), (1, 2, 5))))
    assert normalize(t) == normalize(CyclicQuotientType(5, (4, 3, 1)))
    smooth = quotient_type(Cone(((1, 0, 0), (0, 1, 0), (0, 0, 1))))
    assert smooth.r == 1
    # generator order does not matter
    s = quotient_type(Cone(((0, 1, 0), (1, 2, 5), (1, 0, 0))))
    assert normalize(s) == normalize(t)


def test_zero_r_rejected():
    with pytest.raises(ValueError):
        CyclicQuotientType(0, (1, 1, 1))


small_type = st.builds(
    CyclicQuotientType,
    st.integers(min_value=1, max_value=40),
    st.tuples(
        st.integers(min_value=0, max_value=39),
        st.integers(min_value=0, max_value=39),
        st.integers(min_value=0, max_value=39),
    ),
)


@settings(max_examples=1000, deadline=None)
@given(small_type)
def test_normalize_preserves_verdicts(t):
    n = normalize(t)
    assert normalize(n) == n
    assert is_canonical(n).kind == is_canonical(t).kind
    assert is_terminal(n) == is_terminal(t)


@settings(max_examples=300, deadline=None)
@given(small_type)
def test_profile_entries_bounded_and_paired(t):
    """Ages lie in [0, 3), positive for faithful actions; on well-formed
    types the k and r-k ages sum to 3."""
    prof = reid_tai_profile(t)
    assert len(prof) == max(t.r - 1, 0) or t.r == 1
    faithful = gcd(gcd(gcd(*t.weights), t.r), t.r) == 1
    for x in prof:
        assert 0 <= x < 3
        if faithful:
            assert x > 0
    if t.is_well_formed and t.r > 1:
        for k in range(1, t.r):
            s = prof[k - 1] + prof[t.r - k - 1]
            assert s.denominator == 1 and s == 3


@settings(max_examples=300, deadline=None)
@given(small_type, st.integers(min_value=1, max_value=39))
def test_verdict_invariant_under_unit_scaling(t, u):
    if gcd(u, t.r) != 1:
        return
    s = CyclicQuotientType(t.r, tuple((u * a) % t.r for a in t.weights))
    assert normalize(s) == normalize(t)
    assert is_canonical(s).kind == is_canonical(t).kind


# --- brute-force reference: Fraction ages and the full orbit scan -----------


def ref_ages(r, w):
    """Sum over the weights of the fractional part <k*a/r>, k = 1..r-1."""
    return [
        sum(Fraction(k * a, r) - floor(Fraction(k * a, r)) for a in w)
        for k in range(1, r)
    ]


def ref_normalize(r, w):
    if r == 1:
        return (0, 0, 0)
    return min(
        p
        for u in range(1, r)
        if gcd(u, r) == 1
        for p in permutations(tuple(u * a % r for a in w))
    )


def ref_verdict(ages):
    for k, s in enumerate(ages, 1):
        if s < 1:
            return ("not-canonical", k)
    for k, s in enumerate(ages, 1):
        if s == 1:
            return ("canonical-not-terminal", k)
    return ("terminal", None)


def check_against_reference(r, w):
    t = CyclicQuotientType(r, w)
    w = t.weights
    ages = ref_ages(r, w)
    normal = ref_normalize(r, w)
    verdict = ref_verdict(ages)
    assert normalize(t).weights == normal, t
    v = is_canonical(t)
    assert (v.kind, v.witness_k) == verdict, t
    # minimal discrepancy: min age - 1 on well-formed terminal types only
    if r == 1:
        md = F(1)
    elif t.is_well_formed and verdict[0] == "terminal":
        md = min(ages) - 1
    else:
        md = None
    try:
        assert minimal_discrepancy(t) == md, t
    except ValueError:
        assert md is None, t
    assert is_terminal(t) == (verdict[0] == "terminal"), t
    criterion = (
        all(s.denominator == 1 for s in ages)
        or any((w[i] + w[j]) % r == 0 for i in range(3) for j in range(i + 1, 3))
        or (r, normal) in ((9, (1, 4, 7)), (14, (1, 9, 11)))
    )
    assert canonical_by_criterion(t) == criterion, t
    assert reid_tai_profile(t) == ages, t


def test_kernel_matches_reference_exhaustively_r_le_16():
    """Every type with r <= 16: zero weights and non-well-formed included."""
    for r in range(1, 17):
        for a in range(r):
            for b in range(r):
                for c in range(r):
                    check_against_reference(r, (a, b, c))


def test_exceptional_types_are_normal_forms():
    for r, w in ((9, (1, 4, 7)), (14, (1, 9, 11))):
        t = CyclicQuotientType(r, w)
        assert normalize(t) == t


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=2, max_value=300).flatmap(
        lambda r: st.tuples(
            st.just(r),
            st.tuples(*[st.integers(min_value=0, max_value=r - 1)] * 3),
        )
    )
)
def test_kernel_matches_reference_up_to_r_300(rw):
    check_against_reference(*rw)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=2, max_value=300).flatmap(
        lambda r: st.tuples(
            st.just(r),
            st.tuples(*[st.sampled_from([u for u in range(1, r) if gcd(u, r) == 1])] * 3),
        )
    )
)
def test_kernel_matches_reference_on_well_formed_up_to_r_300(rw):
    """Well-formed types take the closed-form path; random weights rarely
    land there at larger r, so they get their own draw."""
    check_against_reference(*rw)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_classify_at_r_1e9_plus_7():
    """Well-formed types are O(1): a prime order near 10^9 answers at once.
    The normal forms check by hand: the three candidate units are the
    inverses of the weights."""
    t0 = time.perf_counter()
    terminal = run_cli(["classify", "--quotient", "1000000007,3,1000000004,5"])
    gorenstein = run_cli(["classify", "--quotient", "1000000007,2,4,1000000001"])
    elapsed = time.perf_counter() - t0
    assert terminal == (
        0,
        "input: 1/1000000007(3,1000000004,5)\n"
        "normalized: 1/1000000007(1,200000002,800000005)\n"
        "verdict: terminal\n"
        "minimal_discrepancy: 1/1000000007\n",
        "",
    )
    assert gorenstein == (
        0,
        "input: 1/1000000007(2,4,1000000001)\n"
        "normalized: 1/1000000007(1,2,1000000004)\n"
        "verdict: canonical-not-terminal\n"
        "witness_k: 1\n",
        "",
    )
    assert elapsed < 1.0, elapsed


def test_normalize_of_non_faithful_type_at_huge_r():
    """Scaled weights depend on the unit only modulo r/gcd(r, a1, a2, a3),
    so a non-faithful type with a large common factor normalizes at once."""
    t0 = time.perf_counter()
    t = CyclicQuotientType(2 * 10**9, (10**9, 10**9, 10**9))
    assert normalize(t) == t
    s = CyclicQuotientType(6 * 10**8, (2 * 10**8, 4 * 10**8, 3 * 10**8))
    assert normalize(s).weights == (2 * 10**8, 3 * 10**8, 4 * 10**8)
    assert time.perf_counter() - t0 < 1.0
