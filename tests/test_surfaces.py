"""Exceptional surfaces, log-pair ampleness, and the triple classification."""
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricsing.blowup import BaseSingularity, WeightedBlowup
from toricsing.chain import start_chain
from toricsing.enumerators import enumerate_plt_triples_case
from toricsing.surfaces import (
    PLT_CASES,
    QuadricPair,
    TripleRecord,
    WPSPair,
    ade_type,
    canonical_triple_table,
    classify_canonical_triple,
    classify_plt_triple,
    exceptional_surface,
    is_in_Pn,
    match_plt_case,
    plt_chain_surface_record,
    quadric_surface_pair,
    quadric_triple_condition,
    triple_ample,
    triple_ample_and_adjunction,
    wps_degree,
)

F = Fraction


def test_wps_pair_validation():
    with pytest.raises(ValueError):
        WPSPair((2, 4, 1))  # not pairwise coprime
    with pytest.raises(ValueError):
        WPSPair((1, 1, 1), boundary=((1, F(1, 3)),))  # 1/3 is not (m-1)/m
    with pytest.raises(ValueError):
        WPSPair((1, 1, 1), boundary=((4, F(1, 2)),))
    with pytest.raises(ValueError):
        WPSPair((1, 1, 1), boundary=((2, F(1, 2)), (2, F(2, 3))))
    s = WPSPair((1, 1, 1), boundary=((3, F(0)), (1, F(1, 2))))
    assert s.boundary == ((1, F(1, 2)),)  # zero coefficients are dropped
    assert s.boundary_index(1) == 2
    assert s.boundary_index(3) == 1


def test_exceptional_surface_examples():
    s = exceptional_surface((12, 8, 5))
    assert s.weights == (3, 2, 5)
    assert s.boundary == ((3, F(3, 4)),)
    t = exceptional_surface((15, 10, 6))
    assert t.weights == (1, 1, 1)
    assert t.boundary == ((1, F(1, 2)), (2, F(2, 3)), (3, F(4, 5)))
    with pytest.raises(ValueError):
        exceptional_surface((2, 4, 6))  # not primitive


def test_quadric_surface_pair_examples():
    for w in ((1, 1, 1, 1), (2, 2, 3, 1), (1, 5, 3, 3)):
        q = quadric_surface_pair(w)
        assert q.boundary_coeffs() == {}
        assert q.a == w
    q = quadric_surface_pair((3, 2, 1, 4))
    assert q.d[(1, 3)] == 2
    assert all(q.d[p] == 1 for p in ((1, 4), (2, 3), (2, 4)))
    assert q.a == (3, 1, 1, 2)
    assert q.boundary_coeffs() == {(1, 3): F(1, 2)}
    with pytest.raises(ValueError):
        quadric_surface_pair((1, 2, 2, 2))  # 1+2 != 2+2
    with pytest.raises(ValueError):
        quadric_surface_pair((2, 2, 2, 2))  # not primitive


def test_wps_degree_examples():
    assert wps_degree(WPSPair((1, 1, 1)), 1, 1) == 1
    assert wps_degree(WPSPair((1, 2, 3)), 1, 6) == 1
    assert wps_degree(WPSPair((2, 3, 5)), 2, 3) == F(1, 5)


def test_triple_ample_examples():
    s = exceptional_surface((15, 10, 6))
    ample, logdeg = triple_ample_and_adjunction(s, 1)
    assert ample and logdeg == F(-1, 30)
    s237 = WPSPair((1, 1, 1), ((1, F(1, 2)), (2, F(2, 3)), (3, F(6, 7))))
    ample, logdeg = triple_ample_and_adjunction(s237, 1)
    assert not ample and logdeg == F(1, 42)
    # plain conic in the plane: the log degree is deg K of a rational curve
    ample, logdeg = triple_ample_and_adjunction(WPSPair((1, 1, 1)), 2)
    assert ample and logdeg == -2


def _fraction_ample(weights, indices, gamma):
    # the coefficient form: deg -(K + D + Gamma) = sum a_i - sum c_i a_i - Gamma
    # with c_i = (m_i - 1)/m_i
    neg = sum(weights) - gamma - sum(F(m - 1, m) * a for a, m in zip(weights, indices))
    return neg > 0


def _check_triple_ample(weights, indices, gamma):
    s = WPSPair(weights, [(i + 1, F(m - 1, m)) for i, m in enumerate(indices)])
    ample, log_degree = triple_ample_and_adjunction(s, gamma)
    expected = _fraction_ample(weights, indices, gamma)
    assert triple_ample(weights, indices, gamma) == ample == expected
    assert (log_degree < 0) == expected


def test_triple_ample_matches_the_pair_on_every_scan_candidate():
    n = 0
    for case in PLT_CASES.values():
        for params in case.scan(10):
            _check_triple_ample(*case.shape(*params))
            n += 1
    assert n > 10000


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(*[st.integers(1, 60)] * 3).filter(
        lambda a: gcd(a[0], a[1]) == gcd(a[0], a[2]) == gcd(a[1], a[2]) == 1
    ),
    st.tuples(*[st.integers(1, 12)] * 3),
    st.integers(1, 60),
)
def test_triple_ample_matches_the_pair_on_coprime_weights(weights, indices, gamma):
    _check_triple_ample(weights, indices, gamma)


def test_triple_ample_refuses_what_the_pair_refuses():
    for weights in ((2, 4, 1), (3, 1, 6), (1, 5, 10), (0, 1, 1)):
        with pytest.raises(ValueError) as pair_error:
            WPSPair(weights)
        with pytest.raises(ValueError) as int_error:
            triple_ample(weights, (1, 1, 1), 1)
        assert str(int_error.value) == str(pair_error.value)
    with pytest.raises(ValueError, match="boundary indices"):
        triple_ample((1, 1, 1), (2, 0, 1), 1)


def test_ade_type_examples():
    assert ade_type(()) == "A"
    assert ade_type((1, 7, 1)) == "A"
    assert ade_type((2, 2, 5)) == "D7"
    assert ade_type((2, 3, 3)) == "E6"
    assert ade_type((2, 3, 4)) == "E7"
    assert ade_type((5, 3, 2)) == "E8"
    assert ade_type((2, 3, 6)) is None
    assert ade_type((3, 3, 3)) is None
    with pytest.raises(ValueError):
        ade_type((0, 2))
    with pytest.raises(ValueError):
        ade_type((2, 2, 2, 2))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=2, max_value=12), min_size=3, max_size=3))
def test_ade_type_matches_euler_condition(ms):
    hyperbolic = sum(F(1, m) for m in ms) <= 1
    assert (ade_type(ms) is None) == hyperbolic


def test_classify_plt_triple_examples():
    r = classify_plt_triple((1, 1, 1), (2, 3, 3), 1)
    assert (r.case, r.params, r.ade) == ("plt-2", (2, 3, 3), "E6")
    r = classify_plt_triple((1, 1, 1), (4, 1, 1), 2)
    assert (r.case, r.params, r.ade) == ("plt-1", (4,), "A")
    r = classify_plt_triple((2, 1, 1), (2, 3, 1), 2)
    assert (r.case, r.params, r.ade) == ("plt-3", (2, 2, 3), "D5")
    r = classify_plt_triple((2, 1, 1), (1, 3, 1), 3)
    assert (r.case, r.params, r.ade) == ("plt-4", (2, 3), "A")
    r = classify_plt_triple((3, 2, 1), (2, 2, 1), 3)
    assert (r.case, r.params, r.ade) == ("plt-5", (2, 2, 2), "D6")
    r = classify_plt_triple((5, 2, 1), (2, 1, 1), 5)
    assert (r.case, r.params, r.ade) == ("plt-6", (2,), "D6")
    r = classify_plt_triple((3, 2, 1), (2, 1, 1), 4)
    assert (r.case, r.params, r.ade) == ("plt-7", (2, 2, 2, 1), "D5")
    r = classify_plt_triple((3, 2, 1), (1, 1, 1), 4)
    assert (r.case, r.params, r.ade) == ("plt-7", (2, 2, 1, 1), "A")
    r = classify_plt_triple((3, 2, 1), (1, 1, 4), 5)
    assert (r.case, r.params, r.ade) == ("plt-8", (3, 2, 4), "A")
    assert classify_plt_triple((1, 1, 1), (1, 1, 1), 3) is None
    # matching is up to simultaneous permutation of the coordinates
    r = classify_plt_triple((1, 1, 2), (3, 1, 2), 2)
    assert (r.case, r.params) == ("plt-3", (2, 2, 3))
    with pytest.raises(ValueError):
        classify_plt_triple((1, 1), (1, 1, 1), 1)
    with pytest.raises(ValueError):
        classify_plt_triple((1, 1, 1), (0, 1, 1), 1)


def test_plt_chain_surface_records():
    r = plt_chain_surface_record(9, 3, 4, 2)
    assert r.case == "plt-9" and r.ade == "A"
    assert r.params == (3, 4, 2, "1/3(1,1)", "1/4(1,1)", "A6")
    r = plt_chain_surface_record(10, 4, 2, 1, l=2)
    assert r.case == "plt-10" and r.ade == "A"
    assert r.params == (4, 2, 2, 1, "1/4(2,1)", "1/2(2,1)", "A2")
    with pytest.raises(ValueError):
        plt_chain_surface_record(9, 3, 4, 1)  # d1 must be >= 2
    with pytest.raises(ValueError):
        plt_chain_surface_record(10, 4, 3, 1, l=2)  # 2 does not divide 7
    with pytest.raises(ValueError):
        plt_chain_surface_record(11, 2, 2, 2)


def test_classify_canonical_triple_examples():
    got = classify_canonical_triple((4, 2, 1), 3)
    assert [(r.case, r.params) for r in got] == [
        ("canonical-A", (2, 1, 2)),
        ("canonical-E6", (4, 2, 1)),
    ]
    got = classify_canonical_triple((3, 2, 1), 5)
    assert [(r.case, r.params) for r in got] == [("canonical-A", (3, 2, 1))]
    assert classify_canonical_triple((4, 3, 1), 5) == ()
    # (3,2,2) with a cubic lies in four lists at once
    got = classify_canonical_triple((3, 2, 2), 3)
    assert [r.case for r in got] == [
        "canonical-D",
        "canonical-E6",
        "canonical-E7",
        "canonical-E8",
    ]
    assert got[0].params == (3, "l,l-1,2")
    got = classify_canonical_triple((15, 10, 6), 1)
    assert [r.case for r in got] == ["canonical-E8"]
    for bad in ((2, 4, 6), (2, 1), (1, 2, 3, 4)):
        with pytest.raises(ValueError):
            classify_canonical_triple(bad, 1)


FROZEN_E_ROWS = [
    ("E6", (3, 2, 2), 3, None),
    ("E6", (4, 2, 1), 3, None),
    ("E6", (5, 3, 2), 9, None),
    ("E6", (6, 4, 3), 2, None),
    ("E7", (3, 2, 2), 3, None),
    ("E7", (3, 3, 1), 2, None),
    ("E7", (5, 3, 2), 6, 3),
    ("E7", (5, 4, 2), 5, None),
    ("E7", (6, 4, 3), 2, None),
    ("E7", (7, 5, 3), 14, None),
    ("E7", (9, 6, 4), 3, None),
    ("E8", (3, 2, 2), 3, None),
    ("E8", (5, 4, 2), 5, None),
    ("E8", (6, 4, 3), 2, None),
    ("E8", (8, 5, 3), 15, None),
    ("E8", (9, 6, 4), 3, None),
    ("E8", (10, 7, 4), 10, None),
    ("E8", (12, 8, 5), 6, None),
    ("E8", (15, 10, 6), 1, None),
]


def test_canonical_table_shape_and_e_rows():
    table = canonical_triple_table(15)
    assert len(table) == 180
    assert table == canonical_triple_table(15)  # deterministic
    e_rows = sorted(
        (r.ade, w, g, r.split_gamma1)
        for r, w, g in table
        if r.case.startswith("canonical-E")
    )
    assert e_rows == FROZEN_E_ROWS
    # rows of a smaller table all reappear in the larger one
    small = canonical_triple_table(8)
    assert set(small) <= set(table)


def test_canonical_table_rows_are_ample():
    for record, w, g in canonical_triple_table(15):
        s = exceptional_surface(w)
        ample, _ = triple_ample_and_adjunction(s, g)
        assert ample, (record, w, g)


def test_plt_scan_hits_round_trip_through_the_classifier():
    for case_id in range(1, 9):
        case = "plt-%d" % case_id
        rep = enumerate_plt_triples_case(case_id, 8)
        assert rep.hits
        for params in rep.hits:
            weights, indices, gamma = PLT_CASES[case].shape(*params)
            rec = classify_plt_triple(weights, indices, gamma)
            back = rec is not None and (rec.case, rec.params) == (case, params)
            assert back == (rep.family_tags[params] is not None), (case, params)
            assert match_plt_case(case, weights, indices)[1] == gamma


def test_plt_scans_are_sorted_nested_and_coprime():
    for case_id in range(1, 9):
        entry = PLT_CASES["plt-%d" % case_id]
        for b in range(1, 11):
            scan = entry.scan(b)
            assert scan == sorted(set(scan)), (case_id, b)
            assert scan == [p for p in entry.scan(b + 1) if max(p) <= b], (case_id, b)
            for params in scan:
                a1, a2, a3 = entry.shape(*params)[0]
                assert gcd(a1, a2) == gcd(a1, a3) == gcd(a2, a3) == 1, (case_id, params)


def test_canonical_table_rows_round_trip():
    smooth = BaseSingularity.smooth()
    table = canonical_triple_table(20)
    assert len(table) == 285
    for record, w, g in table:
        assert record in classify_canonical_triple(w, g), (record, w, g)
        state = start_chain(WeightedBlowup(smooth, w), record)
        assert state.gamma[0] == Fraction(g * g, prod(exceptional_surface(w).weights))
    rows = set(table)
    for w1 in range(1, 21):
        for w2 in range(1, w1 + 1):
            for w3 in range(1, w2 + 1):
                if gcd(gcd(w1, w2), w3) != 1:
                    continue
                for g in range(1, 45):
                    for record in classify_canonical_triple((w1, w2, w3), g):
                        assert (record, (w1, w2, w3), g) in rows


def test_quadric_triple_condition_examples():
    assert quadric_triple_condition((1, 2, 2, 1), mode="plt")
    assert quadric_triple_condition((2, 2, 3, 1), mode="canonical")
    assert quadric_triple_condition((2, 2, 3, 1), gamma_class=3, mode="canonical")
    assert not quadric_triple_condition((2, 2, 3, 1), gamma_class=2, mode="canonical")
    with pytest.raises(ValueError):
        quadric_triple_condition((1, 1, 1, 1), mode="klt")


def test_is_in_Pn_standard_coefficients():
    for m in range(1, 21):
        for n in range(1, 13):
            assert is_in_Pn(F(m - 1, m), n)
    with pytest.raises(ValueError):
        is_in_Pn(F(3, 2), 1)
    with pytest.raises(ValueError):
        is_in_Pn(F(1, 2), 0)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=12), st.integers(min_value=1, max_value=12),
       st.integers(min_value=1, max_value=6))
def test_is_in_Pn_interval_oracle(p, q, n):
    if p > q:
        return
    a = F(p, q)
    # the floor condition says some integer k satisfies n a <= k <= (n+1) a
    oracle = any(n * a <= k <= (n + 1) * a for k in range(0, n + 2))
    assert is_in_Pn(a, n) == oracle


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=30), min_size=3, max_size=3))
def test_exceptional_surface_reconstruction(w):
    if gcd(gcd(w[0], w[1]), w[2]) != 1:
        return
    s = exceptional_surface(w)
    q = tuple(s.boundary_index(i) for i in (1, 2, 3))
    for i in range(3):
        assert s.weights[i] * q[(i + 1) % 3] * q[(i + 2) % 3] == w[i]
    for line, c in s.boundary:
        assert c == F(q[line - 1] - 1, q[line - 1])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=20), min_size=3, max_size=3))
def test_quadric_pair_reconstruction(v):
    w = (v[0], v[1], v[2], v[0] + v[1] - v[2])
    if w[3] < 1 or gcd(gcd(w[0], w[1]), gcd(w[2], w[3])) != 1:
        return
    try:
        q = quadric_surface_pair(w)
    except ValueError:
        return  # weights that do not factor through the gcd pattern
    others = {1: ((2, 3), (2, 4)), 2: ((1, 3), (1, 4)),
              3: ((1, 4), (2, 4)), 4: ((1, 3), (2, 3))}
    for i in (1, 2, 3, 4):
        p1, p2 = others[i]
        assert q.a[i - 1] * q.d[p1] * q.d[p2] == w[i - 1]
    assert set(q.boundary_coeffs()) == {p for p, v_ in q.d.items() if v_ > 1}
