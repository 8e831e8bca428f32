"""Contraction chains: the step law, its refusals, and the bookkeeping."""
import dataclasses
import random
from fractions import Fraction
from math import gcd

import pytest

from toricsing.blowup import BaseSingularity, WeightedBlowup
from toricsing.chain import (
    ChainError,
    ChainState,
    IndexPoint,
    MarkedPoint,
    canonical_chain_step,
    contraction_triple_check,
    continuation_inequality,
    gamma_tilde_sq,
    start_chain,
    step,
)
from toricsing.surfaces import classify_canonical_triple, classify_plt_triple

F = Fraction
smooth = BaseSingularity.smooth()


def conic_start():
    b = WeightedBlowup(smooth, (1, 1, 1))
    rec = classify_plt_triple((1, 1, 1), (1, 1, 1), 2)
    return start_chain(b, rec)


def test_conic_chain_start():
    s0 = conic_start()
    assert s0.gamma == (F(4), F(-6))
    assert s0.a_plus_1 == 3
    assert s0.triple == (1, 1, 1)
    assert s0.boundary == (1, 1, 1)
    assert [p.label for p in s0.points] == ["generic", "generic"]
    assert gamma_tilde_sq(s0, 1, 1) == -6


def test_conic_chain_three_steps():
    s0 = conic_start()
    s1 = step(s0, 1, 1)
    assert s1.triple == (1, 1, 6)
    assert s1.boundary == (1, 1, 1)
    assert s1.gamma == (F(49, 6), F(-28, 3))
    assert s1.a_plus_1 == 4
    assert s1.points[0] == IndexPoint(r=6, k=1, label="contraction")
    assert s1.points[1].rays == ((1, 0, 0), (0, 0, 1), (0, 1, 1))
    assert contraction_triple_check(gamma_tilde_sq(s0, 1, 1), s1.triple)

    assert gamma_tilde_sq(s1, 1, 1) == F(-21, 2)
    s2 = step(s1, 1, 1)
    assert s2.triple == (6, 1, 63)
    assert s2.gamma == (F(2048, 189), F(-320, 27))
    assert s2.a_plus_1 == 5
    assert s2.points[0] == IndexPoint(r=63, k=1, label="contraction")
    assert s2.points[1].rays == ((1, 0, 0), (0, 0, 1), (0, 1, 2))
    assert contraction_triple_check(gamma_tilde_sq(s1, 1, 1), s2.triple)

    assert gamma_tilde_sq(s2, 1, 1) == F(-832, 63)
    s3 = step(s2, 1, 1)
    assert s3.triple == (63, 1, 832)
    assert s3.a_plus_1 == 6
    assert contraction_triple_check(gamma_tilde_sq(s2, 1, 1), s3.triple)

    # beta = (1,1) has no integral contraction point here, (21,1) does
    with pytest.raises(ChainError, match="no integral contraction point"):
        step(s3, 1, 1)
    s4 = step(s3, 21, 1)
    assert s4.triple == (832, 1, 52479)
    assert continuation_inequality(s3, 1)


def test_case4_fiber_gating():
    b = WeightedBlowup(smooth, (2, 1, 1))
    rec = classify_plt_triple((2, 1, 1), (1, 1, 1), 3)
    t0 = start_chain(b, rec)
    assert t0.gamma == (F(9, 2), F(-6))
    assert t0.a_plus_1 == 4
    assert sorted(p.local_index for p in t0.points) == [1, 2]

    t1 = step(t0, 1, 1, fiber=1)
    assert t1.triple == (1, 1, 6)
    assert t1.boundary == (2, 1, 1)
    # the fibre through the index-2 point leaves the modeled envelope
    assert t1.points is None
    assert t1.note is not None

    t2 = step(t0, 1, 1, fiber=2)
    assert t2.points[0] == IndexPoint(r=12, k=1, label="contraction")

    # beta2 > 1 gates continuation too (section multiplicity > 1)
    t3 = step(t0, 1, 2)
    assert t3.triple[2] == 21
    assert t3.points is None


def test_canonical_table_starts_and_elephant():
    recA = [
        r for r in classify_canonical_triple((3, 2, 1), 5) if r.case == "canonical-A"
    ][0]
    cs0 = start_chain(WeightedBlowup(smooth, (3, 2, 1)), recA)
    assert cs0.triple == (3, 2, 1)
    assert cs0.elephant_mult == 1
    cs1 = canonical_chain_step(cs0, 2)
    assert cs1.elephant_ledger == ((2, 0),)

    recA2 = [
        r for r in classify_canonical_triple((4, 2, 1), 3) if r.case == "canonical-A"
    ][0]
    cs2 = start_chain(WeightedBlowup(smooth, (4, 2, 1)), recA2)
    assert cs2.triple == (4, 2, 1)


def test_elephant_step_refuses_other_multiplicities():
    recA = classify_canonical_triple((3, 2, 1), 5)[0]
    cs0 = start_chain(WeightedBlowup(smooth, (3, 2, 1)), recA)
    with pytest.raises(ChainError, match="multiplicity one"):
        canonical_chain_step(dataclasses.replace(cs0, elephant_mult=2), 1)


def test_plt_start_rejected_on_cs_blowup():
    rec6 = classify_plt_triple((5, 2, 1), (2, 1, 1), 5)
    assert rec6.ade == "D6"
    with pytest.raises(ValueError, match="canonical-but-not-terminal"):
        start_chain(WeightedBlowup(smooth, (5, 4, 2)), rec6)
    with pytest.raises(ValueError, match="canonical-but-not-terminal"):
        start_chain(
            WeightedBlowup(smooth, (9, 5, 2)),
            classify_plt_triple((1, 1, 1), (1, 1, 1), 2),
        )


def test_d_and_e_chains_refuse_to_step():
    recD = [
        r for r in classify_canonical_triple((3, 2, 2), 3) if r.case == "canonical-D"
    ][0]
    d0 = start_chain(WeightedBlowup(smooth, (3, 2, 2)), recD)
    assert d0.ade == "D"
    with pytest.raises(ChainError, match="only type A continues"):
        step(d0, 1, 1)

    recE = [
        r for r in classify_canonical_triple((3, 2, 2), 3) if r.case == "canonical-E6"
    ][0]
    e0 = start_chain(WeightedBlowup(smooth, (3, 2, 2)), recE)
    assert e0.ade == "E6"
    with pytest.raises(ChainError, match="only type A continues"):
        step(e0, 1, 1)


def synthetic_state(triple, gamma, a_plus_1, step_no=0):
    return ChainState(
        step=step_no,
        triple=triple,
        boundary=(1, 1, 1),
        gamma=gamma,
        a_plus_1=a_plus_1,
        case="plt-1",
        ade="A1",
        complement_index=1,
        points=(),
    )


def test_gamma_tilde_sq_anchors():
    st_a = synthetic_state((1, 1, 1), (F(1), F(-1)), F(1))
    assert gamma_tilde_sq(st_a, 1, 1) == -2
    assert gamma_tilde_sq(st_a, 2, 1) == -3
    st_b = synthetic_state((1, 1, 1), (F(4), F(-6)), F(3))
    assert gamma_tilde_sq(st_b, 1, 1) == -6


def test_contraction_triple_anchors():
    assert contraction_triple_check(F(-2), (1, 1, 2))
    assert contraction_triple_check(F(-6), (1, 1, 6))
    assert contraction_triple_check(F(-6), (2, 3, 36))
    assert contraction_triple_check(F(-3, 2), (1, 2, 3))
    assert not contraction_triple_check(F(-2), (1, 1, 3))


def test_continuation_inequality_anchors():
    assert continuation_inequality(synthetic_state((1, 1, 3), (F(1), F(-1)), F(1), 1), 1)
    assert not continuation_inequality(
        synthetic_state((1, 1, 2), (F(1), F(-1)), F(1), 1), 1
    )
    assert continuation_inequality(synthetic_state((2, 3, 20), (F(1), F(-1)), F(1), 1), 2)


def test_marked_point_validation():
    with pytest.raises(ValueError, match="three rays"):
        MarkedPoint(((1, 0, 0), (0, 1, 0)))
    with pytest.raises(ValueError, match="primitive"):
        MarkedPoint(((2, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(ValueError, match="not independent"):
        MarkedPoint(((1, 0, 0), (0, 1, 0), (1, 1, 0)))
    with pytest.raises(ValueError, match="unimodular"):
        MarkedPoint(((1, 0, 0), (0, 1, 0), (0, 1, 2)))
    p = MarkedPoint(((1, 0, 0), (0, 1, 0), (1, 1, 2)), label="start")
    assert p.local_index == 2


def test_index_point_validation():
    with pytest.raises(ValueError, match="positive integer"):
        IndexPoint(0)
    with pytest.raises(ValueError, match="dividing r"):
        IndexPoint(6, 4)
    assert IndexPoint(6, 3).local_index == 6


def test_chain_state_validation():
    with pytest.raises(ValueError, match="self-intersection"):
        synthetic_state((1, 1, 1), (F(0), F(-1)), F(1))
    with pytest.raises(ValueError, match="negative"):
        synthetic_state((1, 1, 1), (F(1), F(0)), F(1))
    with pytest.raises(ValueError, match="positive integers"):
        synthetic_state((1, 0, 1), (F(1), F(-1)), F(1))


def test_constructible_starts_have_negative_pair_degree():
    starts = [
        ((1, 1, 1), classify_plt_triple((1, 1, 1), (1, 1, 1), 2)),
        ((2, 1, 1), classify_plt_triple((2, 1, 1), (1, 1, 1), 3)),
        ((3, 1, 1), classify_plt_triple((3, 1, 1), (1, 1, 1), 4)),
        ((3, 2, 1), classify_plt_triple((3, 2, 1), (1, 1, 1), 4)),
        ((3, 2, 1), classify_plt_triple((3, 2, 1), (1, 1, 1), 5)),
    ]
    for w, rec in starts:
        assert rec is not None, w
        s = start_chain(WeightedBlowup(smooth, w), rec)
        gsq, pair = s.gamma
        assert gsq > 0 and pair < 0
        assert gamma_tilde_sq(s, 1, 1) < 0


def test_random_walk_contraction_invariant():
    rng = random.Random(7)
    s0 = conic_start()
    state = s0
    executed = 0
    for _ in range(40):
        b1 = rng.randint(1, 6)
        b2 = rng.choice([1, 1, 1, 2, 3])
        if gcd(b1, b2) != 1:
            continue
        try:
            nxt = step(state, b1, b2)
        except ChainError:
            continue
        assert contraction_triple_check(gamma_tilde_sq(state, b1, b2), nxt.triple)
        executed += 1
        state = s0 if nxt.points is None else nxt
    assert executed >= 5
