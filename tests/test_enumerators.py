"""Bounded searches: hit lists, family tags, worker determinism."""
import multiprocessing
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest

from toricsing import enumerators
from toricsing.blowup import (
    BaseSingularity,
    WeightedBlowup,
    discrepancy_zero,
    is_canonical_blowup,
    is_terminal_blowup,
)
from toricsing.enumerators import (
    SPORADIC_SMOOTH,
    EnumerationReport,
    canonical_smooth_table,
    enumerate_canonical_odp,
    enumerate_canonical_smooth,
    enumerate_plt_triples_case,
    enumerate_terminal_cyclic,
    odp_orbit_min,
    plt_family_tag,
    resolve_jobs,
    smooth_family_tag,
)


def test_smooth_bound_one_and_small():
    rep = enumerate_canonical_smooth(1)
    assert rep.hits == ((1, 1, 1),)
    assert rep.family_tags[(1, 1, 1)] == "w1,w2,1"
    rep6 = enumerate_canonical_smooth(6)
    assert (5, 3, 2) in rep6.hits and (6, 4, 3) in rep6.hits
    assert rep6.family_tags[(5, 3, 2)] == "sporadic"
    assert rep6.family_tags[(3, 2, 2)] == "l,l-1,2"
    assert rep6.errors == ()


def test_smooth_monotone_in_bound():
    small = enumerate_canonical_smooth(6)
    big = enumerate_canonical_smooth(9)
    assert set(small.hits) <= set(big.hits)
    assert {w for w in big.hits if max(w) <= 6} == set(small.hits)


def test_smooth_hits_reverify():
    rep = enumerate_canonical_smooth(8)
    base = BaseSingularity.smooth()
    for w in rep.hits:
        assert is_canonical_blowup(WeightedBlowup(base, w)), w
    rng = random.Random(20240817)
    missed = 0
    while missed < 60:
        w = tuple(sorted((rng.randint(1, 8) for _ in range(3)), reverse=True))
        from math import gcd

        if gcd(gcd(w[0], w[1]), w[2]) != 1 or w in rep.hits:
            continue
        assert not is_canonical_blowup(WeightedBlowup(base, w)), w
        missed += 1


def test_canonical_smooth_is_two_families_and_nine_sporadics_to_60():
    rep = enumerate_canonical_smooth(60)
    assert rep.errors == ()
    tags = [rep.family_tags[h] for h in rep.hits]
    assert len(rep.hits) == 1897
    assert (tags.count("w1,w2,1"), tags.count("l,l-1,2")) == (1830, 58)
    sporadic = {h for h, tag in zip(rep.hits, tags) if tag == "sporadic"}
    assert sporadic == set(SPORADIC_SMOOTH)
    assert canonical_smooth_table(60) == list(zip(rep.hits, tags))


def test_kawamata_one_terminal_blowup_per_cyclic_quotient():
    # Kawamata: 1/r(-1,-q,1) has exactly one divisorial contraction, of
    # discrepancy 1/r, so raising the bound finds no other hit
    for r in range(2, 8):
        for q in range(1, r):
            if gcd(r, q) != 1:
                continue
            small = enumerate_terminal_cyclic(r, q, r + 2).hits
            assert small == enumerate_terminal_cyclic(r, q, r + 4).hits
            assert len(small) == 1, (r, q, small)
            b = WeightedBlowup(BaseSingularity.cyclic(r, q), small[0])
            assert discrepancy_zero(b) == Fraction(1, r)


def test_kawakita_terminal_smooth_blowups_are_1_a_b():
    # Kawakita: a divisorial contraction to a smooth point is the weighted
    # blow-up with weights (1, a, b), a and b coprime
    hits = set(enumerate_terminal_cyclic(1, 1, 12).hits)
    assert hits == {
        (a, b, 1) for a in range(1, 13) for b in range(1, a + 1) if gcd(a, b) == 1
    }


def test_odp_small_bound():
    rep = enumerate_canonical_odp(3)
    assert (1, 3, 2, 2) in rep.hits
    assert all(tag == "unit-weight" for tag in rep.family_tags.values())
    # hits are orbit minima and each re-verifies
    for w in rep.hits:
        assert odp_orbit_min(w) == w
        assert is_canonical_blowup(WeightedBlowup(BaseSingularity.odp(), w))


def test_odp_orbit_min_symmetries():
    assert odp_orbit_min((3, 1, 2, 2)) == (1, 3, 2, 2)
    assert odp_orbit_min((2, 2, 3, 1)) == (1, 3, 2, 2)
    assert odp_orbit_min((1, 1, 1, 1)) == (1, 1, 1, 1)


def test_terminal_cyclic_examples():
    rep = enumerate_terminal_cyclic(2, 1, 4)
    assert rep.hits  # the half-point does admit terminal blow-ups
    base = BaseSingularity.cyclic(2, 1)
    for w in rep.hits:
        assert is_terminal_blowup(WeightedBlowup(base, w)), w
    # r = 1 runs the terminal filter over the smooth-point candidates
    rep1 = enumerate_terminal_cyclic(1, 0, 4)
    base1 = BaseSingularity.smooth()
    for w in rep1.hits:
        assert is_terminal_blowup(WeightedBlowup(base1, w)), w
    assert (1, 1, 1) in rep1.hits
    # some quotients admit none at all
    assert enumerate_terminal_cyclic(3, 1, 1).hits == ()


def test_plt_case2_bound30():
    rep = enumerate_plt_triples_case(2, 30)
    want = {(2, 2, k) for k in range(2, 31)} | {(2, 3, 3), (2, 3, 4), (2, 3, 5)}
    assert set(rep.hits) == want
    assert rep.errors == ()
    assert rep.family_tags[(2, 3, 5)] == "2,3,5"
    assert rep.family_tags[(2, 2, 17)] == "2,2,k"


def test_plt_case1_case3_small():
    rep1 = enumerate_plt_triples_case(1, 10)
    assert rep1.hits == tuple((d,) for d in range(1, 11))
    rep3 = enumerate_plt_triples_case(3, 10)
    assert len(rep3.hits) == 20
    assert (2, 2, 7) in rep3.hits and (3, 2, 1) in rep3.hits
    assert (2, 3, 3) not in rep3.hits
    assert rep3.errors == ()
    assert all(rep3.family_tags[h] is not None for h in rep3.hits)


def test_plt_cases_validate_arguments():
    with pytest.raises(ValueError):
        enumerate_plt_triples_case(0, 5)
    with pytest.raises(ValueError):
        enumerate_plt_triples_case(9, 5)
    with pytest.raises(ValueError):
        enumerate_plt_triples_case(2, 0)


def test_jobs_determinism():
    for fn, args in (
        (enumerate_canonical_smooth, (8,)),
        (enumerate_canonical_odp, (4,)),
        (enumerate_plt_triples_case, (5, 12)),
    ):
        r1 = fn(*args, jobs=1)
        r2 = fn(*args, jobs=2)
        assert r1.hits == r2.hits
        assert r1.family_tags == r2.family_tags


@pytest.fixture
def pool_starts(monkeypatch):
    """The worker counts of the process pools started while the test runs."""
    starts = []
    real_pool = multiprocessing.Pool

    def counting_pool(*args, **kwargs):
        starts.append(kwargs.get("processes"))
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", counting_pool)
    return starts


def test_pool_starts_only_above_the_cutoff(pool_starts, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    bound = 33
    candidates = enumerators._smooth_candidates(bound)
    assert len(candidates) >= enumerators.POOL_MIN_CANDIDATES
    assert enumerate_canonical_smooth(bound, jobs=2) == enumerate_canonical_smooth(bound, jobs=1)
    assert pool_starts == [2]
    # acceptance 10's sizes and the plt scans stay serial at jobs=2
    enumerate_canonical_smooth(15, jobs=2)
    enumerate_canonical_odp(6, jobs=2)
    enumerate_plt_triples_case(7, 12, jobs=2)
    assert pool_starts == [2]


def test_importing_the_package_does_not_import_multiprocessing():
    src = os.path.dirname(os.path.dirname(enumerators.__file__))
    code = "import sys, toricsing, toricsing.cli; print('multiprocessing' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
        timeout=60,
    )
    assert out.stdout == "False\n"


def test_resolve_jobs():
    cpus = os.cpu_count() or 1
    assert resolve_jobs(1) == 1
    assert resolve_jobs(3) == min(3, cpus)
    with pytest.raises(ValueError):
        resolve_jobs(0)
    old = os.environ.get("TORICSING_JOBS")
    try:
        os.environ["TORICSING_JOBS"] = "4"
        assert resolve_jobs() == min(4, cpus)
        os.environ["TORICSING_JOBS"] = ""
        assert resolve_jobs() == 1
        os.environ["TORICSING_JOBS"] = "abc"
        with pytest.raises(ValueError, match="TORICSING_JOBS must be an integer"):
            resolve_jobs()
    finally:
        if old is None:
            os.environ.pop("TORICSING_JOBS", None)
        else:
            os.environ["TORICSING_JOBS"] = old


def test_resolve_jobs_caps_at_cpu_count(monkeypatch):
    # resolved only, never passed to a pool
    assert resolve_jobs(10**6) == (os.cpu_count() or 1)
    monkeypatch.setenv("TORICSING_JOBS", str(10**6))
    assert resolve_jobs() == (os.cpu_count() or 1)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert resolve_jobs(10**6) == 1


def test_odp_closed_form_check_survives_optimization(monkeypatch):
    """The hit-set check is an explicit exception, not an assert."""
    monkeypatch.setattr(enumerators, "_canonical_odp", lambda w: True)
    with pytest.raises(RuntimeError, match="unit-weight candidates"):
        enumerate_canonical_odp(4, jobs=1)


def test_smooth_family_tag_edges():
    assert smooth_family_tag((2, 2, 1)) == "w1,w2,1"
    assert smooth_family_tag((3, 2, 2)) == "l,l-1,2"
    assert smooth_family_tag((9, 5, 2)) == "sporadic"
    assert smooth_family_tag((4, 3, 3)) is None
    assert len(SPORADIC_SMOOTH) == 9


def test_plt_family_tag_spot_checks():
    assert plt_family_tag(2, (2, 3, 4)) == "2,3,4"
    assert plt_family_tag(2, (2, 3, 6)) is None
    assert plt_family_tag(5, (2, 2, 3)) == "2,2,k<=3"
    assert plt_family_tag(7, (3, 2, 1, 1)) is not None


def test_report_as_dict_round_trip():
    rep = enumerate_canonical_smooth(3)
    d = rep.as_dict()
    assert d["bound"] == 3
    assert [tuple(h) for h in d["hits"]] == list(rep.hits)
    assert d["errors"] == []
    assert d["family_tags"]["1,1,1"] == "w1,w2,1"
