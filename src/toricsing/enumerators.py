"""Exhaustive searches over weight vectors with prescribed chart behavior.

Four searches: smooth-point blow-ups with canonical charts, ordinary-double-
point blow-ups with canonical charts, terminal blow-ups over a cyclic base,
and the parameter families of the plt surface triples.  Candidate lists are
generated in lexicographic order and filtered by the chart or ampleness
oracles, so reports are deterministic and shrinking the bound can only
shrink the hit list.  Workers are module-level functions, which keeps the
optional process pool reproducible: a pool map preserves candidate order, so
the output is byte-for-byte independent of the job count.
"""
from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from math import gcd
from typing import NamedTuple

from .blowup import (
    BaseSingularity,
    WeightedBlowup,
    is_canonical_blowup,
    is_terminal_blowup,
)
from .surfaces import PLT_CASES, triple_ample

#: the nine canonical smooth-point weight vectors outside the two families
SPORADIC_SMOOTH = (
    (5, 3, 2),
    (6, 4, 3),
    (7, 5, 3),
    (8, 5, 3),
    (9, 5, 2),
    (9, 6, 4),
    (10, 7, 4),
    (12, 8, 5),
    (15, 10, 6),
)


class SmoothFamily(NamedTuple):
    """One family of canonical smooth-point weight vectors.

    tag names the family in reports and tables, test decides membership of
    a descending triple, and rows lists the members whose largest weight is
    at most a bound.
    """

    tag: str
    test: Callable
    rows: Callable


#: the families of canonical smooth-point blow-ups, tried in order: (2,2,1)
#: is tagged "w1,w2,1" even though it also heads the second family, whose
#: rows start at (3,2,2)
SMOOTH_FAMILIES = (
    SmoothFamily(
        "sporadic",
        frozenset(SPORADIC_SMOOTH).__contains__,
        lambda bound: [w for w in SPORADIC_SMOOTH if w[0] <= bound],
    ),
    SmoothFamily(
        "w1,w2,1",
        lambda w: w[2] == 1,
        lambda bound: [(w1, w2, 1) for w1 in range(1, bound + 1) for w2 in range(1, w1 + 1)],
    ),
    SmoothFamily(
        "l,l-1,2",
        lambda w: w[2] == 2 and w[0] == w[1] + 1,
        lambda bound: [(l, l - 1, 2) for l in range(3, bound + 1)],
    ),
)


def smooth_family_tag(w):
    """Family of a canonical smooth-point hit, the first of SMOOTH_FAMILIES
    that contains it.  Returns None when the vector fits no family —
    enumerate_canonical_smooth records those as errors."""
    w = tuple(w)
    return next((f.tag for f in SMOOTH_FAMILIES if f.test(w)), None)


def canonical_smooth_table(bound):
    """(weights, family tag) of every family member with largest weight at
    most the bound, sorted by weights."""
    return sorted((w, f.tag) for f in SMOOTH_FAMILIES for w in f.rows(bound))


@dataclass(frozen=True)
class EnumerationReport:
    """Hit list of one bounded search.

    hits are lexicographically sorted, duplicate-free weight tuples; every
    hit satisfies the search predicate when re-checked.  family_tags maps
    each hit to its family label (None when untagged); untagged hits are
    additionally listed in errors.
    """

    bound: int
    hits: tuple
    family_tags: dict
    errors: tuple = ()

    def as_dict(self):
        return {
            "bound": self.bound,
            "hits": [list(h) for h in self.hits],
            "family_tags": {
                ",".join(str(x) for x in h): self.family_tags.get(h)
                for h in self.hits
            },
            "errors": list(self.errors),
        }


def _tagged_report(bound, hits, tag):
    """Report of hits tagged by tag(hit); untagged hits are also errors."""
    tags = {h: tag(h) for h in hits}
    errors = tuple(
        "untagged hit (%s)" % ",".join(str(x) for x in h)
        for h in hits
        if tags[h] is None
    )
    return EnumerationReport(bound, tuple(hits), tags, errors)


def resolve_jobs(jobs=None):
    """Worker count: the explicit argument, else TORICSING_JOBS, else 1,
    capped at the number of CPUs (more workers than CPUs only add start-up
    cost, and the count goes straight to the process pool)."""
    if jobs is None:
        env = os.environ.get("TORICSING_JOBS", "").strip()
        try:
            jobs = int(env) if env else 1
        except ValueError:
            raise ValueError("TORICSING_JOBS must be an integer, got %r" % env)
    jobs = int(jobs)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    return min(jobs, os.cpu_count() or 1)


#: the fewest candidates worth a process pool.  On a 2-core machine starting
#: a pool of two cost about 40 ms and a blow-up candidate about 20 us: the
#: pool lost at smooth bound 15 (552 candidates, 12 ms serial), broke even
#: at bound 30 (4,027 candidates, 74 ms) and won at bound 40 (9,389
#: candidates, 160 ms serial against 110-140 ms).
POOL_MIN_CANDIDATES = 5000


def _filter(pred, items, jobs):
    if jobs <= 1 or len(items) < POOL_MIN_CANDIDATES:
        flags = [pred(x) for x in items]
    else:
        from multiprocessing import Pool

        chunk = max(1, len(items) // (jobs * 8))
        with Pool(processes=jobs) as pool:
            flags = pool.map(pred, items, chunksize=chunk)
    return [x for x, ok in zip(items, flags) if ok]


# --- module-level predicates (picklable workers) ---------------------------


def _canonical_smooth(w):
    return is_canonical_blowup(WeightedBlowup(BaseSingularity.smooth(), w))


def _terminal_smooth(w):
    return is_terminal_blowup(WeightedBlowup(BaseSingularity.smooth(), w))


def _canonical_odp(w):
    return is_canonical_blowup(WeightedBlowup(BaseSingularity.odp(), w))


def _terminal_cyclic(r, q, w):
    return is_terminal_blowup(WeightedBlowup(BaseSingularity.cyclic(r, q), w))


# --- candidate generators ---------------------------------------------------


def _smooth_candidates(bound):
    out = []
    for w1 in range(1, bound + 1):
        for w2 in range(1, w1 + 1):
            for w3 in range(1, w2 + 1):
                if gcd(gcd(w1, w2), w3) == 1:
                    out.append((w1, w2, w3))
    return out


def odp_orbit_min(w):
    """Least representative under the symmetries of the quadric cone:
    swapping within either weight pair and swapping the two pairs."""
    w1, w2, w3, w4 = w
    images = []
    for a, b in ((w1, w2), (w2, w1)):
        for c, d in ((w3, w4), (w4, w3)):
            images.append((a, b, c, d))
            images.append((c, d, a, b))
    return min(images)


def _odp_candidates(bound):
    out = []
    for w1 in range(1, bound + 1):
        for w2 in range(1, bound + 1):
            for w3 in range(1, bound + 1):
                w4 = w1 + w2 - w3
                if not 1 <= w4 <= bound:
                    continue
                w = (w1, w2, w3, w4)
                if gcd(gcd(w1, w2), gcd(w3, w4)) != 1:
                    continue
                if odp_orbit_min(w) != w:
                    continue
                out.append(w)
    return out


def _cyclic_candidates(base, bound):
    r, q = base.r, base.q
    out = []
    for w1 in range(1, bound + 1):
        for w2 in range(1, bound + 1):
            for w3 in range(1, bound + 1):
                if gcd(gcd(w1, w2), w3) != 1:
                    continue
                if r * w1 - w3 < 1 or r * w2 - q * w3 < 1:
                    continue
                out.append((w1, w2, w3))
    return out


# --- the searches ------------------------------------------------------------


def enumerate_canonical_smooth(max_weight, jobs=None):
    """All weight vectors w1 >= w2 >= w3 >= 1, w1 <= max_weight, primitive,
    whose smooth-point blow-up has canonical charts and a(S,0) > 0."""
    bound = int(max_weight)
    if bound < 1:
        raise ValueError("bound must be >= 1")
    jobs = resolve_jobs(jobs)
    hits = _filter(_canonical_smooth, _smooth_candidates(bound), jobs)
    return _tagged_report(bound, hits, smooth_family_tag)


def enumerate_canonical_odp(max_weight, jobs=None):
    """Balanced primitive quadruples (least in their symmetry orbit) whose
    odp blow-up has canonical charts.

    The hit set is checked to coincide with the candidates carrying a unit
    weight — the closed-form description of the canonical odp blow-ups —
    and a mismatch raises RuntimeError.
    """
    bound = int(max_weight)
    if bound < 1:
        raise ValueError("bound must be >= 1")
    jobs = resolve_jobs(jobs)
    candidates = _odp_candidates(bound)
    hits = _filter(_canonical_odp, candidates, jobs)
    if hits != [w for w in candidates if min(w) == 1]:
        raise RuntimeError(
            "canonical odp hits at bound %d differ from the unit-weight candidates"
            % bound
        )
    tags = {h: "unit-weight" for h in hits}
    return EnumerationReport(bound, tuple(hits), tags)


def _plt_ample(case, params):
    return triple_ample(*PLT_CASES[case].shape(*params))


def _plt_case(case_id):
    entry = PLT_CASES.get("plt-%d" % case_id)
    if entry is None:
        raise ValueError("case_id must be 1..8")
    return entry


def plt_family_tag(case_id, params):
    """Constraint family of one plt-case hit, None when it fits no family."""
    family = _plt_case(case_id).family(params)
    return None if family is None else family.tag


def enumerate_plt_triples_case(case_id, bound, jobs=None):
    """Parameter tuples of one plt-triple case, within bound, whose log pair
    has -(K + D + Gamma) ample.

    The scan visits the case's PltCase.scan(bound) and applies the integer
    test surfaces.triple_ample to each candidate's shape; hits are tagged by
    constraint family, untagged hits are recorded as errors.  A candidate
    costs about a microsecond, so the scan runs serially at every job count
    (jobs is still checked).
    """
    bound = int(bound)
    if bound < 1:
        raise ValueError("bound must be >= 1")
    case_id = int(case_id)
    entry = _plt_case(case_id)
    resolve_jobs(jobs)
    pred = partial(_plt_ample, "plt-%d" % case_id)
    hits = _filter(pred, entry.scan(bound), 1)
    return _tagged_report(bound, hits, partial(plt_family_tag, case_id))


def enumerate_terminal_cyclic(r, q, max_weight, jobs=None):
    """Valid weight vectors over the 1/r(-1,-q,1) base with all charts
    terminal and a(S,0) > 0.  r = 1 is the smooth point: the search runs
    over descending primitive triples with the terminal filter."""
    bound = int(max_weight)
    if bound < 1:
        raise ValueError("bound must be >= 1")
    r = int(r)
    if r < 1:
        raise ValueError("r must be >= 1")
    jobs = resolve_jobs(jobs)
    if r == 1:
        hits = _filter(_terminal_smooth, _smooth_candidates(bound), jobs)
        tags = {h: smooth_family_tag(h) for h in hits}
        return EnumerationReport(bound, tuple(hits), tags)
    base = BaseSingularity.cyclic(r, q)
    pred = partial(_terminal_cyclic, base.r, base.q)
    hits = _filter(pred, _cyclic_candidates(base, bound), jobs)
    return EnumerationReport(bound, tuple(hits), {})
