"""Log pairs on the exceptional surfaces of weighted blow-ups.

The surfaces are weighted projective planes P(a1,a2,a3) with standard
toric boundary, and the quadric x1x2 + x3x4 in a weighted P^3.  A "triple"
is such a pair together with a curve class Gamma; this module computes
degrees, ampleness, adjunction, and the closed-form triple classifications,
each of type A, D_l, E6, E7 or E8 according to the multiplicity structure of
the boundary restricted to Gamma.

The case table lives here and nowhere else: PLT_CASES gives each plt case
its shape (parameters -> surface weights, boundary indices, curve class),
its scan range and its constraint families, and CANONICAL_CASES gives each A/D/E shape of
the canonical table its forward map.  Scans, tags, tables, chain starts and
the CLI all read these two tables.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import gcd
from typing import NamedTuple


def _is_standard_coeff(c):
    # standard coefficients are (m-1)/m
    return 0 <= c < 1 and (1 - c).numerator == 1


@dataclass(frozen=True)
class WPSPair:
    """A well-formed weighted projective plane with standard toric boundary.

    boundary is a tuple of (line index 1..3, coefficient) with positive
    standard coefficients (m-1)/m; the line {x_i = 0} has class O(a_i).
    """

    weights: tuple
    boundary: tuple = ()

    def __init__(self, weights, boundary=()):
        weights = tuple(int(a) for a in weights)
        if len(weights) != 3 or any(a < 1 for a in weights):
            raise ValueError("need three positive weights")
        if any(
            gcd(weights[i], weights[j]) != 1 for i in range(3) for j in range(i + 1, 3)
        ):
            raise ValueError("weights must be pairwise coprime (well-formed)")
        entries = []
        for line, c in boundary:
            c = Fraction(c)
            if line not in (1, 2, 3):
                raise ValueError("boundary lines are indexed 1..3")
            if not _is_standard_coeff(c):
                raise ValueError("boundary coefficients must be standard, (m-1)/m")
            if c > 0:
                entries.append((line, c))
        entries.sort()
        if len({line for line, _ in entries}) != len(entries):
            raise ValueError("at most one coefficient per line")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "boundary", tuple(entries))

    def boundary_index(self, line):
        """The integer m with coefficient (m-1)/m on the given line (1 if none)."""
        for l, c in self.boundary:
            if l == line:
                return (1 - c).denominator
        return 1

    def as_dict(self):
        return {
            "weights": list(self.weights),
            "boundary": [[l, str(c)] for l, c in self.boundary],
        }


def exceptional_surface(w):
    """The exceptional pair of the smooth-point blow-up with weights w.

    With q_i = gcd(w_k, w_l) the weights factor as w_i = a_i q_j q_k and the
    surface is (P(a1,a2,a3), sum (q_i-1)/q_i {x_i = 0}).
    """
    w = tuple(int(x) for x in w)
    if len(w) != 3 or any(x < 1 for x in w):
        raise ValueError("need three positive weights")
    g = gcd(gcd(w[0], w[1]), w[2])
    if g != 1:
        raise ValueError("weights must be primitive")
    q = (gcd(w[1], w[2]), gcd(w[0], w[2]), gcd(w[0], w[1]))
    a = tuple(w[i] * q[i] // (q[0] * q[1] * q[2]) for i in range(3))
    if any(a[i] * q[(i + 1) % 3] * q[(i + 2) % 3] != w[i] for i in range(3)):
        raise RuntimeError("weights %r do not factor through their pair gcds" % (w,))
    boundary = [(i + 1, Fraction(q[i] - 1, q[i])) for i in range(3) if q[i] > 1]
    return WPSPair(a, boundary)


@dataclass(frozen=True)
class QuadricPair:
    """The quadric x1x2 + x3x4 in P(w) with its toric different.

    d_ij = gcd(w_k, w_l) over the complementary index pair; the weights
    factor as (a1 d23 d24, a2 d13 d14, a3 d14 d24, a4 d13 d23), and the
    boundary carries (d_ij - 1)/d_ij on the curve C_ij = {x_i = x_j = 0}.
    """

    weights: tuple
    d: dict
    a: tuple

    def boundary_coeffs(self):
        return {
            pair: Fraction(self.d[pair] - 1, self.d[pair])
            for pair in ((1, 3), (1, 4), (2, 3), (2, 4))
            if self.d[pair] > 1
        }

    def as_dict(self):
        return {
            "weights": list(self.weights),
            "d": {"%d%d" % p: v for p, v in sorted(self.d.items())},
            "a": list(self.a),
        }


def quadric_surface_pair(w):
    w = tuple(int(x) for x in w)
    if len(w) != 4 or any(x < 1 for x in w):
        raise ValueError("need four positive weights")
    if w[0] + w[1] != w[2] + w[3]:
        raise ValueError("weights must balance: w1+w2 = w3+w4")
    if gcd(gcd(w[0], w[1]), gcd(w[2], w[3])) != 1:
        raise ValueError("weights must be primitive")
    d = {}
    for pair in ((1, 3), (1, 4), (2, 3), (2, 4)):
        k, l = [i for i in (1, 2, 3, 4) if i not in pair]
        d[pair] = gcd(w[k - 1], w[l - 1])
    a = (
        w[0] // (d[(2, 3)] * d[(2, 4)]),
        w[1] // (d[(1, 3)] * d[(1, 4)]),
        w[2] // (d[(1, 4)] * d[(2, 4)]),
        w[3] // (d[(1, 3)] * d[(2, 3)]),
    )
    if (
        a[0] * d[(2, 3)] * d[(2, 4)],
        a[1] * d[(1, 3)] * d[(1, 4)],
        a[2] * d[(1, 4)] * d[(2, 4)],
        a[3] * d[(1, 3)] * d[(2, 3)],
    ) != w:
        raise ValueError("weights not decomposable")
    return QuadricPair(weights=w, d=d, a=a)


def wps_degree(s, d1, d2):
    """O(d1) · O(d2) = d1 d2 / (a1 a2 a3) on a well-formed P(a1,a2,a3)."""
    a1, a2, a3 = s.weights
    return Fraction(d1 * d2, a1 * a2 * a3)


def triple_ample(weights, indices, gamma_degree):
    """Whether -(K_S + D + Gamma) is ample on S = P(a1,a2,a3).

    indices are the boundary indices m_i on the coordinate lines (1 for no
    boundary), so D = sum (m_i-1)/m_i {x_i = 0}, and Gamma has class
    gamma_degree.  -(K_S + D + Gamma) has class sum(a_i/m_i) - Gamma, so in
    integers it is ample iff a1 m2 m3 + a2 m1 m3 + a3 m1 m2 > Gamma m1 m2 m3.
    Weights that are not well-formed raise the ValueError of WPSPair.
    """
    a1, a2, a3 = weights
    m1, m2, m3 = indices
    if a1 < 1 or a2 < 1 or a3 < 1:
        raise ValueError("need three positive weights")
    if gcd(a1, a2) != 1 or gcd(a1, a3) != 1 or gcd(a2, a3) != 1:
        raise ValueError("weights must be pairwise coprime (well-formed)")
    if m1 < 1 or m2 < 1 or m3 < 1:
        raise ValueError("boundary indices must be >= 1")
    return a1 * m2 * m3 + a2 * m1 * m3 + a3 * m1 * m2 > gamma_degree * m1 * m2 * m3


def triple_ample_and_adjunction(s, gamma_degree):
    """Ampleness of -(K_S + D + Gamma) and the log degree of Gamma.

    Returns (ample, deg(K_Gamma + Diff_Gamma(D))).  Ampleness is
    triple_ample; the log degree comes from adjunction,
    (K_S + D + Gamma)·Gamma = (Gamma - sum(a_i/m_i))·Gamma.
    """
    a = s.weights
    indices = tuple(s.boundary_index(line) for line in (1, 2, 3))
    ample = triple_ample(a, indices, gamma_degree)
    neg_deg = sum(Fraction(ai, m) for ai, m in zip(a, indices)) - gamma_degree
    log_degree = -neg_deg * Fraction(gamma_degree, a[0] * a[1] * a[2])
    return ample, log_degree


def ade_type(multiplicities):
    """A/D/E label of (P^1, sum (m_i-1)/m_i P_i), or None when not anti-ample.

    Entries equal to 1 are dropped; at most three genuine multiplicities.
    """
    ms = sorted(int(m) for m in multiplicities if int(m) >= 2)
    if any(int(m) < 1 for m in multiplicities):
        raise ValueError("multiplicities must be positive")
    if len(ms) > 3:
        raise ValueError("at most three multiplicities")
    if len(ms) <= 2:
        return "A"
    if ms[0] == 2 and ms[1] == 2:
        return "D%d" % (ms[2] + 2)
    if ms[:2] == [2, 3] and ms[2] in (3, 4, 5):
        return {3: "E6", 4: "E7", 5: "E8"}[ms[2]]
    return None


@dataclass(frozen=True)
class TripleRecord:
    """One classified triple: the case it falls in, its parameters, its type.

    split_gamma1 flags the two canonical rows where the anticanonical member
    restricts to Gamma plus an extra curve of the recorded degree.
    """

    case: str
    params: tuple
    ade: str
    split_gamma1: int | None = None

    def as_dict(self):
        out = {"case": self.case, "params": list(self.params), "type": self.ade}
        if self.split_gamma1 is not None:
            out["split_gamma1"] = self.split_gamma1
        return out


# ---------------------------------------------------------------------------
# The triple table.  Each shape is written once, as a forward map from its
# parameters; scans and tables apply it to the parameters they iterate, and
# the classifiers read candidate parameters off a query and keep a match only
# when the forward map reproduces the query exactly.


class Family(NamedTuple):
    """One constraint family of a plt case.

    tag names the family in scan reports, ade is its class (A, D, E6, E7 or
    E8), test decides membership of a parameter tuple, and for class D
    d_index gives the l of the type D_l.
    """

    tag: str
    ade: str
    test: Callable
    d_index: Callable | None = None

    def label(self, params):
        return self.ade if self.d_index is None else "D%d" % self.d_index(*params)


class PltCase(NamedTuple):
    """One plt case (cases 1-8 are queryable; 9-10 are data records).

    shape maps the parameters to (surface weights, boundary indices, curve
    class); read takes the parameters back off surface weights and boundary
    indices given in one coordinate order; families are tried in order.

    scan lists, in lexicographic order, the parameter tuples with every entry
    at most a bound that a search visits.  It runs over the case's own shape:
    boundary indices start at 2 on lines every listed constraint family keeps
    (all three lines of case 2, the first line of cases 3 and 5) and at 1 on
    lines a family may drop.  Case 2 tuples are sorted, matching the symmetry
    of the full boundary, and case 8 keeps a1 > a2 coprime.  Every scanned
    shape has pairwise coprime surface weights.
    """

    shape: Callable
    read: Callable
    scan: Callable
    families: tuple

    def family(self, params):
        return next((f for f in self.families if f.test(*params)), None)


def _box(bound, *starts):
    # tuples whose i-th entry runs over starts[i]..bound, in lexicographic order
    return list(product(*(range(start, bound + 1) for start in starts)))


PLT_CASES = {
    # boundary on one line, Gamma a conic
    "plt-1": PltCase(
        lambda d1: ((1, 1, 1), (d1, 1, 1), 2),
        lambda s, d: (d[0],),
        lambda b: _box(b, 1),
        (Family("d1>=1", "A", lambda d1: True),),
    ),
    # full boundary, Gamma a line; the indices are listed sorted
    "plt-2": PltCase(
        lambda d1, d2, d3: ((1, 1, 1), (d1, d2, d3), 1),
        lambda s, d: tuple(sorted(d)),
        lambda b: [
            (d1, d2, d3)
            for d1 in range(2, b + 1)
            for d2 in range(d1, b + 1)
            for d3 in range(d2, b + 1)
        ],
        (
            Family("2,2,k", "D", lambda *d: sorted(d)[:2] == [2, 2], lambda *d: max(d) + 2),
            Family("2,3,3", "E6", lambda *d: sorted(d) == [2, 3, 3]),
            Family("2,3,4", "E7", lambda *d: sorted(d) == [2, 3, 4]),
            Family("2,3,5", "E8", lambda *d: sorted(d) == [2, 3, 5]),
        ),
    ),
    "plt-3": PltCase(
        lambda a1, d1, d2: ((a1, 1, 1), (d1, d2, 1), a1),
        lambda s, d: (s[0], d[0], d[1]),
        lambda b: _box(b, 2, 2, 1),
        (
            Family("2,2,k", "A", lambda *p: p == (2, 2, 1)),
            Family(
                "2,2,k",
                "D",
                lambda a1, d1, d2: (a1, d1) == (2, 2) and d2 >= 2,
                lambda a1, d1, d2: d2 + 2,
            ),
            Family("2,3,k<=2", "A", lambda *p: p == (2, 3, 1)),
            Family("2,3,k<=2", "E6", lambda *p: p == (2, 3, 2)),
            Family("2,k>=4,1", "A", lambda a1, d1, d2: a1 == 2 and d1 >= 4 and d2 == 1),
            Family("3,2,1", "A", lambda *p: p == (3, 2, 1)),
        ),
    ),
    "plt-4": PltCase(
        lambda a1, d1: ((a1, 1, 1), (1, d1, 1), a1 + 1),
        lambda s, d: (s[0], d[1]),
        lambda b: _box(b, 2, 1),
        (Family("a1>=2,d1>=1", "A", lambda a1, d1: a1 >= 2),),
    ),
    "plt-5": PltCase(
        lambda a2, d1, d2: ((a2 + 1, a2, 1), (d1, d2, 1), a2 + 1),
        lambda s, d: (s[1], d[0], d[1]),
        lambda b: _box(b, 2, 2, 1),
        (
            Family("2,2,k<=3", "A", lambda *p: p == (2, 2, 1)),
            Family("2,2,k<=3", "D", lambda *p: p == (2, 2, 2), lambda a2, d1, d2: 2 * a2 + 2),
            Family("2,2,k<=3", "E7", lambda *p: p == (2, 2, 3)),
            Family("k>=3,2,k<=2", "A", lambda a2, d1, d2: a2 >= 3 and (d1, d2) == (2, 1)),
            Family(
                "k>=3,2,k<=2",
                "D",
                lambda a2, d1, d2: a2 >= 3 and (d1, d2) == (2, 2),
                lambda a2, d1, d2: 2 * a2 + 2,
            ),
            Family("k>=2,k>=3,1", "A", lambda a2, d1, d2: a2 >= 2 and d1 >= 3 and d2 == 1),
        ),
    ),
    "plt-6": PltCase(
        lambda a2: ((2 * a2 + 1, a2, 1), (2, 1, 1), 2 * a2 + 1),
        lambda s, d: (s[1],),
        lambda b: _box(b, 2),
        (Family("a2>=2", "D", lambda a2: a2 >= 2, lambda a2: 2 * a2 + 2),),
    ),
    "plt-7": PltCase(
        lambda a2, l, d1, d2: ((l * a2 - 1, a2, 1), (d1, d2, 1), l * a2),
        lambda s, d: (s[1], (s[0] + 1) // s[1], d[0], d[1]),
        lambda b: _box(b, 2, 2, 1, 1),
        (
            Family(
                "2,2,1",
                "D",
                lambda a2, l, d1, d2: a2 >= 2 and (l, d1, d2) == (2, 2, 1),
                lambda a2, l, d1, d2: 2 * a2 + 1,
            ),
            Family("l,1,k", "A", lambda a2, l, d1, d2: a2 >= 2 and l >= 2 and d1 == 1),
        ),
    ),
    "plt-8": PltCase(
        lambda a1, a2, d1: ((a1, a2, 1), (1, 1, d1), a1 + a2),
        lambda s, d: (s[0], s[1], d[2]),
        lambda b: [
            (a1, a2, d1)
            for a1 in range(3, b + 1)
            for a2 in range(2, a1)
            if gcd(a1, a2) == 1
            for d1 in range(1, b + 1)
        ],
        (Family("a1>a2>=2,d1>=1", "A", lambda a1, a2, d1: a1 > a2 >= 2),),
    ),
}


def match_plt_case(case, surface_weights, boundary):
    """(record, curve class) of one plt case on a surface, or None.

    boundary holds the integer indices aligned with the coordinate lines.
    The case's parameters are read off each simultaneous permutation of the
    coordinates in turn; the first that the case's shape reproduces and a
    constraint family contains is the match.
    """
    entry = PLT_CASES.get(case)
    if entry is None:
        raise ValueError("unknown plt case %r" % (case,))
    orders = zip(permutations(surface_weights), permutations(boundary))
    for s, d in dict.fromkeys(orders):  # each distinct order once, first to last
        params = entry.read(s, d)
        weights, indices, gamma = entry.shape(*params)
        family = entry.family(params) if (weights, indices) == (s, d) else None
        if family is not None:
            return TripleRecord(case, params, family.label(params)), gamma
    return None


def classify_plt_triple(surface_weights, boundary, gamma_degree):
    """Match a (surface, boundary, curve class) query against cases 1-8.

    surface_weights: the three weights of the surface; boundary: the integer
    indices (d1,d2,d3) aligned with the coordinate lines, d_i = 1 meaning no
    boundary on that line; gamma_degree: the class of the marked curve.
    Matching is up to simultaneous permutation of coordinates.  Returns a
    TripleRecord or None.
    """
    s0 = tuple(int(x) for x in surface_weights)
    d0 = tuple(int(x) for x in boundary)
    gamma = int(gamma_degree)
    if len(s0) != 3 or len(d0) != 3:
        raise ValueError("need three surface weights and three boundary indices")
    if any(x < 1 for x in s0) or any(x < 1 for x in d0) or gamma < 1:
        raise ValueError("weights, indices and the curve class must be positive")
    # a case fixes its curve class on a surface, and no two cases share a
    # surface and a curve class, so the case order decides nothing
    for case in PLT_CASES:
        match = match_plt_case(case, s0, d0)
        if match is not None and match[1] == gamma:
            return match[0]
    return None


def plt_chain_surface_record(case_id, r1, r2, d1, l=None):
    """Data records for the two chain-surface cases (three singular points).

    Case 9: S(1/r1(1,1) + 1/r2(1,1) + A_{r1+r2-1}) with boundary index d1 >= 2
    on the orbit closure through the first two singular points.  Case 10:
    S(1/r1(l,1) + 1/r2(l,1) + A_{(r1+r2)/l - 1}) with l >= 2 dividing r1+r2,
    d1 >= 1.  Both are of type A; no fan is reconstructed.
    """
    if case_id == 9:
        if r1 < 2 or r2 < 2 or d1 < 2:
            raise ValueError("case 9 needs r1, r2 >= 2 and d1 >= 2")
        sing = ("1/%d(1,1)" % r1, "1/%d(1,1)" % r2, "A%d" % (r1 + r2 - 1))
        return TripleRecord("plt-9", (r1, r2, d1) + sing, "A")
    if case_id == 10:
        if l is None or l < 2 or (r1 + r2) % l != 0 or r1 < 2 or r2 < 2 or d1 < 1:
            raise ValueError("case 10 needs l >= 2 dividing r1+r2, r1, r2 >= 2, d1 >= 1")
        sing = ("1/%d(%d,1)" % (r1, l), "1/%d(%d,1)" % (r2, l), "A%d" % ((r1 + r2) // l - 1))
        return TripleRecord("plt-10", (r1, r2, l, d1) + sing, "A")
    raise ValueError("chain-surface records exist for cases 9 and 10 only")


class CanonicalCase(NamedTuple):
    """The rows of one case of the canonical weight/degree table.

    forward maps the record parameters to (weights sorted descending, curve
    class, split degree); read lists the parameters that sorted weights
    could carry; scan lists the parameters a table up to a bound visits.
    """

    ade: str
    forward: Callable
    read: Callable
    scan: Callable


def _desc(*w):
    return tuple(sorted(w, reverse=True))


# the three D shapes: name -> (position of l in the sorted weights,
# l -> (weights, curve class, split degree))
_D_SHAPES = {
    "l,l-1,2": (0, lambda l: (_desc(l, l - 1, 2), l, None)),
    "l+1,l,1": (1, lambda l: ((l + 1, l, 1), 2 * l, 1)),
    "l,l,1": (0, lambda l: ((l, l, 1), 2, None)),
}

# the sporadic E rows: type -> {weights sorted descending: (curve class, split degree)}
_E_ROWS = {
    "E6": {(3, 2, 2): (3, None), (6, 4, 3): (2, None), (5, 3, 2): (9, None), (4, 2, 1): (3, None)},
    "E7": {
        (3, 2, 2): (3, None),
        (6, 4, 3): (2, None),
        (9, 6, 4): (3, None),
        (3, 3, 1): (2, None),
        (5, 4, 2): (5, None),
        (7, 5, 3): (14, None),
        (5, 3, 2): (6, 3),
    },
    "E8": {
        (3, 2, 2): (3, None),
        (6, 4, 3): (2, None),
        (9, 6, 4): (3, None),
        (12, 8, 5): (6, None),
        (15, 10, 6): (1, None),
        (5, 4, 2): (5, None),
        (10, 7, 4): (10, None),
        (8, 5, 3): (15, None),
    },
}


def _e_case(ade, rows):
    return CanonicalCase(
        ade,
        lambda *w: (w,) + rows[w],
        lambda w: [w] if w in rows else [],
        lambda bound: list(rows),
    )


CANONICAL_CASES = {
    # (a1 q3, a2 q3, 1) with Gamma ~ O(a1 + a2), a1 >= a2 coprime
    "canonical-A": CanonicalCase(
        "A",
        lambda a1, a2, q3: (_desc(a1 * q3, a2 * q3, 1), a1 + a2, None),
        lambda w: [(w[0] // gcd(w[0], w[1]), w[1] // gcd(w[0], w[1]), gcd(w[0], w[1]))],
        lambda bound: [
            (a1, a2, q3)
            for q3 in range(1, bound + 1)
            for a1 in range(1, bound // q3 + 1)
            for a2 in range(1, a1 + 1)
            if gcd(a1, a2) == 1
        ],
    ),
    # three D shapes for each l >= 2; a record names its shape
    "canonical-D": CanonicalCase(
        "D",
        lambda l, shape: _D_SHAPES[shape][1](l),
        lambda w: [(w[i], shape) for shape, (i, _) in _D_SHAPES.items() if w[i] >= 2],
        lambda bound: [(l, shape) for shape in _D_SHAPES for l in range(2, bound + 1)],
    ),
    **{"canonical-" + t: _e_case(t, rows) for t, rows in _E_ROWS.items()},
}


def canonical_matches(weights):
    """(record, curve class) of every canonical-table row with these weights.

    Weights are taken up to permutation.  A single weight triple may lie in
    several type lists, so this is a list, in table order.
    """
    w = _desc(*weights)
    out = []
    for case, entry in CANONICAL_CASES.items():
        for params in entry.read(w):
            row_weights, gamma, split = entry.forward(*params)
            if row_weights == w:
                record = TripleRecord(case, params, entry.ade, split_gamma1=split)
                out.append((record, gamma))
    return out


def classify_canonical_triple(w, gamma_degree):
    """All rows of the canonical weight/degree table matching (w, Gamma degree).

    Matching is up to permutation of the weights.  A single pair may lie in
    several type lists (e.g. (3,2,2) with a cubic matches the D family at
    l = 3 and the E6/E7/E8 lists), so the result is a tuple of records.
    """
    w = _desc(*(int(x) for x in w))
    gamma = int(gamma_degree)
    if len(w) != 3:
        raise ValueError("need three weights")
    if any(x < 1 for x in w) or gamma < 1:
        raise ValueError("weights and the curve class must be positive")
    if gcd(gcd(w[0], w[1]), w[2]) != 1:
        raise ValueError("weights must be primitive")
    return tuple(record for record, g in canonical_matches(w) if g == gamma)


def canonical_triple_table(bound):
    """The full canonical table with all parameters up to the bound.

    Yields (record, weights, gamma) for the A family (a1 >= a2, a1 q3 <= bound),
    the three D rows (largest weight <= bound) and the sporadic E rows.
    """
    rows = []
    for case, entry in CANONICAL_CASES.items():
        for params in entry.scan(bound):
            w, gamma, split = entry.forward(*params)
            if max(w) <= bound:
                record = TripleRecord(case, params, entry.ade, split_gamma1=split)
                rows.append((record, w, gamma))
    rows.sort(key=lambda row: (row[1], row[2], row[0].case, row[0].params))
    return rows


def triple_case_classes(case):
    """The A/D/E classes a triple case can carry, None for an unknown case."""
    if case in PLT_CASES:
        return tuple(dict.fromkeys(f.ade for f in PLT_CASES[case].families))
    if case in CANONICAL_CASES:
        return (CANONICAL_CASES[case].ade,)
    return None


# ---------------------------------------------------------------------------
# the quadric triple conditions


_QUADRIC_SYMMETRY = (
    (0, 1, 2, 3),
    (1, 0, 2, 3),
    (0, 1, 3, 2),
    (1, 0, 3, 2),
    (2, 3, 0, 1),
    (3, 2, 0, 1),
    (2, 3, 1, 0),
    (3, 2, 1, 0),
)


def quadric_triple_condition(w, gamma_class=None, mode="plt"):
    """The quadric triple criteria, up to the quadric's coordinate symmetry.

    plt mode: some symmetric rearrangement has d23 = d24 = 1 and a1 | a2 (and
    Gamma ~ O(w2) restricted, when a class is supplied).  canonical mode: some
    rearrangement has w1 = 1 (and Gamma ~ O(w2), when supplied).
    """
    if mode not in ("plt", "canonical"):
        raise ValueError("mode is 'plt' or 'canonical'")
    base = quadric_surface_pair(w).weights
    for p in _QUADRIC_SYMMETRY:
        v = tuple(base[i] for i in p)
        if gamma_class is not None and gamma_class != v[1]:
            continue
        if mode == "canonical":
            if v[0] == 1:
                return True
            continue
        q = quadric_surface_pair(v)
        if q.d[(2, 3)] == 1 and q.d[(2, 4)] == 1 and q.a[1] % q.a[0] == 0:
            return True
    return False


def is_in_Pn(a, n):
    """Membership of the coefficient a in P_n: floor((n+1)a) >= n·a."""
    a = Fraction(a)
    n = int(n)
    if not (0 <= a <= 1):
        raise ValueError("coefficient must lie in [0, 1]")
    if n < 1:
        raise ValueError("n must be positive")
    lhs = ((n + 1) * a).numerator // ((n + 1) * a).denominator
    return lhs >= n * a
