"""Classification of 3-dimensional cyclic quotient singularities 1/r(a1,a2,a3).

The ground truth everywhere is the fractional-part sum oracle: for each
k = 1..r-1 the sum of <k·a_i/r> over the three weights.  The singularity is
canonical iff every sum is >= 1 and terminal iff every sum is > 1.  On
well-formed types (every weight coprime to r) the closed-form criteria are
exposed and tested to agree with the oracle:

  canonical  <=>  every sum is an integer, or a_i + a_j = 0 mod r for some
                  i != j, or the normalized type is 1/9(1,4,7) or 1/14(1,9,11);
  terminal   <=>  a_i + a_j = 0 mod r for some i != j.

Everything runs on one integer kernel, A(k) = sum of (k·a_i mod r), the age
at k times r.  Cost: on well-formed types the verdict kind, the criterion,
is_terminal and minimal_discrepancy are O(1), normalize tries three units,
and the witness index of is_canonical is a lazy scan that stops at the first
witness (k = 1 for a canonical, non-terminal type in normal form).  Other
types cost one integer O(r) pass over the kernel; their normalize tries at
most 3·min gcd(a_i, r)/gcd(r, a1, a2, a3) units.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import lattice


@dataclass(frozen=True)
class CyclicQuotientType:
    """The quotient singularity 1/r(a1,a2,a3); weights reduced mod r."""

    r: int
    weights: tuple

    def __init__(self, r, weights):
        if r < 1:
            raise ValueError("group order must be positive")
        weights = tuple(int(a) % r for a in weights)
        if len(weights) != 3:
            raise ValueError("need exactly three weights")
        object.__setattr__(self, "r", int(r))
        object.__setattr__(self, "weights", weights)

    @property
    def is_well_formed(self):
        """Isolated-type condition: every weight invertible mod r."""
        return all(gcd(a, self.r) == 1 for a in self.weights)

    def as_dict(self):
        return {"r": self.r, "weights": list(self.weights)}

    def __str__(self):
        return "1/%d(%d,%d,%d)" % (self.r, *self.weights)


@dataclass(frozen=True)
class Verdict:
    """Classification outcome with a reproducible witness.

    kind is one of "terminal", "canonical-not-terminal", "not-canonical".
    witness_k, when set, is an element index whose fractional-part sum
    certifies the kind: sum < 1 for not-canonical, sum = 1 for
    canonical-not-terminal; terminal types carry no witness.
    """

    kind: str
    witness_k: int | None = None

    def as_dict(self):
        return {"kind": self.kind, "witness_k": self.witness_k}


def _ages(t):
    """A(k) = sum of (k*a_i mod r) over the weights, for k = 1..r-1.

    The age of the group element k is A(k)/r, so the fractional-part sum
    oracle compares A(k) with r: A(k) >= r everywhere is canonical and
    A(k) > r everywhere is terminal.  Lazy, so a witness scan stops early.
    """
    r = t.r
    a, b, c = t.weights
    for k in range(1, r):
        yield k * a % r + k * b % r + k * c % r


def _first_k(t, hit):
    """Least k whose A(k) satisfies hit."""
    return next(k for k, A in enumerate(_ages(t), 1) if hit(A))


def reid_tai_profile(t):
    """All fractional-part sums, indexed by k = 1..r-1 (empty for r = 1)."""
    return [Fraction(A, t.r) for A in _ages(t)]


def normalize(t):
    """Lexicographically least representative over weight permutations and
    multiplication by units of Z/r.  Idempotent.

    Zero weights sort first under every unit.  Past them the least entry
    over the orbit is m = min gcd(a_i, r), since the unit multiples of a
    are exactly the residues x with gcd(x, r) = gcd(a, r), and gcd(0, r) = r
    never attains it.  So only the units u with u*a_i = m (mod r) for an
    a_i with gcd(a_i, r) = m can reach the minimum: the lifts of
    (a_i/m)^-1 mod r/m.  The scaled weights depend on u only modulo
    p = r/gcd(r, a1, a2, a3), a multiple of r/m, and the units mod p are
    the images of the units mod r, so the lifts are taken mod p: at most
    3m/gcd(r, a1, a2, a3) of them, and on well-formed types just the three
    a_i^-1.
    """
    r, w = t.r, t.weights
    m = min(gcd(a, r) for a in w)
    if m == r:  # every weight is 0, the smooth point included
        return CyclicQuotientType(r, (0, 0, 0))
    step, period = r // m, r // gcd(r, *w)
    units = (
        u
        for a in w
        if gcd(a, r) == m
        for u in range(pow(a // m, -1, step), period, step)
        if gcd(u, period) == 1
    )
    # the least permutation of a tuple is the tuple sorted
    best = min(tuple(sorted(u * a % r for a in w)) for u in units)
    return CyclicQuotientType(r, best)


def has_opposite_weight_pair(t):
    """Some a_i + a_j = 0 mod r with i != j (the 1/r(q,-1,1) family)."""
    w = t.weights
    return any(
        (w[i] + w[j]) % t.r == 0 for i in range(3) for j in range(i + 1, 3)
    )


def is_terminal(t):
    """Oracle definition: every fractional-part sum strictly exceeds 1.

    On well-formed types this is the opposite-pair test (Morrison-Stevens).
    """
    if t.r == 1:
        return True
    if t.is_well_formed:
        return has_opposite_weight_pair(t)
    return all(A > t.r for A in _ages(t))


#: the two exceptional canonical types, both already in normal form
_EXCEPTIONAL_CANONICAL = (
    CyclicQuotientType(9, (1, 4, 7)),
    CyclicQuotientType(14, (1, 9, 11)),
)


def canonical_by_criterion(t):
    """The closed-form three-case canonical test.

    Every fractional-part sum is an integer iff r divides the weight sum,
    since the sum at k is k*(a1+a2+a3)/r mod 1.  On well-formed types (every
    weight coprime to r) the test is equivalent to canonicity.  On other
    types it stays computable and is the formal test the blow-up
    classification applies chart by chart; there it can be strictly
    stronger than canonicity (1/8(3,2,7) is canonical but meets none of the
    three cases).
    """
    if sum(t.weights) % t.r == 0 or has_opposite_weight_pair(t):
        return True
    return t.r in (9, 14) and normalize(t) in _EXCEPTIONAL_CANONICAL


def is_canonical(t):
    """Verdict for the type, with a witness index where one exists.

    Well-formed types are decided by the closed forms (the oracle
    equivalence is part of the test suite): terminal iff an opposite pair,
    canonical iff the three-case criterion.  The witness is then the first
    k with A(k) = r (canonical, not terminal) or A(k) < r (not canonical).
    Everything else is decided by one pass of the fractional-part oracle.
    """
    r = t.r
    if r == 1:
        return Verdict("terminal")
    if t.is_well_formed:
        if has_opposite_weight_pair(t):
            return Verdict("terminal")
        if canonical_by_criterion(t):
            k = _first_k(t, lambda A: A == r)
            return Verdict("canonical-not-terminal", witness_k=k)
        return Verdict("not-canonical", witness_k=_first_k(t, lambda A: A < r))
    equal = None
    for k, A in enumerate(_ages(t), 1):
        if A < r:
            return Verdict("not-canonical", witness_k=k)
        if A == r and equal is None:
            equal = k
    if equal is None:
        return Verdict("terminal")
    return Verdict("canonical-not-terminal", witness_k=equal)


def minimal_discrepancy(t):
    """min over exceptional divisors of the discrepancy, terminal types only.

    Equals min_k (fractional-part sum at k) - 1.  A well-formed terminal
    type is 1/r(a,-a,b) with b a unit, whose sum at k = b^-1 is 1 + 1/r; every
    sum is a multiple of 1/r above 1, so the minimum is 1/r, degenerating to
    1 at the smooth point r = 1.
    """
    if t.r == 1:
        return Fraction(1)
    if not t.is_well_formed:
        raise ValueError("minimal discrepancy requires a well-formed type")
    if not has_opposite_weight_pair(t):
        raise ValueError(
            "minimal discrepancy over exceptional divisors only defined here"
            " for terminal types"
        )
    return Fraction(1, t.r)


def quotient_type(c):
    """CyclicQuotientType of a simplicial cone (raw weights, not normalized).

    Raises if the quotient group attached to the cone is not cyclic.
    """
    r, weights = lattice.raw_quotient_type(c)
    return CyclicQuotientType(r, weights)
