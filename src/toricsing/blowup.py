"""Weighted blow-ups of the three toric base germs and their chart arithmetic.

Bases: the smooth point C^3, the cyclic quotient 1/r(-1,-q,1) presented by the
cone <e1, e2, (1,q,r)> in Z^3, and the ordinary double point x1x2 + x3x4 = 0
presented by the cone over the square <e1, e2, e3, e4 = (1,1,-1)>.

A weight vector w determines the star subdivision at w; the chart at each
retained face is a cyclic quotient germ whose type is given in closed form
and cross-checked against the subdivided cones.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import lattice
from .lattice import content
from .quotient import (
    CyclicQuotientType,
    canonical_by_criterion,
    is_canonical,
    is_terminal,
    normalize,
)

E1 = (1, 0, 0)
E2 = (0, 1, 0)
E3 = (0, 0, 1)
E4 = (1, 1, -1)  # fourth ray of the odp cone


@dataclass(frozen=True)
class BaseSingularity:
    kind: str
    r: int = 1
    q: int = 0

    def __init__(self, kind, r=1, q=0):
        if kind not in ("smooth", "cyclic", "odp"):
            raise ValueError("unknown base kind %r" % (kind,))
        if kind == "cyclic":
            if r < 2 or not (1 <= q <= r - 1) or gcd(r, q) != 1:
                raise ValueError("cyclic base needs r >= 2 and q in [1, r-1] coprime to r")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "r", int(r))
        object.__setattr__(self, "q", int(q))

    @classmethod
    def smooth(cls):
        return cls("smooth")

    @classmethod
    def cyclic(cls, r, q):
        return cls("cyclic", r=r, q=q)

    @classmethod
    def odp(cls):
        return cls("odp")

    def cone_generators(self):
        """Generators of the base cone (3 for point quotients, 4 for the odp)."""
        if self.kind == "smooth":
            return (E1, E2, E3)
        if self.kind == "cyclic":
            return (E1, E2, (1, self.q, self.r))
        return (E1, E2, E3, E4)

    def as_dict(self):
        if self.kind == "cyclic":
            return {"kind": "cyclic", "r": self.r, "q": self.q}
        return {"kind": self.kind}


@dataclass(frozen=True)
class WeightedBlowup:
    base: BaseSingularity
    weights: tuple

    def __init__(self, base, weights):
        weights = tuple(int(w) for w in weights)
        if base.kind == "odp":
            if len(weights) != 4:
                raise ValueError("odp blow-up needs four weights")
            if any(w < 1 for w in weights):
                raise ValueError("weights must be positive")
            if weights[0] + weights[1] != weights[2] + weights[3]:
                raise ValueError("odp weights must balance: w1+w2 = w3+w4")
            if gcd(gcd(weights[0], weights[1]), gcd(weights[2], weights[3])) != 1:
                raise ValueError("weights must be primitive")
        else:
            if len(weights) != 3:
                raise ValueError("point blow-up needs three weights")
            if any(w < 1 for w in weights):
                raise ValueError("weights must be positive")
            if content(weights) != 1:
                raise ValueError("weights must be primitive")
            if base.kind == "cyclic":
                r, q = base.r, base.q
                w1, w2, w3 = weights
                if r * w1 - w3 < 1 or r * w2 - q * w3 < 1:
                    raise ValueError("vector not in the blow-up cone")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "weights", weights)

    def as_dict(self):
        return {"base": self.base.as_dict(), "weights": list(self.weights)}


@dataclass(frozen=True)
class ChartReport:
    """Chart types at the torus-fixed points of the blown-up germ.

    Charts come normalized; labels follow the weight order (P1, P2, ...).
    cs_points collects the labels whose germ is canonical-not-terminal or
    worse — the non-terminal locus markers.
    """

    labels: tuple
    charts: tuple
    verdicts: tuple
    cs_points: tuple

    def as_dict(self):
        return {
            "labels": list(self.labels),
            "charts": [c.as_dict() for c in self.charts],
            "verdicts": [v.as_dict() for v in self.verdicts],
            "cs_points": list(self.cs_points),
        }


def _report(raw_charts):
    labels = tuple("P%d" % (i + 1) for i in range(len(raw_charts)))
    charts = tuple(normalize(c) for c in raw_charts)
    verdicts = tuple(is_canonical(c) for c in charts)
    cs = tuple(l for l, v in zip(labels, verdicts) if v.kind != "terminal")
    return ChartReport(labels=labels, charts=charts, verdicts=verdicts, cs_points=cs)


def chart_types(b):
    """Raw chart types at the torus-fixed points, in weight order.

    Smooth base: 1/w_i(w_j, w_k, w_i - 1).  Cyclic base 1/r(-1,-q,1): with u
    the inverse of q mod r in [0, r) and v = (1 - uq)/r the charts are
    1/w3(-w1,-w2,1), 1/(rw2-qw3)(-w1+uw2+vw3, -uw2-vw3, 1) and
    1/(rw1-w3)(-w1, qw1-w2, 1).  Odp base: 1/w_i(w_k, w_l, -1) with (k,l)
    the complementary pair on the other side of the quadric.  The types are
    not normalized; the membership tests below need no normal form, since
    the criterion and terminality hold on a whole orbit of units and
    permutations or on none of it.
    """
    if b.base.kind == "smooth":
        w1, w2, w3 = b.weights
        return (
            CyclicQuotientType(w1, (w2, w3, w1 - 1)),
            CyclicQuotientType(w2, (w1, w3, w2 - 1)),
            CyclicQuotientType(w3, (w1, w2, w3 - 1)),
        )
    if b.base.kind == "cyclic":
        r, q = b.base.r, b.base.q
        w1, w2, w3 = b.weights
        u = pow(q, -1, r)
        v = (1 - u * q) // r
        return (
            CyclicQuotientType(w3, (-w1, -w2, 1)),
            CyclicQuotientType(
                r * w2 - q * w3, (-w1 + u * w2 + v * w3, -u * w2 - v * w3, 1)
            ),
            CyclicQuotientType(r * w1 - w3, (-w1, q * w1 - w2, 1)),
        )
    w1, w2, w3, w4 = b.weights
    return (
        CyclicQuotientType(w1, (w3, w4, -1)),
        CyclicQuotientType(w2, (w3, w4, -1)),
        CyclicQuotientType(w3, (w1, w2, -1)),
        CyclicQuotientType(w4, (w1, w2, -1)),
    )


def charts(b):
    """The chart report of a blow-up: normalized charts and their verdicts."""
    return _report(chart_types(b))


def charts_smooth(w):
    return charts(WeightedBlowup(BaseSingularity.smooth(), w))


def charts_cyclic(base, w):
    return charts(WeightedBlowup(base, w))


def charts_odp(w):
    return charts(WeightedBlowup(BaseSingularity.odp(), w))


def odp_vector_to_weights(a):
    """Weights (a1+a3, a2, a2+a3, a1) of the insert vector a in the odp cone."""
    a1, a2, a3 = a
    if not (a1 > 0 and a2 > 0 and a1 + a3 > 0 and a2 + a3 > 0) or content(a) != 1:
        raise ValueError("vector outside the odp cone interior")
    return (a1 + a3, a2, a2 + a3, a1)


def odp_weights_to_vector(w):
    """Inverse of odp_vector_to_weights: (w4, w2, w1 - w4)."""
    w1, w2, w3, w4 = w
    return (w4, w2, w1 - w4)


def subdivided_cones(b):
    """(label, ordered generator triple) for each chart's cone.

    These are the maximal cones of the star subdivision at the weight vector;
    quotient_type on them must reproduce the closed-form charts.
    """
    if b.base.kind == "smooth":
        w = b.weights
        return [("P1", (w, E2, E3)), ("P2", (E1, w, E3)), ("P3", (E1, E2, w))]
    if b.base.kind == "cyclic":
        g = (1, b.base.q, b.base.r)
        w = b.weights
        return [("P1", (E1, E2, w)), ("P2", (E1, g, w)), ("P3", (E2, g, w))]
    a = odp_weights_to_vector(b.weights)
    return [
        ("P1", (E2, E4, a)),
        ("P2", (E1, E3, a)),
        ("P3", (E1, E4, a)),
        ("P4", (E2, E3, a)),
    ]


def discrepancy_zero(b):
    """a(S, 0): the discrepancy of the exceptional surface over the bare germ."""
    if b.base.kind == "smooth":
        return Fraction(sum(b.weights) - 1)
    if b.base.kind == "cyclic":
        r, q = b.base.r, b.base.q
        w1, w2, w3 = b.weights
        return Fraction(w3 + (r * w2 - q * w3) + (r * w1 - w3), r) - 1
    return Fraction(b.weights[0] + b.weights[1] - 1)


def toric_discrepancy(c, boundary_coeffs, w):
    """a(E_w, sum d_i D_i) on the germ of the cone c.

    boundary_coeffs align with c.generators as stored.  The functional psi
    with psi(v_i) = 1 - d_i evaluates the log discrepancy; the answer is
    psi(w) - 1.
    """
    if not lattice.is_strictly_interior(c.generators, w):
        raise ValueError("vector not strictly inside the cone")
    values = tuple(1 - Fraction(d) for d in boundary_coeffs)
    psi = lattice.interior_hyperplane_functional(c, values)
    return psi(w) - 1


@dataclass(frozen=True)
class MonomialDivisor:
    """A divisor cut out by a generic combination of the given monomials.

    Only the exponent support matters; coefficients are assumed generic.
    d is the rational multiple the divisor is taken with.
    """

    exponents: tuple
    d: Fraction = Fraction(1)

    def __init__(self, exponents, d=Fraction(1)):
        exponents = tuple(tuple(int(e) for e in m) for m in exponents)
        if not exponents:
            raise ValueError("monomial support must be nonempty")
        if any(e < 0 for m in exponents for e in m):
            raise ValueError("exponents must be nonnegative")
        if len({len(m) for m in exponents}) != 1:
            raise ValueError("exponents must have a common arity")
        object.__setattr__(self, "exponents", exponents)
        object.__setattr__(self, "d", Fraction(d))


def weighted_multiplicity(w, divisor):
    """min over the monomial support of <w, m>."""
    if any(len(m) != len(w) for m in divisor.exponents):
        raise ValueError("exponent arity does not match the weights")
    return min(sum(wi * ei for wi, ei in zip(w, m)) for m in divisor.exponents)


def divisor_discrepancy(b, divisor):
    """a(S, d·D) = a(S,0) - d·(weighted multiplicity of D)."""
    if b.base.kind == "cyclic":
        raise ValueError("monomial valuations on a cyclic base are not modeled")
    return discrepancy_zero(b) - divisor.d * weighted_multiplicity(b.weights, divisor)


def is_canonical_blowup(b):
    """Membership test for the classified canonical blow-ups.

    True when every chart satisfies the closed-form canonical criterion
    (integral age sums, an opposite weight pair, or one of the two
    exceptional types) and a(S,0) > 0.  The closed-form criterion is the
    test the classification runs at each chart, and on charts that are
    not well formed it is strictly stronger than chart-wise canonicity:
    weights (8,3,2) over a smooth point give charts that are all
    canonical in the Reid--Tai sense, yet the chart 1/8(3,2,7) meets
    none of the three closed-form cases, so (8,3,2) is rejected here.
    For primitive weights the criterion still implies every chart is
    canonical, so members really are canonical blow-ups.
    """
    return (
        all(canonical_by_criterion(c) for c in chart_types(b))
        and discrepancy_zero(b) > 0
    )


def is_terminal_blowup(b):
    return all(is_terminal(c) for c in chart_types(b)) and discrepancy_zero(b) > 0
