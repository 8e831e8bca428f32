"""Contraction chains on exceptional surfaces of canonical blow-ups.

A canonical weighted blow-up carries a log pair (S, Diff + Gamma) on its
exceptional surface: S is a weighted projective plane, Diff collects the
transverse quotient types along the toric boundary lines, and Gamma is the
marked curve of the classified triple.  When the triple is of type A the
pair can be contracted and re-expanded: pick a curve class
Gamma~ = beta1*Gamma_fib + beta2*Gamma_sec through the two marked points,
contract it, and land on a new (typically smaller) log pair whose surface
is again toric with three boundary curves E0, F1, F2.  Iterating gives a
chain of states; types D and E admit no continuation, so their chains stop
at length one.

The local analytic data at the two marked points is carried in one of two
forms.  Points inherited from the starting blow-up (and their section-side
descendants) are explicit three-dimensional cones with ordered rays
(E1, E2, E3): the surface germ is the E3-quotient, Gamma runs along the
image of the (E2, E3)-face, and all step arithmetic (indices k and m) is
lattice arithmetic on the cone.  The contraction point created by a step is
carried by index bookkeeping alone (the order r of its local quotient
group, which the step arithmetic determines as k1 * k2 * m3): its germ is
a quotient singularity whose full cone the model does not reconstruct.
Either way the chain never consults the original threefold again.

A separate bookkeeping operation tracks discrepancies of repeated elephant
pullbacks for triples coming from the canonical table; it shares the state
object but moves none of the surface data.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

from .blowup import (
    WeightedBlowup,
    chart_types,
    discrepancy_zero,
    is_canonical_blowup,
)
from .lattice import (
    content,
    cross,
    det2,
    det3,
    face_type,
    primitivize,
    project_along,
    vec_add,
    vec_scale,
)
from .quotient import is_terminal
from .surfaces import (
    TripleRecord,
    canonical_matches,
    exceptional_surface,
    match_plt_case,
    triple_case_classes,
)


class ChainError(ValueError):
    """A chain operation that is well-posed but refuses to continue."""


def complement_index_for(ade):
    """Index of the complement attached to each A/D/E class."""
    if ade.startswith("A"):
        return 1
    if ade.startswith("D"):
        return 2
    return {"E6": 3, "E7": 4, "E8": 6}[ade]


@dataclass(frozen=True)
class MarkedPoint:
    """A marked point of the pair, as a 3-d cone with ordered rays.

    rays = (E1, E2, E3): the surface germ at the point is the transversal
    slice of the E3-quotient, the curve germ of Gamma is cut by the
    (E2, E3)-face and the fibre direction by the (E1, E3)-face.  The
    (E2, E3)-face must be unimodular: Gamma is Cartier along itself.
    """

    rays: tuple
    label: str = "point"

    def __post_init__(self):
        if len(self.rays) != 3:
            raise ValueError("a marked point needs three rays")
        for ray in self.rays:
            if len(ray) != 3 or any(int(x) != x for x in ray):
                raise ValueError("rays must be integer 3-vectors")
            if content(ray) != 1:
                raise ValueError("rays must be primitive")
        if det3(*self.rays) == 0:
            raise ValueError("marked-point rays are not independent")
        if content(cross(self.rays[1], self.rays[2])) != 1:
            raise ValueError("the curve-germ face must be unimodular")

    @property
    def local_index(self):
        """Order of the local quotient group (|det| of the cone)."""
        return abs(det3(*self.rays))

    def as_dict(self):
        return {"rays": [list(r) for r in self.rays], "label": self.label}


@dataclass(frozen=True)
class IndexPoint:
    """A marked point carried by index bookkeeping instead of a cone.

    Used for the contraction point a step creates: r is the order of the
    local quotient group there and k the transverse index of the fibre
    through the point.  The group is generally not cyclic and its surface
    trace need not act freely in codimension one, so no single lattice cone
    represents the germ; the pair (r, k) is exactly what the next step's
    extraction consumes (m = r / k).
    """

    r: int
    k: int = 1
    label: str = "contraction"

    def __post_init__(self):
        if int(self.r) != self.r or self.r < 1:
            raise ValueError("the local index r must be a positive integer")
        if int(self.k) != self.k or self.k < 1 or self.r % self.k != 0:
            raise ValueError("k must be a positive integer dividing r")

    @property
    def local_index(self):
        """Order of the local quotient group."""
        return self.r

    def as_dict(self):
        return {"r": self.r, "k": self.k, "label": self.label}


@dataclass(frozen=True)
class ChainState:
    """One state of a contraction chain.

    triple = (m1, m2, m3): boundary-curve indices of the current surface
    (fibre, fibre, section for step >= 1; at the start the two marked-point
    indices and 1).  boundary = (k1, k2, b2): indices of the boundary part
    of Diff along F1, F2, E0.  gamma = (Gamma^2, (K+Diff).Gamma) as exact
    rationals.  a_plus_1 is 1 + the discrepancy of the originating
    exceptional divisor, which grows along the chain.  points holds the two
    marked points when type-A continuation is available, () for types D/E,
    and None when the data left the modeled envelope (note says why).
    """

    step: int
    triple: tuple
    boundary: tuple
    gamma: tuple
    a_plus_1: Fraction
    case: str
    ade: str
    complement_index: int
    points: tuple | None
    note: str | None = None
    elephant_mult: int | None = None
    elephant_ledger: tuple = ()

    def __post_init__(self):
        if len(self.triple) != 3 or any(int(m) != m or m < 1 for m in self.triple):
            raise ValueError("the triple must be three positive integers")
        if len(self.boundary) != 3 or any(int(k) != k or k < 1 for k in self.boundary):
            raise ValueError("boundary indices must be positive integers")
        gsq, pair = self.gamma
        if not (gsq > 0):
            raise ValueError("the marked curve must have positive self-intersection")
        if not (pair < 0):
            raise ValueError("the pair degree on the marked curve must be negative")
        if not (self.a_plus_1 > 0):
            raise ValueError("a_plus_1 must be positive")
        allowed = triple_case_classes(self.case)
        if allowed is None:
            raise ValueError("unknown triple case %r" % (self.case,))
        if not any(
            self.ade == c or (c in ("A", "D") and self.ade.startswith(c))
            for c in allowed
        ):
            raise ValueError(
                "type %s is not carried by case %s" % (self.ade, self.case)
            )
        if self.complement_index != complement_index_for(self.ade):
            raise ValueError("complement index does not match the type")

    def as_dict(self):
        out = {
            "step": self.step,
            "triple": list(self.triple),
            "boundary": list(self.boundary),
            "gamma": [str(self.gamma[0]), str(self.gamma[1])],
            "a_plus_1": str(self.a_plus_1),
            "case": self.case,
            "type": self.ade,
            "complement_index": self.complement_index,
            "points": None
            if self.points is None
            else [p.as_dict() for p in self.points],
        }
        if self.note is not None:
            out["note"] = self.note
        if self.elephant_mult is not None:
            out["elephant_mult"] = self.elephant_mult
            out["elephant_ledger"] = [list(e) for e in self.elephant_ledger]
        return out


def gamma_tilde_sq(state, beta1, beta2):
    """Self-intersection of the inserted curve beta1*fib + beta2*sec.

    Computed from adjunction data alone: beta1 * (K+Diff).Gamma / (a+1)
    minus beta2 * Gamma^2.
    """
    beta1, beta2 = _check_beta(beta1, beta2)
    gsq, pair = state.gamma
    return Fraction(beta1) * Fraction(pair) / state.a_plus_1 - beta2 * Fraction(gsq)


def contraction_triple_check(gamma_tilde_square, triple):
    """Does a self-intersection value fit the triple's contraction shape?

    True exactly when the value equals -m3 / (m1 * m2).
    """
    m1, m2, m3 = triple
    if any(int(m) != m or m < 1 for m in triple):
        raise ValueError("the triple must be three positive integers")
    return Fraction(gamma_tilde_square) == Fraction(-m3, m1 * m2)


def continuation_inequality(state, beta2):
    """Can the section multiplicity beta2 be afforded by the current fan?

    m3 > beta2 * (m1/k2 + m2/k1), with the cross pairing of fibre indices
    against the opposite boundary indices.
    """
    beta2 = int(beta2)
    if beta2 < 1:
        raise ValueError("beta2 must be a positive integer")
    m1, m2, m3 = state.triple
    k1, k2, _ = state.boundary
    return Fraction(m3) > beta2 * (Fraction(m1, k2) + Fraction(m2, k1))


def _check_beta(beta1, beta2):
    beta1, beta2 = int(beta1), int(beta2)
    if beta1 < 1 or beta2 < 1:
        raise ValueError("beta must be a pair of positive integers")
    if gcd(beta1, beta2) != 1:
        raise ValueError("beta components must be coprime")
    return beta1, beta2


def _point_step_data(point, beta1, beta2):
    """(k, m) at one marked point for the curve beta1*E2 + beta2*E3.

    k is the transverse index of the new fibre through the point and m the
    index of the corner the fibre makes with the section on the new
    exceptional surface; k * m equals the local index.  On a cone point
    both come out of lattice arithmetic; on an index point the fibre index
    is the stored one (constant in beta: the formal germ carries no finer
    direction data).
    """
    if isinstance(point, IndexPoint):
        return point.k, point.r // point.k
    e1, e2, e3 = point.rays
    bvec = vec_add(vec_scale(beta1, e2), vec_scale(beta2, e3))
    bvec, cont = primitivize(bvec)
    if cont != 1:  # beta is coprime and the (E2, E3)-face unimodular
        raise RuntimeError("the curve direction %r is not primitive" % (bvec,))
    k = content(cross(bvec, e1))
    r = point.local_index
    if r % k:
        raise RuntimeError("fibre index %d does not divide the local index %d" % (k, r))
    return k, r // k


def step(state, beta1, beta2, fiber=1):
    """Contract beta1*fib + beta2*sec through the two marked points.

    Returns the next ChainState: the new surface triple (m1, m2, m3),
    boundary indices (k1, k2, beta2), intersection data of the new marked
    curve E0 + F_fiber, and the two new marked points when they stay inside
    the modeled envelope.  Raises ChainError when the chain terminates:
    non-A type, a failed continuation inequality, a curve of nonnegative
    self-intersection, or weights for which the contracted curve admits no
    contraction point of integral index.
    """
    if not state.ade.startswith("A"):
        raise ChainError("chain terminates: only type A continues")
    if state.points is None:
        raise ChainError(
            state.note or "continuation data is outside the modeled envelope"
        )
    beta1, beta2 = _check_beta(beta1, beta2)
    if fiber not in (1, 2):
        raise ValueError("the next curve class is E0 + F_j with j = 1 or 2")
    if state.step >= 1 and not continuation_inequality(state, beta2):
        raise ChainError("chain terminates: the contraction inequality fails")

    data = [_point_step_data(p, beta1, beta2) for p in state.points]
    (k1, m1), (k2, m2) = data
    gts = gamma_tilde_sq(state, beta1, beta2)
    if gts >= 0:
        raise ChainError(
            "chain terminates: the inserted curve has nonnegative self-intersection"
        )
    m3_frac = -gts * m1 * m2
    if m3_frac.denominator != 1:
        raise ChainError(
            "chain terminates: no integral contraction point for these weights"
        )
    m3 = int(m3_frac)
    if m3 < 1:
        raise RuntimeError("contraction index %d is not positive" % m3)

    # Line arithmetic on the new surface determined by (m1, m2, m3): the
    # section E0 has degree m3 and the fibres F1, F2 degrees m2, m1.
    e0_sq = Fraction(m3, m1 * m2)
    f_sq = {1: Fraction(m2, m1 * m3), 2: Fraction(m1, m2 * m3)}
    f1f2 = Fraction(1, m3)
    f_e0 = {1: Fraction(1, m1), 2: Fraction(1, m2)}
    j, jo = fiber, 3 - fiber

    gamma_sq_new = e0_sq + 2 * f_e0[j] + f_sq[j]
    kd_e0 = (
        -Fraction(1, k1) * f_e0[1]
        - Fraction(1, k2) * f_e0[2]
        - Fraction(1, beta2) * e0_sq
    )
    kd_fj = (
        -Fraction(1, k1) * (f_sq[1] if j == 1 else f1f2)
        - Fraction(1, k2) * (f1f2 if j == 1 else f_sq[2])
        - Fraction(1, beta2) * f_e0[j]
    )
    pair_new = kd_e0 + kd_fj
    a_plus_1_new = beta2 * state.a_plus_1 + beta1

    ks = {1: k1, 2: k2}
    points = None
    note = None
    if ks[j] != 1:
        note = (
            "the new curve meets the contraction point along a face of index > 1;"
            " further steps are outside the modeled envelope"
        )
    elif beta2 != 1:
        note = (
            "the contracted curve had section multiplicity > 1;"
            " further steps are outside the modeled envelope"
        )
    else:
        p_contract = IndexPoint(r=k1 * k2 * m3, k=1, label="contraction")
        old = state.points[jo - 1]
        if isinstance(old, IndexPoint):
            p_section = IndexPoint(r=beta2 * old.r, k=old.k, label="section")
        else:
            e1o, e2o, e3o = old.rays
            bvec_o = vec_add(vec_scale(beta1, e2o), vec_scale(beta2, e3o))
            p_section = MarkedPoint((e1o, e2o, bvec_o), label="section")
        points = (p_contract, p_section)

    return ChainState(
        step=state.step + 1,
        triple=(m1, m2, m3),
        boundary=(k1, k2, beta2),
        gamma=(gamma_sq_new, pair_new),
        a_plus_1=a_plus_1_new,
        case=state.case,
        ade=state.ade,
        complement_index=state.complement_index,
        points=points,
        note=note,
        elephant_mult=state.elephant_mult,
        elephant_ledger=state.elephant_ledger,
    )


def canonical_chain_step(state, beta1, beta2=1):
    """Ledger a pullback of the elephant along one chain step.

    Only available on states started from the canonical table (the elephant
    there has multiplicity one along the marked curve).  The pulled-back
    elephant keeps discrepancy a = beta1 + beta2 - 1 on the inserted curve
    and discrepancy 0 against the pair; beta2 is forced to 1.
    """
    if state.elephant_mult is None:
        raise ChainError("state carries no elephant ledger")
    if state.elephant_mult != 1:
        raise ChainError("the elephant ledger is modeled for multiplicity one")
    beta1 = int(beta1)
    beta2 = int(beta2)
    if beta1 < 1:
        raise ValueError("beta1 must be a positive integer")
    if beta2 != 1:
        raise ChainError("the elephant pullback forces beta2 = 1")
    a_plain = beta1 + beta2 - 1
    a_pair = a_plain - beta1 * state.elephant_mult
    if a_pair != 0:
        raise RuntimeError("the pulled-back elephant has discrepancy %d" % a_pair)
    return dataclasses.replace(
        state, elephant_ledger=state.elephant_ledger + ((a_plain, a_pair),)
    )


# ---------------------------------------------------------------------------
# Starting a chain from a blow-up and a classified triple
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StarSurface:
    """The exceptional surface of a blow-up, read off the star of its ray.

    gens are the base cone generators, w the inserted vector; rays are the
    primitive images of gens in the quotient lattice by w, cs their
    contents (= transverse boundary indices) and lams the weighted-plane
    weights (opposite-pair determinants).
    """

    gens: tuple
    w: tuple
    rays: tuple
    cs: tuple
    lams: tuple


def check_chain_base(b):
    """Raise ValueError unless chains are modeled over the blow-up's base."""
    if b.base.kind == "odp":
        raise ValueError("chain starts are modeled over smooth and cyclic bases only")


def star_surface(b):
    """The exceptional surface of a point blow-up, read off the star of its ray."""
    check_chain_base(b)
    gens = b.base.cone_generators()
    w = b.weights
    imgs = project_along(w, list(gens))
    prims, cs = zip(*(primitivize(v) for v in imgs))
    lams = tuple(
        abs(det2(prims[j], prims[k]))
        for j, k in ((1, 2), (2, 0), (0, 1))
    )
    for a in range(3):
        for bb in range(a + 1, 3):
            if gcd(lams[a], lams[bb]) != 1:
                raise ValueError(
                    "the exceptional surface is not a well-formed weighted"
                    " projective plane"
                )
    if b.base.kind == "smooth":
        surf = exceptional_surface(w)
        if (lams, cs) != (surf.weights, tuple(map(surf.boundary_index, (1, 2, 3)))):
            raise RuntimeError("the star of %r is not its exceptional surface" % (w,))
    return StarSurface(gens=gens, w=w, rays=prims, cs=cs, lams=lams)


_PAD_POINT_RAYS = ((1, 0, 0), (0, 0, 1), (0, 1, 0))


def _start_marked_points(star, gamma):
    """Marked points of the generic triple curve, or (None, why-not).

    The curve is forced through a vertex exactly when its line bundle has
    no pure power of that vertex's coordinate; along a boundary line of
    transverse index c >= 2 every crossing is a marked point.  Free
    crossings on index-1 lines are unmarked, and smooth generic points pad
    the collection to exactly two.
    """
    lams, cs, gens, w = star.lams, star.cs, star.gens, star.w
    pi = prod(lams)
    remaining = [Fraction(gamma * lam, pi) for lam in lams]
    points = []
    for i in range(3):
        if gamma % lams[i] == 0:
            continue  # a pure power of x_i keeps the curve off the vertex
        others = [x for x in range(3) if x != i]
        axis = None
        linear_seen = False
        for jj in others:
            if (gamma - lams[jj]) >= 0 and (gamma - lams[jj]) % lams[i] == 0:
                linear_seen = True
                if content(cross(gens[jj], w)) == 1:
                    axis = jj
                    break
        if axis is None:
            if linear_seen:
                return None, (
                    "the curve germ at a vertex runs along a face of index > 1"
                )
            return None, "the curve is singular at a vertex of the surface"
        kk = [x for x in others if x != axis][0]
        contact = None
        for t in range(0, gamma // lams[kk] + 1):
            if (gamma - t * lams[kk]) % lams[i] == 0:
                contact = t
                break
        if contact is None:
            return None, "a boundary line lies inside the curve at a vertex"
        remaining[axis] -= Fraction(contact, lams[i])
        remaining[kk] -= Fraction(1, lams[i])
        points.append(
            MarkedPoint((gens[kk], gens[axis], w), label="vertex-%d" % (i + 1))
        )
    for m in range(3):
        rem = remaining[m]
        if rem < 0 or rem.denominator != 1:
            return None, "crossing counts on a boundary line are not integral"
        if cs[m] == 1:
            continue
        c, s = face_type(gens[m], w)
        if c != cs[m]:
            raise RuntimeError("face index %d is not the boundary index %d" % (c, cs[m]))
        cone = ((c, -s, 0), (0, 0, 1), (0, 1, 0))
        for _ in range(int(rem)):
            points.append(MarkedPoint(cone, label="crossing-%d" % (m + 1)))
    while len(points) < 2:
        points.append(MarkedPoint(_PAD_POINT_RAYS, label="generic"))
    if len(points) > 2:
        return None, "type-A continuation is modeled for two marked points"
    return tuple(points), None


def start_chain(b, record):
    """Open a chain on the exceptional surface of a canonical blow-up.

    record is a classified triple (a TripleRecord): its surface data must
    match the blow-up's exceptional surface, and for canonical-table
    records the blow-up weights themselves must match the table row.
    """
    if not isinstance(b, WeightedBlowup):
        raise ValueError("start_chain needs a weighted blow-up")
    if not isinstance(record, TripleRecord):
        raise ValueError("start_chain needs a classified triple record")
    check_chain_base(b)
    if record.case in ("plt-9", "plt-10"):
        raise ValueError(
            "cases 9 and 10 record chain surfaces; they do not start a chain"
        )
    if not is_canonical_blowup(b):
        raise ValueError("chain starts require a canonical blow-up")

    elephant_mult = None
    if record.case.startswith("canonical-"):
        if b.base.kind != "smooth":
            raise ValueError("canonical-table starts live over a smooth base")
        rows = {(rec.case, rec.params): g for rec, g in canonical_matches(b.weights)}
        gamma = rows.get((record.case, tuple(record.params)))
        elephant_mult = 1
        star = star_surface(b)
    else:
        if not all(is_terminal(t) for t in chart_types(b)):
            raise ValueError(
                "the blow-up has canonical-but-not-terminal points;"
                " a plt triple cannot live on its exceptional surface"
            )
        star = star_surface(b)
        match = match_plt_case(record.case, star.lams, star.cs)
        gamma = match[1] if match and match[0].params == tuple(record.params) else None
    if gamma is None:
        raise ValueError("triple does not match the exceptional surface of this blow-up")

    if b.base.kind == "cyclic":
        for a in range(3):
            for bb in range(a + 1, 3):
                if gcd(star.cs[a], star.cs[bb]) != 1:
                    raise ValueError(
                        "chain starts over a cyclic base need pairwise coprime"
                        " boundary indices"
                    )

    lams, cs = star.lams, star.cs
    pi = prod(lams)
    gamma_sq = Fraction(gamma * gamma, pi)
    # (K_S + Diff).Gamma = (-sum lam + sum (c-1)/c lam) * gamma / prod lam
    neg_part = sum(lams) - sum(Fraction(c - 1, c) * lam for c, lam in zip(cs, lams))
    pair_deg = -neg_part * Fraction(gamma, pi)
    if not pair_deg < 0:
        raise ValueError("the triple is not negative against the pair")

    a_plus_1 = discrepancy_zero(b) + 1

    if record.ade.startswith("A"):
        points, note = _start_marked_points(star, gamma)
    else:
        points, note = (), None

    if points is not None and len(points) == 2:
        triple = (points[0].local_index, points[1].local_index, 1)
    else:
        triple = (1, 1, 1)

    return ChainState(
        step=0,
        triple=triple,
        boundary=(1, 1, 1),
        gamma=(gamma_sq, pair_deg),
        a_plus_1=a_plus_1,
        case=record.case,
        ade=record.ade,
        complement_index=complement_index_for(record.ade),
        points=points,
        note=note,
        elephant_mult=elephant_mult,
    )
