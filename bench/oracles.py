"""Reference computations the benchmark checks the program against.

Nothing here imports toricsing.  Every check is integer arithmetic (or a
Fraction built from integer numerators) derived from the definitions and
from published results, not from the program's own formulas:

* the age oracle: 1/r(a1,a2,a3) is canonical iff A(k) = sum (k*a_i mod r)
  is >= r for every k = 1..r-1, terminal iff every A(k) > r (Reid--Tai);
* normal forms: the lexicographically least sorted tuple over the units;
* the canonical weighted blow-ups of a smooth point: (w1,w2,1), (l,l-1,2)
  and nine sporadic vectors (the paper's theorem, copied here);
* the canonical odp blow-ups: a unit weight;
* Kawamata: exactly one terminal weighted blow-up over 1/r(-1,-q,1);
* Kawakita: the terminal blow-ups of a smooth point are (a,b,1), gcd 1;
* the plt-case ampleness inequality  sum a - gamma - sum (d-1)/d a > 0;
* the chain laws  a' = beta2*a + beta1  and  Gamma~^2 = -m3/(m1*m2).
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

#: the nine canonical smooth-point weight vectors outside the two families
SPORADIC_SMOOTH = frozenset(
    [(5, 3, 2), (6, 4, 3), (7, 5, 3), (8, 5, 3), (9, 5, 2),
     (9, 6, 4), (10, 7, 4), (12, 8, 5), (15, 10, 6)]
)

#: weights of the sporadic rows of the canonical triple table (E6, E7, E8)
CANONICAL_E_ROWS = (
    (3, 2, 2), (6, 4, 3), (5, 3, 2), (4, 2, 1),
    (3, 2, 2), (6, 4, 3), (9, 6, 4), (3, 3, 1), (5, 4, 2), (7, 5, 3), (5, 3, 2),
    (3, 2, 2), (6, 4, 3), (9, 6, 4), (12, 8, 5), (15, 10, 6), (5, 4, 2),
    (10, 7, 4), (8, 5, 3),
)


# --- quotient germs ----------------------------------------------------------


def prime_factors(n):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def units(r):
    """The units of Z/r in increasing order (just 1 for r <= 2)."""
    ps = prime_factors(r)
    return [u for u in range(1, max(r, 2)) if all(u % p for p in ps)]


def age_verdict(r, weights):
    """(kind, witness_k, min_age) from the integer ages A(k), k = 1..r-1.

    The witness is the first k with A(k) < r (not canonical) or, failing
    that, the first k with A(k) = r (canonical, not terminal).
    """
    if r == 1:
        return "terminal", None, None
    a1, a2, a3 = (a % r for a in weights)
    x1 = x2 = x3 = 0
    low = eq = None
    min_age = 3 * r
    for k in range(1, r):
        x1 += a1
        x2 += a2
        x3 += a3
        if x1 >= r:
            x1 -= r
        if x2 >= r:
            x2 -= r
        if x3 >= r:
            x3 -= r
        s = x1 + x2 + x3
        if s < min_age:
            min_age = s
        if s < r:
            low = k
            break
        if s == r and eq is None:
            eq = k
    if low is not None:
        return "not-canonical", low, min_age
    if eq is not None:
        return "canonical-not-terminal", eq, min_age
    return "terminal", None, min_age


def fraction_verdict(r, weights):
    """The same verdict from the Fraction definition sum <k a_i / r>."""
    if r == 1:
        return "terminal", None
    sums = [
        sum((Fraction(k * a, r) - (k * a) // r for a in weights), Fraction(0))
        for k in range(1, r)
    ]
    low = [k for k, s in enumerate(sums, 1) if s < 1]
    if low:
        return "not-canonical", low[0]
    eq = [k for k, s in enumerate(sums, 1) if s == 1]
    if eq:
        return "canonical-not-terminal", eq[0]
    return "terminal", None


def orbit_min(r, weights):
    """Least sorted tuple among u*(a1,a2,a3) mod r over the units u."""
    if r == 1:
        return (0, 0, 0)
    a1, a2, a3 = (a % r for a in weights)
    best = None
    for u in units(r):
        t = sorted((u * a1 % r, u * a2 % r, u * a3 % r))
        if best is None or t < best:
            best = t
    return tuple(best)


def is_well_formed(r, weights):
    return all(gcd(a, r) == 1 for a in weights)


def classify_expect(r, weights):
    """What `toricsing classify` must report for 1/r(weights)."""
    w = tuple(a % r for a in weights)
    n = orbit_min(r, w)
    kind, witness, min_age = age_verdict(r, n)
    out = {"normalized": n, "kind": kind, "witness_k": witness, "md": None}
    if kind == "terminal" and is_well_formed(r, n):
        out["md"] = Fraction(1) if r == 1 else Fraction(min_age - r, r)
    return out


# --- blow-up charts ----------------------------------------------------------


def det3(u, v, w):
    return (
        u[0] * (v[1] * w[2] - v[2] * w[1])
        - u[1] * (v[0] * w[2] - v[2] * w[0])
        + u[2] * (v[0] * w[1] - v[1] * w[0])
    )


def cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def content(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def odp_vector(w):
    """The insert vector of odp weights, from w_i = pairing with the rays
    e1, e2, e3, e4 = (1,1,-1):  a = (w4, w2, w1 - w4)."""
    w1, w2, w3, w4 = w
    return (w4, w2, w1 - w4)


def a_s0(base, w):
    """a(S,0) = psi(v) - 1 for the functional psi equal to 1 on every ray of
    the base cone, solved by Cramer's rule on three of the rays."""
    kind = base[0]
    if kind == "smooth":
        rays, v = ((1, 0, 0), (0, 1, 0), (0, 0, 1)), tuple(w)
    elif kind == "cyclic":
        _, r, q = base
        rays, v = ((1, 0, 0), (0, 1, 0), (1, q, r)), tuple(w)
    else:
        rays, v = ((1, 0, 0), (0, 1, 0), (0, 0, 1)), odp_vector(w)
    d = det3(*rays)
    # psi = (1,1,1) M^-1 with M the rows `rays`; psi(v) = sum_i det(M with
    # row i replaced by v) / det(M).
    num = sum(
        det3(*[v if j == i else rays[j] for j in range(3)]) for i in range(3)
    )
    return Fraction(num, d) - 1


def chart_formulas(base, w):
    """Raw chart types (r, weights) from the paper's chart formulas."""
    kind = base[0]
    if kind == "smooth":
        w1, w2, w3 = w
        return [(w1, (w2, w3, w1 - 1)), (w2, (w1, w3, w2 - 1)), (w3, (w1, w2, w3 - 1))]
    if kind == "cyclic":
        _, r, q = base
        w1, w2, w3 = w
        u = pow(q, -1, r)
        v = (1 - u * q) // r
        return [
            (w3, (-w1, -w2, 1)),
            (r * w2 - q * w3, (-w1 + u * w2 + v * w3, -u * w2 - v * w3, 1)),
            (r * w1 - w3, (-w1, q * w1 - w2, 1)),
        ]
    w1, w2, w3, w4 = w
    return [(w1, (w3, w4, -1)), (w2, (w3, w4, -1)), (w3, (w1, w2, -1)), (w4, (w1, w2, -1))]


# --- searches ----------------------------------------------------------------


def smooth_canonical_hits(bound):
    hits = {(w1, w2, 1) for w1 in range(1, bound + 1) for w2 in range(1, w1 + 1)}
    hits |= {(l, l - 1, 2) for l in range(3, bound + 1)}
    hits |= {w for w in SPORADIC_SMOOTH if w[0] <= bound}
    return hits


def smooth_family(w):
    if w in SPORADIC_SMOOTH:
        return "sporadic"
    if w[2] == 1:
        return "w1,w2,1"
    return "l,l-1,2"


def smooth_terminal_hits(bound):
    """Kawakita: the terminal weighted blow-ups of a smooth point."""
    return {
        (a, b, 1)
        for a in range(1, bound + 1)
        for b in range(1, a + 1)
        if gcd(a, b) == 1
    }


def odp_canonical_hits(bound):
    """Balanced primitive quadruples, least under the quadric's symmetries,
    with a unit weight."""
    out = set()
    rng = range(1, bound + 1)
    for w1 in rng:
        for w2 in rng:
            for w3 in rng:
                w4 = w1 + w2 - w3
                if not 1 <= w4 <= bound or 1 not in (w1, w2, w3, w4):
                    continue
                if content((w1, w2, w3, w4)) != 1:
                    continue
                w = (w1, w2, w3, w4)
                images = [
                    img
                    for a, b in ((w1, w2), (w2, w1))
                    for c, d in ((w3, w4), (w4, w3))
                    for img in ((a, b, c, d), (c, d, a, b))
                ]
                if min(images) == w:
                    out.add(w)
    return out


def plt_shape(case_id, p):
    """(surface weights, boundary indices, curve class) of one plt case."""
    if case_id == 1:
        return (1, 1, 1), (p[0], 1, 1), 2
    if case_id == 2:
        return (1, 1, 1), tuple(p), 1
    if case_id == 3:
        return (p[0], 1, 1), (p[1], p[2], 1), p[0]
    if case_id == 4:
        return (p[0], 1, 1), (1, p[1], 1), p[0] + 1
    if case_id == 5:
        return (p[0] + 1, p[0], 1), (p[1], p[2], 1), p[0] + 1
    if case_id == 6:
        return (2 * p[0] + 1, p[0], 1), (2, 1, 1), 2 * p[0] + 1
    if case_id == 7:
        a2, l, d1, d2 = p
        return (l * a2 - 1, a2, 1), (d1, d2, 1), l * a2
    a1, a2, d1 = p
    return (a1, a2, 1), (1, 1, d1), a1 + a2


def plt_candidates(case_id, bound):
    """Parameter tuples of one case within the bound (the scan's ranges)."""
    one = range(1, bound + 1)
    two = range(2, bound + 1)
    if case_id == 1:
        return [(d,) for d in one]
    if case_id == 2:
        return [(a, b, c) for a in two for b in range(a, bound + 1) for c in range(b, bound + 1)]
    if case_id in (3, 5):
        return [(a, d1, d2) for a in two for d1 in two for d2 in one]
    if case_id == 4:
        return [(a, d) for a in two for d in one]
    if case_id == 6:
        return [(a,) for a in two]
    if case_id == 7:
        return [(a, l, d1, d2) for a in two for l in two for d1 in one for d2 in one]
    return [
        (a1, a2, d)
        for a1 in range(3, bound + 1)
        for a2 in range(2, a1)
        if gcd(a1, a2) == 1
        for d in one
    ]


def plt_ample(case_id, p):
    """sum a - gamma - sum (d-1)/d a > 0, cleared of denominators."""
    a, d, gamma = plt_shape(case_id, p)
    den = d[0] * d[1] * d[2]
    lhs = (sum(a) - gamma) * den - sum((di - 1) * ai * (den // di) for ai, di in zip(a, d))
    return lhs > 0


def plt_hits(case_id, bound):
    return [p for p in plt_candidates(case_id, bound) if plt_ample(case_id, p)]


# --- log pairs and tables ----------------------------------------------------


def triple_expect(surface, indices, gamma):
    """(ample, log degree) of (P(a), sum (d-1)/d {x_i=0}, Gamma ~ O(gamma))."""
    den = indices[0] * indices[1] * indices[2]
    neg = Fraction(
        (sum(surface) - gamma) * den
        - sum((d - 1) * a * (den // d) for a, d in zip(surface, indices)),
        den,
    )
    log_degree = -neg * Fraction(gamma, surface[0] * surface[1] * surface[2])
    return neg > 0, log_degree


def totient_sum(n):
    """#{(a1, a2): 1 <= a2 <= a1 <= n, gcd(a1, a2) = 1}."""
    return sum(len(units(a)) for a in range(1, n + 1))


def canonical_triples_rows(bound):
    """Row count of the canonical triple table: the A family, the three D
    rows per l and the sporadic E rows, all with weights <= bound."""
    a_rows = sum(totient_sum(bound // q3) for q3 in range(1, bound + 1))
    d_rows = 2 * (bound - 1) + max(0, bound - 2)
    e_rows = sum(1 for w in CANONICAL_E_ROWS if max(w) <= bound)
    return a_rows + d_rows + e_rows


def canonical_smooth_rows(bound):
    return bound * (bound + 1) // 2 + max(0, bound - 2) + sum(
        1 for w in SPORADIC_SMOOTH if w[0] <= bound
    )


def exceptional_surface(w):
    """P(a1,a2,a3) and boundary indices q_i = gcd of the other two weights."""
    q = (gcd(w[1], w[2]), gcd(w[0], w[2]), gcd(w[0], w[1]))
    a = tuple(w[i] * q[i] // (q[0] * q[1] * q[2]) for i in range(3))
    return a, q


# --- chains ------------------------------------------------------------------


def gamma_tilde_sq(gamma_sq, pair, a_plus_1, beta1, beta2):
    """beta1 * pair / (a+1) - beta2 * Gamma^2 over one common denominator
    built from the raw numerators."""
    gn, gd = gamma_sq.numerator, gamma_sq.denominator
    pn, pd = pair.numerator, pair.denominator
    an, ad = a_plus_1.numerator, a_plus_1.denominator
    return Fraction(beta1 * pn * ad * gd - beta2 * gn * pd * an, pd * an * gd)


def point_step(point, beta1, beta2):
    """(k, m) at one marked point: k the index of the new fibre, k*m the
    local index.  Cone points use the rays, index points the stored k."""
    if "rays" not in point:
        return point["k"], point["r"] // point["k"]
    e1, e2, e3 = point["rays"]
    b = tuple(beta1 * x + beta2 * y for x, y in zip(e2, e3))
    k = content(cross(b, e1))
    return k, abs(det3(e1, e2, e3)) // k


def chain_refusal(state, beta1, beta2):
    """The reason a step from `state` (a transcript entry) must refuse,
    or None when it may proceed."""
    if not state["type"].startswith("A"):
        return "chain terminates: only type A continues"
    if state["points"] is None:
        return state.get("note") or "continuation data is outside the modeled envelope"
    m1, m2, m3 = state["triple"]
    k1, k2, _ = state["boundary"]
    if state["step"] >= 1 and not Fraction(m3) > beta2 * (Fraction(m1, k2) + Fraction(m2, k1)):
        return "chain terminates: the contraction inequality fails"
    gsq, pair = (Fraction(x) for x in state["gamma"])
    gts = gamma_tilde_sq(gsq, pair, Fraction(state["a_plus_1"]), beta1, beta2)
    if gts >= 0:
        return "chain terminates: the inserted curve has nonnegative self-intersection"
    (_, n1), (_, n2) = (point_step(p, beta1, beta2) for p in state["points"])
    if (-gts * n1 * n2).denominator != 1:
        return "chain terminates: no integral contraction point for these weights"
    return None
