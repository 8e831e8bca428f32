"""Exact lattice arithmetic in Z^3: vectors, Smith normal form, simplicial cones.

Everything is integer or Fraction arithmetic; no floats.  Vectors are plain
int 3-tuples, matrices are 3-tuples of row 3-tuples.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


# ---------------------------------------------------------------------------
# vectors


def content(v):
    """gcd of the coordinates (nonnegative; 0 only for the zero vector)."""
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def primitivize(v):
    """Split v into (primitive direction, positive content).

    The direction keeps the sign of v: (-3,6,9) -> ((-1,2,3), 3).
    """
    g = content(v)
    if g == 0:
        raise ValueError("zero vector has no direction")
    return tuple(x // g for x in v), g


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def det3(u, v, w):
    return dot(u, cross(v, w))


def det2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(c, v):
    return tuple(c * x for x in v)


# ---------------------------------------------------------------------------
# 3x3 matrices (tuples of rows)

IDENTITY3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def mat_vec(a, v):
    return tuple(sum(a[i][k] * v[k] for k in range(3)) for i in range(3))


def mat_det(a):
    return det3(a[0], a[1], a[2])


def adjugate(a):
    """Adjugate matrix, so a · adj(a) = det(a) · I."""
    cofactor = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            rows = [r for r in range(3) if r != i]
            cols = [c for c in range(3) if c != j]
            minor = (
                a[rows[0]][cols[0]] * a[rows[1]][cols[1]]
                - a[rows[0]][cols[1]] * a[rows[1]][cols[0]]
            )
            cofactor[i][j] = (-1) ** (i + j) * minor
    return tuple(tuple(cofactor[j][i] for j in range(3)) for i in range(3))


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass(frozen=True)
class SNFDecomposition:
    """U · M · V = diag(d1,d2,d3) with U, V unimodular and d1 | d2 | d3."""

    left: tuple
    diag: tuple
    right: tuple


def smith_normal_form(m):
    """Smith normal form with transform tracking.

    Works for singular matrices too (zero diagonal entries allowed).
    """
    a = [list(row) for row in m]
    u = [list(row) for row in IDENTITY3]
    v = [list(row) for row in IDENTITY3]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):
        for k in range(3):
            a[dst][k] += c * a[src][k]
            u[dst][k] += c * u[src][k]

    def add_col(dst, src, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        for k in range(3):
            a[i][k] = -a[i][k]
            u[i][k] = -u[i][k]

    for t in range(3):
        while True:
            # find the entry of least nonzero magnitude in the trailing block
            pivot = None
            for i in range(t, 3):
                for j in range(t, 3):
                    if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                        pivot = (i, j)
            if pivot is None:
                break  # trailing block is zero
            swap_rows(t, pivot[0])
            swap_cols(t, pivot[1])
            dirty = False
            for i in range(t + 1, 3):
                q = a[i][t] // a[t][t]
                if q:
                    add_row(i, t, -q)
                if a[i][t]:
                    dirty = True
            for j in range(t + 1, 3):
                q = a[t][j] // a[t][t]
                if q:
                    add_col(j, t, -q)
                if a[t][j]:
                    dirty = True
            if dirty:
                continue
            # pivot must divide the whole trailing block for d1 | d2 | d3
            bad = None
            for i in range(t + 1, 3):
                for j in range(t + 1, 3):
                    if a[i][j] % a[t][t] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(t, bad, 1)
        if a[t][t] < 0:
            negate_row(t)

    diag = (a[0][0], a[1][1], a[2][2])
    return SNFDecomposition(
        left=tuple(tuple(row) for row in u),
        diag=diag,
        right=tuple(tuple(row) for row in v),
    )


# ---------------------------------------------------------------------------
# cones


@dataclass(frozen=True)
class Cone:
    """A simplicial cone in Z^3 spanned by three independent primitive rays.

    Generators are stored primitivized and sorted, so equality is structural;
    anything that needs a particular generator order works with raw triples
    and the ordered_* helpers below.
    """

    generators: tuple

    def __init__(self, generators):
        gens = tuple(sorted(primitivize(g)[0] for g in generators))
        if len(gens) != 3 or det3(*gens) == 0:
            raise ValueError("cone generators must be three independent vectors")
        object.__setattr__(self, "generators", gens)

    def as_dict(self):
        return {"generators": [list(g) for g in self.generators]}


def cone_index(c):
    """|det| of the generators; 1 exactly for smooth cones."""
    return abs(det3(*c.generators))


def ordered_quotient_weights(g1, g2, g3):
    """Quotient data of the cone on (g1,g2,g3), aligned with the given order.

    Returns (r, (a1,a2,a3)): the quotient C^3/G in the eigencoordinates dual
    to the generators, G cyclic of order r acting with weight a_i on the
    coordinate dual to g_i.  Raises if the quotient group is not cyclic.

    Writing the generators as the columns of G and U·G·V = diag(d1,d2,d3),
    the group N/(Zg1+Zg2+Zg3) is cyclic iff d1 = d2 = 1, generated by
    U^{-1}e3, and the weight on the i-th eigencoordinate is V[i][2] mod r.
    """
    cols = tuple(tuple(g[i] for g in (g1, g2, g3)) for i in range(3))
    snf = smith_normal_form(cols)
    d1, d2, r = snf.diag
    if r == 0:
        raise ValueError("cone generators must be three independent vectors")
    if d1 != 1 or d2 != 1:
        raise ValueError("cone quotient is not cyclic")
    if r == 1:
        return 1, (0, 0, 0)
    weights = tuple(snf.right[i][2] % r for i in range(3))
    return r, weights


def raw_quotient_type(c):
    """(r, weights) for a Cone, in the stored generator order."""
    return ordered_quotient_weights(*c.generators)


def interior_hyperplane_functional(c, values):
    """The unique linear functional with prescribed values on the generators.

    Values are aligned with c.generators as stored.  Returns a
    LinearFunctional with exact Fraction coefficients.
    """
    cols = tuple(tuple(g[i] for g in c.generators) for i in range(3))
    d = mat_det(cols)
    adj = adjugate(cols)
    # psi = values · cols^{-1}  (row vector times inverse of the column matrix)
    coeffs = tuple(
        Fraction(sum(values[k] * adj[k][j] for k in range(3)), d) for j in range(3)
    )
    return LinearFunctional(coeffs)


@dataclass(frozen=True)
class LinearFunctional:
    coeffs: tuple

    def __call__(self, v):
        return sum((c * x for c, x in zip(self.coeffs, v)), Fraction(0))


def barycentric_coordinates(c_generators, w):
    """Solve w = sum(lambda_i · g_i) exactly; returns a Fraction triple."""
    cols = tuple(tuple(g[i] for g in c_generators) for i in range(3))
    d = mat_det(cols)
    adj = adjugate(cols)
    return tuple(
        Fraction(sum(adj[i][k] * w[k] for k in range(3)), d) for i in range(3)
    )


def is_strictly_interior(c_generators, w):
    return all(x > 0 for x in barycentric_coordinates(c_generators, w))


# ---------------------------------------------------------------------------
# projections and two-dimensional ordered types


def completion_to_basis(w):
    """A unimodular matrix U with U·w = e3, for primitive w.

    The first two rows of U then compute coordinates in N/Zw = Z^2.
    """
    if content(w) != 1:
        raise ValueError("can only complete a primitive vector to a basis")
    u = [list(row) for row in IDENTITY3]
    v = list(w)

    def reduce_pair(i, j):
        # run extended gcd on coordinates i, j of v, tracking row ops on u
        while v[j] != 0:
            q = v[i] // v[j]
            v[i] -= q * v[j]
            for k in range(3):
                u[i][k] -= q * u[j][k]
            v[i], v[j] = v[j], v[i]
            u[i], u[j] = u[j], u[i]

    reduce_pair(0, 1)  # -> v = (g, 0, w3)
    reduce_pair(2, 0)  # -> v = (0, 0, ±1)
    if v[2] < 0:
        for k in range(3):
            u[2][k] = -u[2][k]
        v[2] = -v[2]
    if v != [0, 0, 1]:
        raise RuntimeError("basis completion of %r ended at %r" % (w, v))
    return tuple(tuple(row) for row in u)


def project_along(w, vectors):
    """Images of the vectors in N/Zw = Z^2 for primitive w."""
    u = completion_to_basis(w)
    return [tuple(mat_vec(u, x)[:2]) for x in vectors]


def face_type(u1, u2):
    """Ordered type (m, b) of the 2-d face spanned by two 3-d rays.

    Computed in the saturation of the span, so this is the transverse type
    of the germ along the face's curve: 1/m(1, b) with the u1-eigencoordinate
    carrying weight 1.  Both rays must be primitive.
    """
    n = cross(u1, u2)
    if n == (0, 0, 0):
        raise ValueError("rays are parallel")
    n, _ = primitivize(n)
    z = completion_to_basis(n)[2]  # z·n = 1, so Z^3 = (saturated span) + Zz
    r, weights = ordered_quotient_weights(u1, u2, z)
    if r == 1:
        return 1, 0
    if weights[2] % r:  # the complement direction is unmoved
        raise RuntimeError("the complement direction of the face moves")
    return r, (weights[1] * pow(weights[0], -1, r)) % r
