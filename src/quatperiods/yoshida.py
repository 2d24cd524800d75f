"""Degree-2 Yoshida lift Fourier coefficients and diagonal restriction.

Fourier indices are half-integral matrices [[n1, m2/2], [m2/2, n2]] with the
off-diagonal taken from B(x1, x2)/2 (the theta-series convention; the factor
of 2 ambiguity against the displayed lift matrix is resolved this way and
flagged in the project notes).  Truncation is by trace(T) = n1 + n2.

Coefficient polynomials use the c_{a1 a2} machinery with the proportionality
constants set to 1, so everything here is exact, for vector values too.

The lattice sums run in integers: for each pair of classes the coefficient
polynomials are put over one common denominator with integer coefficients
(lattice.integer_terms), each vector's integer ambient coordinates and
monomials are computed once, and m2 is an integer dot product with B x1.
Every index accumulates integer numerators, which are divided by the common
denominator, and weighted by 1/(e_i e_j), once.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import chain
from operator import add, mul

from ._linalg import det
from ._poly import Poly
from .harmonics import c_coeff
from .lattice import integer_terms, monomial_values, short_vectors


class YoshidaError(ValueError):
    pass


class HalfIntMatrix(namedtuple("HalfIntMatrix", "n1 m2 n2")):
    """(n1, m2, n2) representing [[n1, m2/2], [m2/2, n2]]."""
    __slots__ = ()

    def is_psd(self):
        return self.n1 >= 0 and self.n2 >= 0 and \
            4 * self.n1 * self.n2 - self.m2 * self.m2 >= 0

    @property
    def trace(self):
        return self.n1 + self.n2

    def transform(self, u):
        """U^t T U for an integer 2x2 matrix U given as [[a,b],[c,d]]."""
        (a, b), (c, d) = u
        n1 = self.n1 * a * a + self.m2 * a * c + self.n2 * c * c
        n2 = self.n1 * b * b + self.m2 * b * d + self.n2 * d * d
        m2 = 2 * self.n1 * a * b + self.m2 * (a * d + b * c) \
            + 2 * self.n2 * c * d
        return HalfIntMatrix(n1, m2, n2)


class FourierTable:
    """Fourier coefficients of a degree-2 lift, indexed by HalfIntMatrix.

    Coefficients are Polys in 2 variables (X1, X2), homogeneous of degree
    2*nu2 (degree 0 in the scalar case).
    """

    def __init__(self, nu1, nu2, prec, coeffs=None):
        self.nu1, self.nu2, self.prec = nu1, nu2, prec
        self.coeffs = {} if coeffs is None else coeffs

    def indices(self):
        return sorted(self.coeffs)

    def to_json(self):
        return {
            "nu": [self.nu1, self.nu2],
            "prec": self.prec,
            "coeffs": [{"T": list(t),
                        "poly": self.coeffs[t].serialize()}
                       for t in self.indices()],
        }


def yoshida_lift(phi1, phi2, prec):
    """Fourier table of the degree-2 lift of (phi1, phi2) up to trace prec.

    a(T) = sum_{ij} (1/e_i e_j) sum_{(x1,x2) in I_ij^2, index T}
           Psi(phi1(y_i) x phi2(y_j))(x1, x2),
    with the coefficient polynomials normalized by c-tilde = 1.  The lift is
    computed even when the w_p eigenvalues of the inputs differ (where it
    must come out identically zero).
    """
    cs = phi1.class_set
    if phi2.class_set is not cs:
        raise YoshidaError("forms must live on the same class set")
    nu1, nu2 = phi1.weight, phi2.weight
    if nu1 < nu2 or (nu1 - nu2) % 2:
        raise YoshidaError("need nu1 >= nu2 with nu1 - nu2 even")
    alg = cs.order.algebra
    table = FourierTable(nu1, nu2, prec)
    scalar = (nu1 == 0 and nu2 == 0)

    # all X-slots are stored: odd alpha' components are nonzero per index
    # and only cancel after the m2-summation of the diagonal restriction;
    # the scalar case sums the constant 1, i.e. counts the pairs
    if scalar:
        alphas = [(0, 0)]
        cpolys = [Poly.const(8, 1)]
        values1, values2 = phi1.scalar_values(), phi2.scalar_values()
    else:
        alphas = [(a1, 2 * nu2 - a1) for a1 in range(2 * nu2 + 1)]

    for i in range(cs.size):
        for j in range(cs.size):
            w = Fraction(1, cs.unit_counts[i] * cs.unit_counts[j])
            if scalar:
                w = w * values1[i] * values2[j]
                if w == 0:
                    continue
            else:
                q_bip = phi1.values[i].embed(6) * phi2.values[j].embed(6, 3)
                if q_bip.is_zero():
                    continue
                family = psi_components(q_bip, nu1, nu2, alg)
                cpolys = [family[key] for key in alphas]
            den, sums = _pair_sums(cs.connecting(i, j), prec, cpolys)
            scale = w / den
            for key, nums in sums.items():
                t = HalfIntMatrix(*key)
                poly = Poly(2, ((a, x * scale) for a, x in zip(alphas, nums)))
                cur = table.coeffs.get(t)
                table.coeffs[t] = poly if cur is None else cur + poly
    table.coeffs = {t: c for t, c in table.coeffs.items() if not c.is_zero()}
    for t in table.coeffs:
        if not t.is_psd():
            raise YoshidaError(f"non-psd index {t} appeared")
    return table


def _pair_sums(conn, prec, polys):
    """(N, {(n1, m2, n2): [N * sum_{(x1, x2) of index T} p(x1, x2) per p]}).

    The sums run over the pairs of vectors of conn with integral norms
    q(x1) + q(x2) <= prec and integral m2 = B(x1, x2).  The polys are on two
    copies of the ambient space, x1 first, and all in integers over one
    denominator N (lattice.integer_terms).  With the vectors sorted by norm
    the x2 loop stops at the first q2 > prec - q1, and the x2 monomial rows
    of each (x1, index) group are added up before one integer dot product
    per p.  A group whose sums all vanish is skipped; an index can still
    appear with sums that add up to 0 over its groups.
    """
    n = len(conn.basis[1])
    den, slots = integer_terms(polys, conn.basis[0])
    monos1 = sorted({m[:n] for terms in slots for m, _ in terms})
    monos2 = sorted({m[n:] for terms in slots for m, _ in terms})
    pos1 = {m: k for k, m in enumerate(monos1)}
    pos2 = {m: k for k, m in enumerate(monos2)}
    slots = [[(pos1[m[:n]], pos2[m[n:]], c) for m, c in terms]
             for terms in slots]
    gden, grows = conn.integer_gram
    vecs = sorted((int(q), v) for v, q in
                  short_vectors(conn, prec, include_zero=True)
                  if q.denominator == 1)
    ys = [conn.integer_ambient(v) for _, v in vecs]
    vecs = list(zip(vecs, monomial_values(ys, monos1),
                    monomial_values(ys, monos2)))
    sums = {}
    for (q1, v1), mono1, _ in vecs:
        gv1 = [sum(map(mul, row, v1)) for row in grows]   # G is symmetric
        groups = {}
        for (q2, v2), _, mono2 in vecs:
            if q1 + q2 > prec:
                break
            m2 = sum(map(mul, gv1, v2))
            if m2 % gden:
                continue
            key = (q1, m2 // gden, q2)
            cur = groups.get(key)
            groups[key] = mono2 if cur is None else list(map(add, cur, mono2))
        partials = []
        for terms in slots:
            part = [0] * len(monos2)
            for k1, k2, c in terms:
                part[k2] += c * mono1[k1]
            partials.append(part)
        for key, row in groups.items():
            vals = [sum(map(mul, part, row)) for part in partials]
            if not any(vals):
                continue
            cur = sums.get(key)
            sums[key] = vals if cur is None else list(map(add, cur, vals))
    return den, sums


def _raise_x1(c):
    """x1 . grad_{x2}: derivative of x2 -> x2 + t x1 (coordinate free)."""
    return Poly(8, chain.from_iterable(
        (Poly.variable(8, s) * c.diff(4 + s)).terms.items() for s in range(4)))


def psi_components(q_bip, nu1, nu2, alg):
    """Equivariant coefficient family of Psi(Q), one overall constant.

    Seeded by the trilinear construction at the bottom slot (0, 2 nu2), the
    other slots follow from the sl2 transvection, so the relative constants
    between X-monomials are the covariant ones; odd-parity slots are genuine
    polynomials here but cancel in all lattice sums.
    """
    comps = {(0, 2 * nu2): c_coeff(q_bip, 0, 2 * nu2, nu1, nu2, alg)}
    cur = comps[(0, 2 * nu2)]
    for a1 in range(2 * nu2):
        cur = _raise_x1(cur) * Fraction(1, a1 + 1)
        comps[(a1 + 1, 2 * nu2 - a1 - 1)] = cur
    return comps


def diagonal_restriction(table, alpha1, alpha2):
    """Coefficients c(n1, n2) of X1^a1 X2^a2 in the diagonal restriction.

    c(n1, n2) = sum_{m2} [X1^a1 X2^a2] a((n1, m2, n2)); identically zero
    unless both alpha_i' = alpha_i + nu1 - nu2 are even (parity gate).
    """
    if alpha1 + alpha2 != 2 * table.nu2:
        raise YoshidaError("alpha1 + alpha2 must equal 2*nu2")
    out = {}
    shift = table.nu1 - table.nu2
    if (alpha1 + shift) % 2 or (alpha2 + shift) % 2:
        for t in table.coeffs:
            out.setdefault((t.n1, t.n2), Fraction(0))
        return dict(sorted(out.items()))
    for t, poly in table.coeffs.items():
        val = poly.terms.get((alpha1, alpha2), Fraction(0))
        key = (t.n1, t.n2)
        out[key] = out.get(key, Fraction(0)) + val
    return dict(sorted(out.items()))


def unimodular_check(table, u, t):
    """Check a(U^t T U) = det(U)^{nu1-nu2+2} * a(T)((X1,X2)U).

    Both indices must be within precision, else an error is raised.
    """
    sign = det(u)
    if sign not in (1, -1):
        raise YoshidaError("U must be unimodular")
    t2 = t.transform(u)
    if t.trace > table.prec or t2.trace > table.prec:
        raise YoshidaError("index out of precision")
    lhs = table.coeffs.get(t2, Poly.zero(2))
    a_t = table.coeffs.get(t, Poly.zero(2))
    # sigma_{2 nu2}(U): substitute (X1, X2) -> (X1, X2) U^t, i.e. slot i
    # receives sum_j U[i][j] X_j (empirically pinned by the shear cases)
    rhs = a_t.subs_linear([[Fraction(u[0][0]), Fraction(u[0][1])],
                           [Fraction(u[1][0]), Fraction(u[1][1])]])
    rhs = rhs * Fraction(sign ** (table.nu1 - table.nu2 + 2))
    return lhs == rhs
