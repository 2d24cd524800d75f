"""Maass operators on Siegel expansions and holomorphic projection.

Everything runs in an exact symbolic calculus on the 8-variable ring
Q[t1, t12, t2, r11, r12, r22, X1, X2]: t's are the Fourier frequencies of
e(tr T Z) (t12 is the z12-frequency, i.e. twice the off-diagonal entry of T),
and the r's stand for the entries of -(1/4 pi) (Im Z)^{-1}.  In these symbols
the raising operator delta_w = w N + D is polynomial with rational
coefficients, restriction to z12 = 0 sets r12 = 0, and holomorphic projection
replaces r11^j by the exact rational Gamma-quotient times t1^j.

The operator polynomial p(u1, u12, u2) is constructed by the raise-restrict-
project route.  The tests keep the pluriharmonicity linear system as an
independent oracle, which also certifies that the solution space is one
dimensional.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, perm

from ._poly import Poly

# variable layout
T1, T12, T2, R11, R12, R22, X1, X2 = range(8)
NV = 8


class DiffOpError(ValueError):
    pass


def _xmono(i, j):
    m = [0] * NV
    m[X1] = i
    m[X2] = j
    return tuple(m)


def _rho_bracket():
    """rho[X] = r11 X1^2 + 2 r12 X1 X2 + r22 X2^2."""
    terms = []
    for (rv, xi, xj, c) in ((R11, 2, 0, 1), (R12, 1, 1, 2), (R22, 0, 2, 1)):
        m = list(_xmono(xi, xj))
        m[rv] = 1
        terms.append((m, c))
    return Poly(NV, terms)


def _rho_derivative(p, which):
    """(1/2 pi i) d/dz_{ab} of the rho-part of p (product rule on symbols)."""
    out = Poly.zero(NV)
    for rv in (R11, R12, R22):
        dp = p.diff(rv)
        if dp.is_zero():
            continue
        out = out + dp * _rho_image(which, rv)
    return out


def _rho_image(which, rv):
    """Image of rho_{rv} under (1/2 pi i) d/dz_{which}."""
    def mono(**exps):
        m = [0] * NV
        for k, v in exps.items():
            m[{"r11": R11, "r12": R12, "r22": R22}[k]] = v
        return Poly.monomial(m, 1)

    if which == T1:
        table = {R11: -mono(r11=2), R12: -mono(r11=1) * mono(r12=1),
                 R22: -mono(r12=2)}
        return table[rv]
    if which == T2:
        table = {R11: -mono(r12=2), R12: -mono(r12=1) * mono(r22=1),
                 R22: -mono(r22=2)}
        return table[rv]
    table = {R11: mono(r11=1) * mono(r12=1) * -2,
             R12: -(mono(r12=2) + mono(r11=1) * mono(r22=1)),
             R22: mono(r12=1) * mono(r22=1) * -2}
    return table[rv]


def _d_operator(p):
    """D = X1^2 (d/dz1) + X1 X2 (d/dz12) + X2^2 (d/dz2), with 1/(2 pi i)."""
    out = Poly.zero(NV)
    for (which, xi, xj) in ((T1, 2, 0), (T12, 1, 1), (T2, 0, 2)):
        xfac = Poly.monomial(_xmono(xi, xj), 1)
        tfac = Poly.variable(NV, which)
        out = out + xfac * (tfac * p + _rho_derivative(p, which))
    return out


def delta_iterate_closed(k_plus_l, r, p):
    """Closed formula sum_i Gamma(w+r)/Gamma(w+r-i) C(r,i) N^i D^{r-i}."""
    iterates = [p]                      # D^j p for j = 0..r
    for _ in range(r):
        iterates.append(_d_operator(iterates[-1]))
    out = Poly.zero(NV)
    nf = _rho_bracket()
    for i in range(r + 1):
        term = iterates[r - i] * (nf ** i)
        out = out + term * Fraction(perm(k_plus_l + r - 1, i) * comb(r, i))
    return out


def restrict_z12(p):
    """Evaluation at z12 = 0: the off-diagonal r symbol vanishes."""
    return p.eval_partial({R12: 0})


def holomorphic_projection(p, w1, w2):
    """Exact holomorphic projection in both variables.

    r11^j q1^t1 |-> Gamma(w1-1-j)/Gamma(w1-1) (-1)^j t1^j q1^t1 and the same
    for r22 against t2; requires w_i > 1 + (r-degree) (the weight bound).
    """
    terms = []
    for mono, c in p.terms.items():
        j1, j12, j2 = mono[R11], mono[R12], mono[R22]
        if j12:
            raise DiffOpError("restrict to z12 = 0 before projecting")
        for (j, w) in ((j1, w1), (j2, w2)):
            if j and w - 1 - j <= 0:
                raise DiffOpError(f"weight {w} too small for degree {j}")
        coef = c * (-1) ** (j1 + j2)
        for t in range(1, j1 + 1):
            coef /= (w1 - 1 - t)
        for t in range(1, j2 + 1):
            coef /= (w2 - 1 - t)
        m = list(mono)
        m[R11] = 0
        m[R22] = 0
        m[T1] += j1
        m[T2] += j2
        terms.append((m, coef))
    return Poly(NV, terms)


# ---------------------------------------------------------------------------
# the operator polynomial p(u1, u12, u2)
# ---------------------------------------------------------------------------

def relevant_monomials(a, b, r):
    """(i, j, kk) with i+j+kk = r contributing to the X-extraction."""
    out = []
    l = a + b
    for i in range(r + 1):
        for j in range(r + 1 - i):
            kk = r - i - j
            alpha = a + r - 2 * i - j
            beta = b + r - j - 2 * kk
            if 0 <= alpha and 0 <= beta and alpha + beta == l:
                out.append((i, j, kk))
    return sorted(out)


class DiffOperator:
    """The holomorphic operator data: polynomial p in (u1, u12, u2)."""

    normalization = "z12-test r!"

    def __init__(self, k, a, b, r, poly):
        self.k, self.a, self.b, self.r = k, a, b, r
        self.poly = poly                # (i, j, kk) -> Fraction

    def z12_test(self):
        """p applied to z12^r X1^a X2^b, evaluated at z12 = 0.

        Only u12^r survives; the exact value is r! * p_{0,r,0}.
        """
        return self.poly.get((0, self.r, 0), Fraction(0)) * factorial(self.r)

    def q_poly(self, t):
        """Q(T) in (X1, X2): substitute u1 -> n1 X1^2, u12 -> m2 X1 X2,
        u2 -> n2 X2^2 (m2 is the z12-frequency, twice the off-diagonal)."""
        n1, m2, n2 = t
        return Poly(2, (((2 * i + j, j + 2 * kk),
                         c * n1 ** i * m2 ** j * n2 ** kk)
                        for (i, j, kk), c in self.poly.items()))


@lru_cache(maxsize=None)
def _iterate_restricted(w, r, alpha, beta):
    start = Poly.monomial(_xmono(alpha, beta), 1)
    return restrict_z12(delta_iterate_closed(w, r, start))


def projection_poly(k, a, b, r):
    """The unique holomorphic-projection operator polynomial, r!-normalized.

    Constructed by applying the delta-iterate to e(tr T Z) X1^alpha X2^beta,
    restricting to z12 = 0, projecting holomorphically and extracting the
    X1^{a+r} X2^{b+r} coefficient; the paper's z12^r test value r! comes out
    without rescaling, and a DiffOpError is raised if it does not.
    """
    if k < 2:
        raise DiffOpError("weight k >= 2 required")
    l = a + b
    w = k + l
    rel = relevant_monomials(a, b, r)
    coeffs = {}
    for (i, j, kk) in rel:
        alpha = a + r - 2 * i - j
        beta = b + r - j - 2 * kk
        img = _iterate_restricted(w, r, alpha, beta)
        img = holomorphic_projection(img, k + a + r, k + b + r)
        picked = img.coefficient_of((X1, X2), (a + r, b + r))
        # coefficient of t1^i t12^j t2^kk
        target = [0] * NV
        target[T1], target[T12], target[T2] = i, j, kk
        coeffs[(i, j, kk)] = picked.terms.get(tuple(target), Fraction(0))
    op = DiffOperator(k, a, b, r, coeffs)
    test = op.z12_test()
    if test != factorial(r):
        raise DiffOpError(f"z12 test value {test}, not r! = {factorial(r)}")
    return op


def apply_to_table(op, table, alpha1, alpha2):
    """Restriction with correction: c(n1,n2) = sum_m2 [X-extract Q(T) a(T)].

    gamma = op.r; weights k_i = alpha_i' + 2 + gamma.  gamma = 0 reproduces
    the plain diagonal restriction exactly.
    """
    if alpha1 + alpha2 != 2 * table.nu2:
        raise DiffOpError("alpha1 + alpha2 must equal 2*nu2")
    if (op.a, op.b) != (alpha1, alpha2):
        raise DiffOpError("operator indices do not match (alpha1, alpha2)")
    out = {}
    for t, poly in table.coeffs.items():
        q = op.q_poly(t)
        prod = q * poly
        val = prod.terms.get((alpha1 + op.r, alpha2 + op.r), Fraction(0))
        key = (t.n1, t.n2)
        out[key] = out.get(key, Fraction(0)) + val
    return dict(sorted(out.items()))
