"""Holomorphic differential operators on Siegel expansions, in closed form.

The operator polynomial p(u1, u12, u2) of weight k and indices (a, b, r)
takes a Siegel form of weight w = k + a + b to H x H, of weights
w1 = k + a + r and w2 = k + b + r: apply delta^r, set z12 = 0, project
holomorphically and read off the X1^(a+r) X2^(b+r) coefficient.  With
l = j1 + j2 and (x)_n = x(x-1)...(x-n+1) this gives p in closed form:

    p_(i,j,kk) = sum_{j1<=i, j2<=kk} (w+r-1)_l C(r,l) C(l,j1) (r-l)!
                     / ((i-j1)! j! (kk-j2)!) * pi(w1, j1) pi(w2, j2),
    pi(w, j) = (-1)^j / (w-2)_j.

It holds in three steps:
- on e(tr TZ) X1^alpha X2^beta, delta^r = sum_l (w+r-1)_l C(r,l) N^l D^(r-l),
  where N multiplies by rho[X], rho = -(Im Z)^-1 / 4 pi with entries r11,
  r12, r22, and D by T[X] = t1 X1^2 + t12 X1 X2 + t2 X2^2 (the iterates
  never contain rho for D to differentiate), so the multinomial
  coefficients of T[X]^(r-l) give the t-exponents;
- restriction to z12 = 0 sets r12 = 0 and leaves N = r11 X1^2 + r22 X2^2,
  whose l-th power has the binomial coefficients C(l, j1);
- holomorphic projection at weight w_i maps r_ii^j e(t_i z_i) to
  pi(w_i, j) t_i^j e(t_i z_i), which needs w_i - 1 - j > 0; j <= r gives
  w_i - 1 - j >= k - 1 >= 1, so the bound always holds.

The tests check p against the pluriharmonicity system, an independent oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, perm

from ._poly import Poly


class DiffOpError(ValueError):
    pass


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


def projection_factor(w, j):
    """Projection at weight w maps r^j e(tz) to pi(w, j) t^j e(tz)."""
    return Fraction((-1) ** j, perm(w - 2, j))


def projection_poly(k, a, b, r):
    """The unique holomorphic-projection operator polynomial, r!-normalized.

    Each coefficient is the closed sum of the module docstring; the paper's
    z12^r test value r! comes out without rescaling, and a DiffOpError is
    raised if it does not.
    """
    if k < 2:
        raise DiffOpError("weight k >= 2 required")
    w, w1, w2 = k + a + b, k + a + r, k + b + r
    coeffs = {}
    for (i, j, kk) in relevant_monomials(a, b, r):
        coeffs[(i, j, kk)] = sum(
            Fraction(perm(w + r - 1, j1 + j2) * comb(r, j1 + j2)
                     * comb(j1 + j2, j1) * factorial(r - j1 - j2),
                     factorial(i - j1) * factorial(j) * factorial(kk - j2))
            * projection_factor(w1, j1) * projection_factor(w2, j2)
            for j1 in range(i + 1) for j2 in range(kk + 1))
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
        prod = op.q_poly(t) * poly
        val = prod.terms.get((alpha1 + op.r, alpha2 + op.r), Fraction(0))
        key = (t.n1, t.n2)
        out[key] = out.get(key, Fraction(0)) + val
    return dict(sorted(out.items()))
