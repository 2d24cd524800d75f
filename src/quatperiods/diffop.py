"""Maass operators on Siegel expansions and holomorphic projection.

Everything runs in an exact symbolic calculus on the 8-variable ring
Q[t1, t12, t2, r11, r12, r22, X1, X2]: t's are the Fourier frequencies of
e(tr T Z) (t12 is the z12-frequency, i.e. twice the off-diagonal entry of T),
and the r's stand for the entries of -(1/4 pi) (Im Z)^{-1}.  In these symbols
the raising operator delta_w = w N + D is polynomial with rational
coefficients, restriction to z12 = 0 sets r12 = 0, and holomorphic projection
replaces r11^j by the exact rational Gamma-quotient times t1^j.

The operator polynomial p(u1, u12, u2) is constructed by the raise-restrict-
project route and then cross-checked against the pluriharmonicity linear
system, which also certifies that the solution space is one dimensional.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from ._linalg import nullspace
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
    out = Poly.zero(NV)
    for (rv, xi, xj, c) in ((R11, 2, 0, 1), (R12, 1, 1, 2), (R22, 0, 2, 1)):
        m = [0] * NV
        m[rv] = 1
        m[X1] = xi
        m[X2] = xj
        out = out + Poly.monomial(m, c)
    return out


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


def maass_delta(k_plus_l, p):
    """delta_w = w N + D on a symbol polynomial; depends only on w = k+l."""
    return _rho_bracket() * p * k_plus_l + _d_operator(p)


def delta_iterate_closed(k_plus_l, r, p):
    """Closed formula sum_i Gamma(w+r)/Gamma(w+r-i) C(r,i) N^i D^{r-i}."""
    out = Poly.zero(NV)
    nf = _rho_bracket()
    for i in range(r + 1):
        coef = Fraction(1)
        for t in range(i):
            coef *= (k_plus_l + r - 1 - t)
        binom = Fraction(1)
        for t in range(i):
            binom = binom * (r - t) / (t + 1)
        term = p
        for _ in range(r - i):
            term = _d_operator(term)
        term = term * (nf ** i)
        out = out + term * (coef * binom)
    return out


def delta_iterate_composed(k_plus_l, r, p):
    """delta_{w+2r-2} o ... o delta_{w+2} o delta_w."""
    out = p
    for step in range(r):
        out = maass_delta(k_plus_l + 2 * step, out)
    return out


@dataclass
class FormalExpansion:
    """Truncated Fourier series: (n1, m, n2) -> symbol polynomial.

    Coefficients live in Q[r11, r12, r22, X1, X2] (inside the 8-var ring);
    the t-symbols are substituted by the concrete frequencies termwise.
    m is the z12-frequency (twice the off-diagonal entry of T).
    """
    prec: int
    terms: dict = field(default_factory=dict)

    def nearly_degree(self):
        d = 0
        for p in self.terms.values():
            d = max(d, p.degree_in((R11, R12, R22)))
        return d

    def map_terms(self, fn):
        out = {}
        for key, p in self.terms.items():
            q = fn(key, p)
            if not q.is_zero():
                out[key] = q
        return FormalExpansion(self.prec, out)


def delta_on_expansion(k_plus_l, expansion):
    """Apply the raising operator termwise to a truncated expansion."""
    def step(key, p):
        n1, m, n2 = key
        img = maass_delta(k_plus_l, p)
        return img.eval_partial({T1: n1, T12: m, T2: n2})
    return expansion.map_terms(step)


def restrict_z12(p):
    """Evaluation at z12 = 0: the off-diagonal r symbol vanishes."""
    return p.eval_partial({R12: 0})


def holomorphic_projection(p, w1, w2):
    """Exact holomorphic projection in both variables.

    r11^j q1^t1 |-> Gamma(w1-1-j)/Gamma(w1-1) (-1)^j t1^j q1^t1 and the same
    for r22 against t2; requires w_i > 1 + (r-degree) (the weight bound).
    """
    out = Poly.zero(NV)
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
        out = out + Poly.monomial(m, coef)
    return out


# ---------------------------------------------------------------------------
# the operator polynomial p(u1, u12, u2)
# ---------------------------------------------------------------------------

def relevant_monomials(k, a, b, r):
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


@dataclass
class DiffOperator:
    """The holomorphic operator data: polynomial p in (u1, u12, u2)."""
    k: int
    a: int
    b: int
    r: int
    poly: dict               # (i, j, kk) -> Fraction
    normalization: str = "z12-test r!"

    def z12_test(self):
        """p applied to z12^r X1^a X2^b, evaluated at z12 = 0.

        Only u12^r survives; the exact value is r! * p_{0,r,0}.
        """
        return self.poly.get((0, self.r, 0), Fraction(0)) * factorial(self.r)

    def q_poly(self, t):
        """Q(T) in (X1, X2): substitute u1 -> n1 X1^2, u12 -> m2 X1 X2,
        u2 -> n2 X2^2 (m2 is the z12-frequency, twice the off-diagonal)."""
        out = Poly.zero(2)
        n1, m2, n2 = t.as_tuple() if hasattr(t, "as_tuple") else t
        for (i, j, kk), c in self.poly.items():
            val = c * Fraction(n1) ** i * Fraction(m2) ** j * Fraction(n2) ** kk
            if val:
                out = out + Poly.monomial((2 * i + j, j + 2 * kk), val)
        return out


from functools import lru_cache


@lru_cache(maxsize=None)
def _iterate_restricted(w, r, alpha, beta):
    start = Poly.monomial(_xmono(alpha, beta), 1)
    return restrict_z12(delta_iterate_closed(w, r, start))


def projection_poly(k, a, b, r):
    """The unique holomorphic-projection operator polynomial, r!-normalized.

    Constructed by applying the delta-iterate to e(tr T Z) X1^alpha X2^beta,
    restricting to z12 = 0, projecting holomorphically and extracting the
    X1^{a+r} X2^{b+r} coefficient; the paper's z12^r test value r! comes out
    automatically and is asserted.
    """
    if k < 2:
        raise DiffOpError("weight k >= 2 required")
    l = a + b
    w = k + l
    rel = relevant_monomials(k, a, b, r)
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
    fact = factorial(r)
    if test == 0:
        raise DiffOpError("degenerate operator (zero z12 test)")
    if test != fact:
        # normalize exactly to the r! convention
        scale = Fraction(fact) / test
        op.poly = {key: val * scale for key, val in op.poly.items()}
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
    return {k: v for k, v in sorted(out.items()) if True}


# ---------------------------------------------------------------------------
# pluriharmonicity linear system (independent characterization)
# ---------------------------------------------------------------------------

def _gaussian_pair_power(m, l, c_index):
    """Real and imaginary parts of ((Y1_0 + i Y1_c) X1 + (Y2_0 + i Y2_c) X2)^l.

    Variables: Y1 block at 0..m-1, Y2 block at m..2m-1; returns two Polys in
    2m + 2 X-variables... encoded as dict (alphaX1, alphaX2) -> (re, im) Poly
    pairs in the 2m Y-variables.
    """
    nv = 2 * m
    w1_re = Poly.variable(nv, 0)
    w1_im = Poly.variable(nv, c_index)
    w2_re = Poly.variable(nv, m)
    w2_im = Poly.variable(nv, m + c_index)
    # expand (w1 X1 + w2 X2)^l with complex coefficients via binomials
    out = {}
    from math import comb
    for t in range(l + 1):
        # term C(l,t) w1^t w2^{l-t} X1^t X2^{l-t}
        re, im = _complex_power(w1_re, w1_im, t)
        re2, im2 = _complex_power(w2_re, w2_im, l - t)
        tot_re = re * re2 - im * im2
        total_im = re * im2 + im * re2
        out[(t, l - t)] = (tot_re * comb(l, t), total_im * comb(l, t))
    return out


def _complex_power(re, im, n):
    out_re = Poly.const(re.nvars, 1)
    out_im = Poly.zero(re.nvars)
    for _ in range(n):
        out_re, out_im = out_re * re - out_im * im, out_re * im + out_im * re
    return out_re, out_im


def pluriharmonic_system(k, a, b, r, extra_c_indices=(1, 2)):
    """Constraint matrix on the relevant p-monomials from the requirement
    that the assembled Y-polynomials are harmonic in Y1 and Y2 separately.

    m = 2k (nu = 0).  Returns (relevant monomials, nullspace basis).
    """
    m = 2 * k
    nv = 2 * m
    l = a + b
    rel = relevant_monomials(k, a, b, r)
    # T(Y): t1 = |Y1|^2, m2-slot = 2 Y1.Y2, t2 = |Y2|^2
    t1 = Poly.zero(nv)
    t2 = Poly.zero(nv)
    t12 = Poly.zero(nv)
    for s in range(m):
        e1 = [0] * nv
        e1[s] = 2
        t1 = t1 + Poly.monomial(e1, 1)
        e2 = [0] * nv
        e2[m + s] = 2
        t2 = t2 + Poly.monomial(e2, 1)
        e12 = [0] * nv
        e12[s] = 1
        e12[m + s] = 1
        t12 = t12 + Poly.monomial(e12, 2)

    # Q-monomial images as X-indexed dictionaries of Y-polynomials
    images = []
    for (i, j, kk) in rel:
        poly = (t1 ** i) * (t12 ** j) * (t2 ** kk)
        images.append(((2 * i + j, j + 2 * kk), poly))

    rows = []
    gram_inv1 = [[Fraction(int(x == y)) for y in range(m)] for x in range(m)]

    def lap(pol, block):
        out = Poly.zero(nv)
        for s in range(m):
            out = out + pol.diff(block * m + s).diff(block * m + s)
        return out

    def add_rows(pfuncs):
        # pfuncs: dict (aX1, aX2) -> Y-poly (one component of P)
        combo = {}
        for idx, ((dx1, dx2), qpol) in enumerate(images):
            total = Poly.zero(nv)
            for (px1, px2), ppol in pfuncs.items():
                if px1 + dx1 == a + r and px2 + dx2 == b + r:
                    total = total + ppol * qpol
            combo[idx] = total
        for block in (0, 1):
            mono_rows = {}
            for idx, pol in combo.items():
                lp = lap(pol, block)
                for mono, c in lp.terms.items():
                    mono_rows.setdefault(mono, [Fraction(0)] * len(images))
                    mono_rows[mono][idx] = c
            rows.extend(mono_rows.values())

    if l == 0:
        add_rows({(0, 0): Poly.const(nv, 1)})
    else:
        for c_index in extra_c_indices:
            comps = _gaussian_pair_power(m, l, c_index)
            re_funcs = {key: val[0] for key, val in comps.items()}
            im_funcs = {key: val[1] for key, val in comps.items()}
            add_rows(re_funcs)
            add_rows(im_funcs)

    if rows:
        ker = nullspace(rows)
    else:
        ker = [[Fraction(int(i == j)) for j in range(len(rel))]
               for i in range(len(rel))]
    return rel, ker
