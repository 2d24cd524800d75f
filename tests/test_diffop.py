import hashlib
from fractions import Fraction
from math import comb

import pytest

from quatperiods import diffop
from quatperiods._linalg import nullspace
from quatperiods._poly import Poly
from quatperiods.brandt import QuatForm
from quatperiods.diffop import (DiffOpError, apply_to_table,
                                projection_factor, projection_poly,
                                relevant_monomials)
from quatperiods.yoshida import HalfIntMatrix


def scalar_form(cs, scalars):
    """The weight-0 form with the given value on each class."""
    return QuatForm(cs, 0, [Poly.const(3, s) for s in scalars])


# -- oracle: the pluriharmonicity linear system that characterizes
# -- projection_poly independently

def _complex_power(re, im, n):
    out_re = Poly.const(re.nvars, 1)
    out_im = Poly.zero(re.nvars)
    for _ in range(n):
        out_re, out_im = out_re * re - out_im * im, out_re * im + out_im * re
    return out_re, out_im


def _gaussian_pair_power(m, l, c_index):
    """((Y1_0 + i Y1_c) X1 + (Y2_0 + i Y2_c) X2)^l as a dict
    (alphaX1, alphaX2) -> (real part, imaginary part), each a Poly in the
    2m Y-variables (Y1 block at 0..m-1, Y2 block at m..2m-1)."""
    nv = 2 * m
    w1_re = Poly.variable(nv, 0)
    w1_im = Poly.variable(nv, c_index)
    w2_re = Poly.variable(nv, m)
    w2_im = Poly.variable(nv, m + c_index)
    out = {}
    for t in range(l + 1):
        # term C(l,t) w1^t w2^{l-t} X1^t X2^{l-t}
        re, im = _complex_power(w1_re, w1_im, t)
        re2, im2 = _complex_power(w2_re, w2_im, l - t)
        out[(t, l - t)] = ((re * re2 - im * im2) * comb(l, t),
                           (re * im2 + im * re2) * comb(l, t))
    return out


def pluriharmonic_system(k, a, b, r, extra_c_indices=(1, 2)):
    """Constraint matrix on the relevant p-monomials from the requirement
    that the assembled Y-polynomials are harmonic in Y1 and Y2 separately.

    m = 2k (nu = 0).  Returns (relevant monomials, nullspace basis).
    """
    m = 2 * k
    nv = 2 * m
    l = a + b
    rel = relevant_monomials(a, b, r)
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
            add_rows({key: val[0] for key, val in comps.items()})
            add_rows({key: val[1] for key, val in comps.items()})

    if rows:
        ker = nullspace(rows)
    else:
        ker = [[Fraction(int(i == j)) for j in range(len(rel))]
               for i in range(len(rel))]
    return rel, ker


def test_projection_factor_is_exact():
    # projection of r11 * e(t1 z1) at weight w = 5: -(1/(w-2)) t1
    assert projection_factor(5, 1) == Fraction(-1, 3)
    assert projection_factor(5, 0) == 1
    assert projection_factor(6, 3) == Fraction(-1, 24)


def test_projection_poly_examples():
    op0 = projection_poly(3, 1, 0, 0)
    assert op0.poly == {(0, 0, 0): Fraction(1)}
    op1 = projection_poly(2, 0, 0, 1)
    assert op1.poly == {(0, 1, 0): Fraction(1)}
    op2 = projection_poly(2, 0, 0, 2)
    assert op2.poly == {(0, 2, 0): Fraction(1), (1, 0, 1): Fraction(-1)}
    assert op2.z12_test() == 2


def test_z12_normalization_grid():
    for k in (2, 3, 4, 5, 6):
        for (a, b) in ((0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 1)):
            for r in (0, 1, 2, 3, 4):
                op = projection_poly(k, a, b, r)
                fact = 1
                for t in range(1, r + 1):
                    fact *= t
                assert op.z12_test() == fact


@pytest.mark.parametrize("scale", [2, 0])
def test_projection_poly_raises_unless_the_z12_test_is_r_factorial(
        monkeypatch, scale):
    # the construction yields r! itself; a rescaled image is an error, not
    # something to rescale back
    factor = diffop.projection_factor
    monkeypatch.setattr(diffop, "projection_factor",
                        lambda w, j: factor(w, j) * scale)
    with pytest.raises(DiffOpError, match=r"z12 test value \d+, not r! = 2"):
        projection_poly(3, 1, 0, 2)


def test_uniqueness_via_pluriharmonic_system():
    # (4, 2, 1, 2) is the operator of the benchmark's diffop job
    for (k, a, b, r) in [(2, 0, 0, 1), (2, 0, 0, 2), (3, 0, 0, 2),
                         (2, 1, 0, 1), (2, 1, 1, 1), (2, 1, 1, 2),
                         (2, 0, 0, 3), (2, 0, 0, 4), (3, 2, 1, 3),
                         (4, 2, 1, 2)]:
        rel, ker = pluriharmonic_system(k, a, b, r)
        assert len(ker) == 1
        op = projection_poly(k, a, b, r)
        vec = ker[0]
        opvec = [op.poly.get(m, Fraction(0)) for m in rel]
        ratio = None
        for x, y in zip(vec, opvec):
            if x == 0 and y == 0:
                continue
            assert x != 0 and y != 0
            rr = y / x
            ratio = rr if ratio is None else ratio
            assert rr == ratio


# sha256 of every operator with k in 2..8, a, b in 0..5 and r in 0..6,
# recorded from an expansion of delta^r in the 8-variable symbol ring
# Q[t1, t12, t2, r11, r12, r22, X1, X2], restricted and projected term by
# term: a construction independent of the closed form
GRID_SHA256 = "3b7a1f9a283739ddaae201d5ed2fefe24b582389a8f0d73df9196b3ab49b8c83"


def test_operator_grid_matches_the_symbol_calculus():
    digest = hashlib.sha256()
    for k in range(2, 9):
        for a in range(6):
            for b in range(6):
                for r in range(7):
                    op = projection_poly(k, a, b, r)
                    digest.update(repr(sorted(
                        (key, str(v)) for key, v in op.poly.items())).encode())
    assert digest.hexdigest() == GRID_SHA256


def test_q_poly_values():
    op = projection_poly(2, 0, 0, 1)  # p = u12
    q = op.q_poly(HalfIntMatrix(1, 1, 1))
    assert q == Poly.monomial((1, 1), 1)
    # T diagonal: off-diagonal frequency zero -> Q = 0 for the u12 operator
    assert op.q_poly(HalfIntMatrix(2, 0, 3)).is_zero()
    op0 = projection_poly(2, 0, 0, 0)
    assert op0.q_poly(HalfIntMatrix(5, 2, 7)) == Poly.const(2, 1)


def test_q_poly_matches_direct_differentiation():
    # p = u12^2 - u1 u2 applied to e(tr TZ) with T = [[1, 1/2], [1/2, 1]]:
    # u12 -> m2 X1X2 with m2 = 1, u1 u2 -> n1 n2 X1^2 X2^2
    op = projection_poly(2, 0, 0, 2)
    q = op.q_poly(HalfIntMatrix(1, 1, 1))
    assert q == Poly.monomial((2, 2), 1 - 1 * 1) + Poly.monomial((2, 2), 0) \
        or q == Poly.monomial((2, 2), 0)
    assert q.is_zero()  # m2^2 - n1 n2 = 1 - 1 = 0 at this T
    q2 = op.q_poly(HalfIntMatrix(1, 2, 1))
    assert q2 == Poly.monomial((2, 2), 4 - 1)


def test_apply_to_table_gamma0_is_restriction():
    from quatperiods.brandt import eigenforms
    from quatperiods.orders import class_set_for
    from quatperiods.yoshida import diagonal_restriction, yoshida_lift
    cs = class_set_for(11)
    e = next(f for f in eigenforms(cs) if f.label == "cuspidal-essential")
    table = yoshida_lift(e, e, 4)
    op = projection_poly(2, 0, 0, 0)
    got = apply_to_table(op, table, 0, 0)
    want = diagonal_restriction(table, 0, 0)
    for key in set(got) | set(want):
        assert got.get(key, 0) == want.get(key, 0)


def test_apply_to_table_gamma1_cuspidal_edges():
    # gamma = 1 on a scalar lift: output weight 3 with trivial character, so
    # the map is identically zero (m2-odd symmetry); edges vanish a fortiori
    from quatperiods.brandt import eigenforms
    from quatperiods.orders import class_set_for
    from quatperiods.yoshida import yoshida_lift
    cs = class_set_for(11)
    e = next(f for f in eigenforms(cs) if f.label == "cuspidal-essential")
    table = yoshida_lift(e, e, 6)
    op = projection_poly(2, 0, 0, 1)
    got = apply_to_table(op, table, 0, 0)
    for (n1, n2), v in got.items():
        if n1 == 0 or n2 == 0:
            assert v == 0


def test_apply_to_table_gamma2_cuspidal_and_nonzero():
    from quatperiods.brandt import eigenforms
    from quatperiods.orders import class_set_for
    from quatperiods.yoshida import yoshida_lift
    cs = class_set_for(11)
    e = next(f for f in eigenforms(cs) if f.label == "cuspidal-essential")
    table = yoshida_lift(e, e, 6)
    op = projection_poly(2, 0, 0, 2)
    got = apply_to_table(op, table, 0, 0)
    for (n1, n2), v in got.items():
        if n1 == 0 or n2 == 0:
            assert v == 0
    assert any(v != 0 for v in got.values())


def test_apply_to_table_bilinear():
    from quatperiods.orders import class_set_for
    from quatperiods.yoshida import yoshida_lift
    cs = class_set_for(11)
    f1 = scalar_form(cs, [1, 2])
    f2 = scalar_form(cs, [0, 1])
    g = scalar_form(cs, [3, -1])
    op = projection_poly(2, 0, 0, 1)
    t_sum = yoshida_lift(scalar_form(cs, [4, 1]), g, 4)
    ta = yoshida_lift(f1, g, 4)
    tb = yoshida_lift(f2, g, 4)
    a_sum = apply_to_table(op, t_sum, 0, 0)
    aa = apply_to_table(op, ta, 0, 0)
    ab = apply_to_table(op, tb, 0, 0)
    for key in a_sum:
        assert a_sum[key] == aa.get(key, 0) + 3 * ab.get(key, 0)
