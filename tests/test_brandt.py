import random
from fractions import Fraction

import pytest

from quatperiods._linalg import mat_mul
from quatperiods._poly import Poly
from quatperiods.brandt import (BrandtError, QuadExt, atkin_lehner,
                                brandt_matrix, constant_form, eichler_theta,
                                eigenforms, form_from_scalars, inner_product)
from quatperiods.harmonics import random_harmonic, trace_zero_space
from quatperiods.orders import class_set_for, eichler_mass


def eta_product_11a(prec):
    """q-expansion of eta(z)^2 eta(11z)^2 (the level-11 newform oracle)."""
    def eta_series(scale, n):
        out = [0] * (n + 1)
        k = 0
        while True:
            for kk in (k, -k) if k else (0,):
                e = kk * (3 * kk - 1) // 2 * scale
                if 0 <= e <= n:
                    out[e] += (-1) ** abs(kk)
            if k * (3 * k - 1) // 2 * scale > n and \
                    k * (3 * k + 1) // 2 * scale > n:
                break
            k += 1
        return out

    def mul(a, b, n):
        out = [0] * (n + 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if i + j <= n and y:
                        out[i + j] += x * y
        return out

    n = prec
    e1 = eta_series(1, n)
    e11 = eta_series(11, n)
    f = mul(mul(e1, e1, n), mul(e11, e11, n), n)
    # multiply by q
    return {k + 1: f[k] for k in range(min(len(f), prec))}


def cuspidal_11():
    cs = class_set_for(11)
    return next(f for f in eigenforms(cs) if f.label == "cuspidal-essential")


def test_brandt_eigenvalues_11():
    cs = class_set_for(11)
    t2 = brandt_matrix(cs, 2)
    cp_trace = sum(t2.matrix[i][i] for i in range(2))
    assert cp_trace == 1  # eigenvalues 3 and -2
    forms = eigenforms(cs)
    eis = next(f for f in forms if f.label == "eisenstein")
    cusp = next(f for f in forms if f.label == "cuspidal-essential")
    assert eis.eigenvalues[2] == 3 and cusp.eigenvalues[2] == -2
    assert eis.eigenvalues[3] == 4 and cusp.eigenvalues[3] == -1
    assert cusp.scalar_values() == [2, -3]


def test_brandt_row_sums_and_integrality():
    cs = class_set_for(11)
    for p in (2, 3, 5, 7, 13):
        op = brandt_matrix(cs, p)
        for row in op.matrix:
            assert sum(row) == p + 1
            assert all(x.denominator == 1 and x >= 0 for x in row)


def test_brandt_class_number_one_scalar():
    cs = class_set_for(2)
    for p in (3, 5, 7):
        op = brandt_matrix(cs, p)
        assert op.matrix == [[p + 1]]


def test_brandt_bad_prime_rejected():
    cs = class_set_for(11)
    with pytest.raises(BrandtError):
        brandt_matrix(cs, 11)


def test_brandt_commute_and_self_adjoint():
    cs = class_set_for(2, 7)
    t3 = brandt_matrix(cs, 3)
    t5 = brandt_matrix(cs, 5)
    assert mat_mul(t3.matrix, t5.matrix) == mat_mul(t5.matrix, t3.matrix)
    w = [Fraction(1, e) for e in cs.unit_counts]
    for op in (t3, t5):
        m = op.matrix
        for i in range(cs.size):
            for j in range(cs.size):
                assert m[i][j] * w[i] == m[j][i] * w[j]


def test_atkin_lehner_involution():
    cs = class_set_for(11)
    w11 = atkin_lehner(cs, 11)
    sq = mat_mul(w11.matrix, w11.matrix)
    assert sq == [[1, 0], [0, 1]]
    t2 = brandt_matrix(cs, 2)
    assert mat_mul(w11.matrix, t2.matrix) == mat_mul(t2.matrix, w11.matrix)


def test_atkin_lehner_sign_rule_level_11():
    # newform 11a has w_11 eigenvalue -1; ramified prime flips the sign
    cusp = cuspidal_11()
    assert cusp.al_signs[11] == 1


def test_atkin_lehner_signs_level_22():
    # old classes of 11a: w_2 eigenvalues {+1, -1}, w_11 flipped to +1
    cs = class_set_for(11, 2)
    forms = [f for f in eigenforms(cs) if f.label != "eisenstein"]
    assert len(forms) == 2
    assert sorted(f.al_signs[2] for f in forms) == [-1, 1]
    assert all(f.al_signs[11] == 1 for f in forms)
    assert all(f.eigenvalues[3] == -1 for f in forms)  # a_3(11a)


def test_inner_product_values():
    cs = class_set_for(11)
    forms = eigenforms(cs)
    const = next(f for f in forms if f.label == "eisenstein")
    cusp = next(f for f in forms if f.label == "cuspidal-essential")
    assert inner_product(const, const) == Fraction(5, 12)
    assert inner_product(const, cusp) == 0
    assert inner_product(cusp, cusp) == Fraction(5, 2)


def test_inner_product_mismatch():
    c1 = constant_form(class_set_for(11))
    c2 = constant_form(class_set_for(2))
    with pytest.raises(BrandtError):
        inner_product(c1, c2)


def test_eigenvalue_defining_identity():
    cs = class_set_for(11)
    cusp = cuspidal_11()
    t2 = brandt_matrix(cs, 2)
    image = t2.apply(cusp)
    assert image.scalar_values() == [v * cusp.eigenvalues[2]
                                     for v in cusp.scalar_values()]


def test_eichler_theta_matches_newform():
    cusp = cuspidal_11()
    th = eichler_theta(cusp, 30)
    eta = eta_product_11a(30)
    assert th[0] == 0
    ratio = th[1] / eta[1]
    assert ratio != 0
    for n in range(1, 31):
        assert th[n] == ratio * eta[n]


def test_eichler_theta_hecke_property():
    cusp = cuspidal_11()
    th = eichler_theta(cusp, 21)
    for p in (2, 3, 5, 7):
        assert th[p] == cusp.eigenvalues[p] * th[1]
    assert th[6] == th[2] * th[3] / th[1]


def test_eichler_theta_eisenstein():
    cs = class_set_for(11)
    const = constant_form(cs)
    th = eichler_theta(const, 6)
    assert th[0] == inner_product(const, const) ** 2
    assert all(v > 0 for v in th.values())


def test_eichler_theta_positive_weight_a0_vanishes():
    cs = class_set_for(2)
    sp = trace_zero_space(cs.order.algebra)
    phi = form_from_scalars(cs, [1])
    phi.weight = 2
    phi.values = [random_harmonic(sp, 2, random.Random(1))]
    th = eichler_theta(phi, 3)
    assert th[0] == 0


def test_eigenforms_level_26_match_both_algebras():
    # same two rational eigensystems appear for disc 13 and disc 2
    sys_a = {}
    sys_b = {}
    for (n1, n2), store in (((13, 2), sys_a), ((2, 13), sys_b)):
        cs = class_set_for(n1, n2)
        cusps = [f for f in eigenforms(cs) if f.label == "cuspidal-essential"]
        assert len(cusps) == 2
        for f in cusps:
            key = tuple(f.eigenvalues[p] for p in (3, 5, 7))
            store[key] = f.al_signs
    assert set(sys_a) == set(sys_b)
    # classical signs from the quaternionic ones agree between the algebras:
    # at p | N1 the sign flips, at p | N2 it is equal
    for key in sys_a:
        eps_from_13 = {2: sys_a[key][2], 13: -sys_a[key][13]}
        eps_from_2 = {2: -sys_b[key][2], 13: sys_b[key][13]}
        assert eps_from_13 == eps_from_2


def test_level_37_ground_truth():
    cs = class_set_for(37)
    assert cs.size == 3
    assert cs.mass() == eichler_mass(37, 1) == Fraction(3, 2)
    w = atkin_lehner(cs, 37).matrix
    t3 = brandt_matrix(cs, 3).matrix
    assert mat_mul(w, w) == [[int(i == j) for j in range(3)] for i in range(3)]
    assert mat_mul(w, t3) == mat_mul(t3, w)
    # a_3 of 37a (y^2 + y = x^3 - x) and of 37b, counted over F_3
    cusps = [f for f in eigenforms(cs) if f.label == "cuspidal-essential"]
    assert sorted(f.eigenvalues[3] for f in cusps) == [-3, 1]


def test_quadext_arithmetic():
    x = QuadExt(1, 2, 5)
    y = QuadExt(3, -1, 5)
    assert (x * y) == QuadExt(3 - 10, 6 - 1, 5)
    assert (x / x) == QuadExt(1, 0, 5)
    assert x.conjugate() == QuadExt(1, -2, 5)
