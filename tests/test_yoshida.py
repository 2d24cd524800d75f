import random
from fractions import Fraction

import pytest

from quatperiods._poly import Poly
from quatperiods.brandt import (QuatForm, constant_form, eigenforms,
                                unit_average_form)
from quatperiods.harmonics import random_harmonic, trace_zero_space
from quatperiods.lattice import short_vectors, theta_coeffs
from quatperiods.orders import class_set_for
from quatperiods.yoshida import (FourierTable, HalfIntMatrix, YoshidaError,
                                 diagonal_restriction, psi_components,
                                 unimodular_check, yoshida_lift)

from test_lattice import basis_gram


def scalar_form(cs, scalars):
    """The weight-0 form with the given value on each class."""
    return QuatForm(cs, 0, [Poly.const(3, s) for s in scalars])


def disc11_forms():
    cs = class_set_for(11)
    forms = eigenforms(cs)
    e = next(f for f in forms if f.label == "cuspidal-essential")
    const = next(f for f in forms if f.label == "eisenstein")
    return cs, e, const


def reference_yoshida_lift(phi1, phi2, prec):
    """Oracle for yoshida_lift: every coefficient polynomial evaluated with
    Poly.eval in Fractions at every vector pair, index by index."""
    cs = phi1.class_set
    nu1, nu2 = phi1.weight, phi2.weight
    scalar = (nu1 == 0 and nu2 == 0)
    alphas = [(a1, 2 * nu2 - a1) for a1 in range(2 * nu2 + 1)]
    coeffs = {}
    for i in range(cs.size):
        for j in range(cs.size):
            w = Fraction(1, cs.unit_counts[i] * cs.unit_counts[j])
            if scalar:
                coef = w * phi1.scalar_values()[i] * phi2.scalar_values()[j]
                if coef == 0:
                    continue
            else:
                q_bip = phi1.values[i].embed(6) * phi2.values[j].embed(6, 3)
                if q_bip.is_zero():
                    continue
                family = psi_components(q_bip, nu1, nu2, cs.order.algebra)
            conn = cs.connecting(i, j)
            g = basis_gram(conn)
            vecs = short_vectors(conn, prec, include_zero=True)
            for v1, q1 in vecs:
                for v2, q2 in vecs:
                    if q1.denominator != 1 or q2.denominator != 1 or \
                            q1 + q2 > prec:
                        continue
                    m2 = sum(v1[a] * g[a][b] * v2[b]
                             for a in range(4) for b in range(4))
                    if m2.denominator != 1:
                        continue
                    t = HalfIntMatrix(int(q1), int(m2), int(q2))
                    if scalar:
                        add = Poly.const(2, coef)
                    else:
                        pt = conn.ambient(v1) + conn.ambient(v2)
                        add = Poly(2, ((key, family[key].eval(pt) * w)
                                       for key in alphas))
                    coeffs[t] = coeffs.get(t, Poly.zero(2)) + add
    return {t: c for t, c in coeffs.items() if not c.is_zero()}


def seeded_pair(disc, nu, seed):
    """The unit-averaged pair that `yoshida --nu1 nu --nu2 nu` lifts."""
    cs = class_set_for(disc)
    rng = random.Random(seed)
    return unit_average_form(cs, nu, rng), unit_average_form(cs, nu, rng)


def disc11_cusp_pair():
    e = disc11_forms()[1]
    return e, e


def cubic_eigenform_pair(disc, nu):
    f = next(f for f in eigenforms(class_set_for(disc), nu) if f.field)
    return f, f


@pytest.mark.parametrize("make, args, prec, dens", [
    pytest.param(seeded_pair, (3, 2, 1), 4, [2], id="disc3-nu2-seed1"),
    pytest.param(seeded_pair, (3, 2, 2), 4, [2], id="disc3-nu2-seed2"),
    pytest.param(seeded_pair, (3, 2, 3), 4, [2], id="disc3-nu2-seed3"),
    # class number 2: the weights 1/(e_i e_j) vary over four lattices
    pytest.param(seeded_pair, (11, 2, 1), 3, [2, 2, 2, 4], id="disc11-nu2"),
    pytest.param(disc11_cusp_pair, (), 6, [2, 2, 2, 4], id="disc11-nu0"),
    # coefficients in the cubic Hecke field of a weight-1 eigenform
    pytest.param(cubic_eigenform_pair, (13, 1), 3, [4], id="disc13-cubic"),
])
def test_lift_matches_pairwise_fraction_oracle(make, args, prec, dens):
    phi1, phi2 = make(*args)
    cs = phi1.class_set
    # the basis denominators that the integer sums must clear
    assert [cs.connecting(i, j).basis[0] for i in range(cs.size)
            for j in range(cs.size)] == dens
    expect = reference_yoshida_lift(phi1, phi2, prec)
    assert expect
    assert yoshida_lift(phi1, phi2, prec).coeffs == expect


def test_half_int_matrix_psd():
    assert HalfIntMatrix(1, 2, 1).is_psd()
    assert not HalfIntMatrix(1, 3, 1).is_psd()
    assert HalfIntMatrix(0, 0, 5).is_psd()


def test_lift_cuspidal_a0_vanishes():
    cs, e, const = disc11_forms()
    table = yoshida_lift(e, e, 4)
    assert HalfIntMatrix(0, 0, 0) not in table.coeffs


def test_lift_eisenstein_a0_mass_squared():
    cs, e, const = disc11_forms()
    table = yoshida_lift(const, const, 2)
    a0 = table.coeffs[HalfIntMatrix(0, 0, 0)]
    assert a0 == Poly.const(2, Fraction(25, 144))


def test_lift_bilinear():
    cs, e, const = disc11_forms()
    f1 = scalar_form(cs, [1, 2])
    f2 = scalar_form(cs, [-1, 1])
    g = scalar_form(cs, [2, 5])
    ta = yoshida_lift(f1, g, 3)
    tb = yoshida_lift(f2, g, 3)
    tsum = yoshida_lift(scalar_form(cs, [1 - 2, 2 + 2]), g, 3)
    keys = set(ta.coeffs) | set(tb.coeffs) | set(tsum.coeffs)
    for t in keys:
        assert tsum.coeffs.get(t, Poly.zero(2)) == \
            ta.coeffs.get(t, Poly.zero(2)) + tb.coeffs.get(t, Poly.zero(2)) * 2


def test_lift_mismatched_eigenvalues_consistency():
    # same w_11 eigenvalue for e and const at disc 11, so the mixed lift
    # need not vanish; assert sign consistency with the computed involutions
    cs, e, const = disc11_forms()
    assert e.al_signs[11] == const.al_signs[11]
    mixed = yoshida_lift(e, const, 4)
    assert any(not c.is_zero() for c in mixed.coeffs.values())


def test_lift_parity_rejected():
    cs, e, const = disc11_forms()
    bad = constant_form(cs)
    bad.weight = 1
    sp = trace_zero_space(cs.order.algebra)
    bad.values = [random_harmonic(sp, 1, random.Random(3)) for _ in range(2)]
    with pytest.raises(YoshidaError):
        yoshida_lift(bad, constant_form(cs), 2)  # nu1 - nu2 = 1 odd


def test_diagonal_restriction_product_structure():
    # full restriction equals sum_{ij} w e_i e_j theta_ij(z1) theta_ij(z2)
    cs, e, const = disc11_forms()
    table = yoshida_lift(e, e, 6)
    restrict = diagonal_restriction(table, 0, 0)
    sv = e.scalar_values()
    check = {}
    for i in range(cs.size):
        for j in range(cs.size):
            w = Fraction(sv[i] * sv[j],
                         cs.unit_counts[i] * cs.unit_counts[j])
            th = theta_coeffs(cs.connecting(i, j), 6)
            for n1, c1 in th.items():
                for n2, c2 in th.items():
                    if n1 + n2 <= 6:
                        key = (n1, n2)
                        check[key] = check.get(key, Fraction(0)) + w * c1 * c2
    for key in set(check) | set(restrict):
        assert restrict.get(key, 0) == check.get(key, 0)


def test_diagonal_restriction_wrong_alphas():
    cs, e, const = disc11_forms()
    table = yoshida_lift(e, e, 2)
    with pytest.raises(YoshidaError):
        diagonal_restriction(table, 1, 0)


def test_parity_gate_vector_case():
    # (nu1, nu2) = (3, 1), (alpha1, alpha2) = (1, 1): alpha' = 3 odd,
    # the restriction map is identically zero
    table = FourierTable(3, 1, 2, {HalfIntMatrix(1, 0, 1):
                                   Poly.monomial((1, 1), 5)})
    table.coeffs[HalfIntMatrix(0, 0, 1)] = Poly.monomial((2, 0), 1)
    out = diagonal_restriction(table, 1, 1)
    assert list(out) == [(0, 1), (1, 1)]
    assert all(v == 0 for v in out.values())


def test_unimodular_checks_scalar():
    cs, e, const = disc11_forms()
    table = yoshida_lift(e, e, 6)
    assert unimodular_check(table, [[1, 0], [0, 1]], HalfIntMatrix(2, 1, 3))
    rng = random.Random(4)
    checked = 0
    for _ in range(40):
        u = rng.choice([[[0, 1], [1, 0]], [[1, 1], [0, 1]], [[1, 0], [1, 1]],
                        [[1, -1], [0, 1]], [[0, 1], [-1, 0]]])
        t = HalfIntMatrix(rng.randint(0, 2), rng.randint(-2, 2),
                          rng.randint(0, 2))
        if not t.is_psd():
            continue
        if t.trace > 6 or t.transform(u).trace > 6:
            continue
        assert unimodular_check(table, u, t)
        checked += 1
    assert checked >= 20


def test_unimodular_check_out_of_precision():
    cs, e, const = disc11_forms()
    table = yoshida_lift(e, e, 2)
    with pytest.raises(YoshidaError):
        unimodular_check(table, [[1, 4], [0, 1]], HalfIntMatrix(1, 1, 1))


def test_lift_positive_weight_unimodular():
    # vector-valued case: valid (unit-averaged) weight-(1,1) pair at disc 11
    from quatperiods.brandt import unit_average_form
    cs = class_set_for(11)
    rng = random.Random(5)
    phi1 = unit_average_form(cs, 1, rng)
    phi2 = unit_average_form(cs, 1, rng)
    assert any(not v.is_zero() for v in phi1.values)
    table = yoshida_lift(phi1, phi2, 4)
    assert any(not c.is_zero() for c in table.coeffs.values())
    for poly in table.coeffs.values():
        assert poly.total_degree() == 2  # homogeneous of degree 2 nu2
    for u in ([[0, 1], [1, 0]], [[1, 1], [0, 1]], [[1, 0], [-1, 1]]):
        for t in list(table.coeffs):
            if t.transform(u).trace <= 4 and t.trace <= 4:
                assert unimodular_check(table, u, t)
    # odd alpha' slots cancel in the m2-sum (the restriction parity gate is
    # automatic, not imposed)
    sums = {}
    for t, poly in table.coeffs.items():
        v = poly.terms.get((1, 1), Fraction(0))
        sums[(t.n1, t.n2)] = sums.get((t.n1, t.n2), Fraction(0)) + v
    assert all(v == 0 for v in sums.values())


def test_json_roundtrip_shape():
    cs, e, const = disc11_forms()
    table = yoshida_lift(e, e, 2)
    js = table.to_json()
    assert js["nu"] == [0, 0]
    assert all(len(item["T"]) == 3 for item in js["coeffs"])
