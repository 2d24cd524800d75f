import hashlib
import itertools
import json
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatperiods._linalg import (charpoly, identity, mat_mul, mat_vec, rref,
                                 vec_mat)
from quatperiods._poly import Poly
from quatperiods import brandt, cli
from quatperiods.brandt import (BrandtError, NumberFieldElement,
                                _tau_matrix_on_basis, _vector_to_form,
                                atkin_lehner,
                                brandt_matrices, brandt_matrix, constant_form,
                                eichler_theta, eigenforms, inner_product)
from quatperiods.harmonics import (SplitIso, random_harmonic, tau_action,
                                   trace_zero_space)
from quatperiods.lattice import norm_counts, short_vectors, theta_coeffs
from quatperiods.lseries import NewformRecord, ingest, resolve_label
from quatperiods.newformdata import curve_ap, default_data_path
from quatperiods.orders import ClassSet, class_set_for, eichler_mass
from quatperiods.periods import PeriodError, match_eigenform
from quatperiods.quatalg import _is_squarefree, _prime_factors, primes_up_to
from test_lattice import fraction_short_vectors, reference_rref


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


def apply(op, form):
    """The form op(form): op's matrix on the harmonic coordinates of form."""
    if form.class_set is not op.class_set or form.weight != op.nu:
        raise BrandtError("operator/form mismatch")
    sp = trace_zero_space(form.class_set.order.algebra)
    vec = [c for v in form.values for c in sp.coords_in_basis(v, form.weight)]
    return _vector_to_form(op.class_set, op.nu, mat_vec(op.matrix, vec),
                           op.block_dim)


def test_eigenvalue_defining_identity():
    cs = class_set_for(11)
    cusp = cuspidal_11()
    t2 = brandt_matrix(cs, 2)
    image = apply(t2, cusp)
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


def test_eichler_theta_enumerates_each_class_pair_once(monkeypatch):
    calls = []

    def counting(lattice, prec):
        calls.append(lattice)
        return theta_coeffs(lattice, prec)

    cusp = cuspidal_11()
    monkeypatch.setattr(brandt, "theta_coeffs", counting)
    th = eichler_theta(cusp, 30)
    # class number 2: the pairs (0, 0), (0, 1), (1, 1)
    assert len(calls) == 3
    eta = eta_product_11a(30)
    assert all(th[n] == th[1] * eta[n] for n in range(1, 31))


def test_tau_matrix_on_basis_matches_tau_action():
    cs = class_set_for(2)
    alg = cs.order.algebra
    sp = trace_zero_space(alg)
    rng = random.Random(5)
    for nu in (1, 2):
        basis = sp.harmonic_basis(nu)
        for _ in range(4):
            x = (*(rng.randint(-3, 3) for _ in range(3)), rng.randint(1, 3))
            tm = _tau_matrix_on_basis(alg, x, nu)
            for j, b in enumerate(basis):
                image = sum((c * tm[i][j] for i, c in enumerate(basis)),
                            Poly.zero(3))
                assert image == tau_action(alg, x, b)


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


def _random_weight_2_form(disc):
    """Random weight-2 values, one per class, not averaged over the units."""
    cs = class_set_for(disc)
    sp = trace_zero_space(cs.order.algebra)
    phi = constant_form(cs)
    phi.weight = 2
    rng = random.Random(1)
    phi.values = [random_harmonic(sp, 2, rng) for _ in range(cs.size)]
    return phi


def test_eichler_theta_positive_weight_a0_vanishes():
    th = eichler_theta(_random_weight_2_form(2), 3)
    assert th[0] == 0


def vector_sum_theta(phi, prec):
    """Oracle for eichler_theta at positive weight: the lift's defining sum
    over the vectors of every ordered pair of classes, weighted by the split
    image of phi_i x phi_j."""
    cs = phi.class_set
    split = SplitIso(cs.order.algebra, phi.weight)
    expect = {n: Fraction(0) for n in range(prec + 1)}
    for i in range(cs.size):
        for j in range(cs.size):
            w = Fraction(1, cs.unit_counts[i] * cs.unit_counts[j])
            conn = cs.connecting(i, j)
            poly4 = split.apply(phi.values[i], phi.values[j])
            for v, q in short_vectors(conn, prec, include_zero=True):
                if q.denominator == 1:
                    expect[int(q)] += w * poly4.eval(conn.ambient(v))
    return expect


@pytest.mark.parametrize("disc, prec", [(2, 3), (11, 4)])
def test_eichler_theta_positive_weight_matches_vector_sum(disc, prec):
    phi = _random_weight_2_form(disc)
    assert eichler_theta(phi, prec) == vector_sum_theta(phi, prec)


@pytest.mark.parametrize("disc, nu", [(13, 1), (7, 2)])
def test_eichler_theta_number_field_eigenform_matches_vector_sum(disc, nu):
    # the values lie in a quadratic Hecke field, and so do the coefficients
    phi = next(f for f in eigenforms(class_set_for(disc), nu) if f.field)
    assert len(phi.field) == 3
    th = eichler_theta(phi, 4)
    assert th == vector_sum_theta(phi, 4)
    assert any(isinstance(c, NumberFieldElement) for c in th.values())


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


def field_element(coeffs, modulus):
    return NumberFieldElement([Fraction(c) for c in coeffs],
                              tuple(Fraction(c) for c in modulus))


def multiplication_matrix(a):
    """Oracle: multiplication by a on the power basis, column k holding the
    coordinates of a x^k, each column the one before times x by hand:
    x^d = -(f_1 x^(d-1) + ... + f_d) for f = x^d + f_1 x^(d-1) + ... + f_d."""
    tail = a.modulus[:0:-1]
    cols = [list(a.coeffs)]
    while len(cols) < len(a.coeffs):
        prev = cols[-1]
        cols.append([c - prev[-1] * f
                     for c, f in zip([0] + prev[:-1], tail)])
    return [list(row) for row in zip(*cols)]


def field_quotient(a, b):
    """Oracle for a / b: the coordinates q with M(b) q = a for the
    multiplication matrix M(b), read off the rref of [M(b) | a]."""
    m = multiplication_matrix(b)
    red, piv = rref([row + [c] for row, c in zip(m, a.coeffs)])
    assert piv == list(range(len(m)))
    return NumberFieldElement([row[-1] for row in red], a.modulus)


@pytest.mark.parametrize("modulus", [
    (1, 1, -1),          # x^2 + x - 1: Q(sqrt 5)
    (1, 1, -3, -1),      # x^3 + x^2 - 3x - 1: the Hecke field of level 53
], ids=["quadratic", "cubic"])
def test_number_field_arithmetic(modulus):
    x = NumberFieldElement.generator(tuple(Fraction(c) for c in modulus))
    d = len(modulus) - 1
    # x is a root of f (Horner), and no lower power of x is rational
    value = 0
    for c in modulus:
        value = value * x + c
    assert value == 0
    power = x
    for _ in range(d - 1):
        assert power != power.coeffs[0]
        power = power * x
    a = field_element([1, 2] + [0] * (d - 2), modulus)       # 1 + 2x
    b = field_element([3, -1] + [Fraction(1, 2)] * (d - 2), modulus)
    assert a * b == b * a and (a + b) * a == a * a + b * a
    assert a - a == 0 and not (a - a) and a != 0
    # inverses: a * (1/a) = 1, a / b * b = a, against a rational too
    one = field_element([1] + [0] * (d - 1), modulus)
    assert a * (one / a) == 1 and a / b * b == a
    assert (a / 3) * 3 == a and one * 2 / a * a == 2
    with pytest.raises(ZeroDivisionError):
        a / (b - b)
    # the multiplication matrix of x is the companion matrix of f
    assert charpoly(multiplication_matrix(x)) == [Fraction(c) for c in modulus]


# the Hecke fields of eigen --disc 53 and eigen --disc 131
HECKE_MODULI = {
    "cubic-53": (1, 1, -3, -1),
    "degree-10-131": (1, 0, -18, 2, 111, -18, -270, 28, 232, 16, -32),
}


@pytest.mark.parametrize("modulus", HECKE_MODULI.values(), ids=HECKE_MODULI)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_number_field_laws_and_division_oracle(modulus, data):
    d = len(modulus) - 1
    coords = st.lists(st.fractions(-9, 9, max_denominator=6),
                      min_size=d, max_size=d)
    a, b, c = (field_element(data.draw(coords), modulus) for _ in range(3))
    assert (a * b) * c == a * (b * c)
    if a:
        assert a * (field_element([1] + [0] * (d - 1), modulus) / a) == 1
    if b:
        q = a / b
        assert q * b == a
        assert q == field_quotient(a, b)


@pytest.mark.parametrize("vec", [
    [Fraction(1, 2), Fraction(-3)],
    [NumberFieldElement.generator(HECKE_MODULI["cubic-53"]), Fraction(2)]],
    ids=["fraction", "number-field"])
def test_mat_vec_of_an_integer_matrix_keeps_the_vector_type(vec):
    # the all-zero row sums no product, yet is the vector's own zero
    out = mat_vec([[0, 0], [2, -1]], vec)
    assert all(type(x) is type(vec[0]) for x in out)
    assert out == [0, 2 * vec[0] - vec[1]]


def test_number_field_arithmetic_quadratic_by_hand():
    # r = x mod x^2 + x - 1, so r^2 = 1 - r
    modulus = (1, 1, -1)
    a = field_element([1, 2], modulus)
    b = field_element([3, -1], modulus)
    # (1 + 2r)(3 - r) = 3 + 5r - 2r^2 = 1 + 7r
    assert a * b == field_element([1, 7], modulus)
    # (1 + 2r)^2 = 1 + 4r + 4r^2 = 5, so 1/(1 + 2r) = (1 + 2r)/5
    one = field_element([1, 0], modulus)
    assert a * a == 5 and one / a == a / 5 and b / a == a * b / 5
    assert str(a * b) == "7*x + 1" and str(-a) == "-2*x - 1"


def orbit_degree(form):
    return len(form.field) - 1 if form.field else 1


def field_trace(value):
    if isinstance(value, NumberFieldElement):
        m = multiplication_matrix(value)
        return sum(m[i][i] for i in range(len(m)))
    return value


@pytest.mark.parametrize("disc, field_disc, a2", [
    (23, 5, (Fraction(-1, 2), Fraction(1, 2))),   # a_2(23a) = (-1 +- sqrt 5)/2
    (29, 2, (Fraction(-1), Fraction(1))),         # a_2(29a) = -1 +- sqrt 2
])
def test_quadratic_eigenforms_ground_truth(disc, field_disc, a2):
    # a +- b sqrt(d) has minimal polynomial x^2 - 2a x + a^2 - b^2 d
    a, b = a2
    a2_minpoly = (1, -2 * a, a * a - b * b * field_disc)
    cs = class_set_for(disc)
    forms = [f for f in eigenforms(cs) if f.field]
    assert len(forms) == 1
    (f,) = forms
    assert orbit_degree(f) == 2 and f.label == "cuspidal-essential"
    a2 = f.eigenvalues[2]
    # a_2 is irrational, so its minimal polynomial is its characteristic one
    assert any(a2.coeffs[1:])
    assert charpoly(multiplication_matrix(a2)) == list(a2_minpoly)
    t2 = brandt_matrix(cs, 2).matrix
    v = f.scalar_values()
    assert mat_vec(t2, v) == [a2 * x for x in v]
    assert f.al_signs == {disc: 1} and f.essential


def reference_brandt_matrices(cs, primes, nu=0):
    """Oracle: {p: T(p)} from a Fraction enumeration of every ordered pair.

    No conjugation symmetry; each entry is (1/e_j) times the sum of tau(x)
    (1 at weight 0) over the x of norm p in I_i conj(I_j).
    """
    alg = cs.order.algebra
    sp = trace_zero_space(alg)
    basis = sp.harmonic_basis(nu)
    dim = len(basis)
    size = cs.size * dim
    mats = {p: [[Fraction(0)] * size for _ in range(size)] for p in primes}
    for i in range(cs.size):
        for j in range(cs.size):
            conn = cs.connecting(i, j)
            for v, q in fraction_short_vectors(conn, max(primes)):
                if q not in mats:
                    continue
                tm = _tau_matrix_on_basis(alg, conn.ambient(v), nu) \
                    if nu else [[1]]
                for a in range(dim):
                    for b in range(dim):
                        mats[q][i * dim + a][j * dim + b] += \
                            Fraction(tm[a][b]) / cs.unit_counts[j]
    return mats


def good_primes(level, bound):
    return tuple(p for p in primes_up_to(bound) if level % p)


@pytest.mark.parametrize("n1, n2", [(11, 1), (7, 2), (13, 2), (2, 13)])
def test_brandt_matrices_match_ordered_pair_oracle(n1, n2):
    cs = class_set_for(n1, n2)
    primes = good_primes(n1 * n2, 50)
    ops = brandt_matrices(cs, primes)
    assert [op.label for op in ops] == [f"T{p}" for p in primes]
    reference = reference_brandt_matrices(cs, primes)
    for p, op in zip(primes, ops):
        assert op.matrix == reference[p]


@pytest.mark.parametrize("disc", [2, 3, 5])
def test_brandt_matrices_weight_2_match_ordered_pair_oracle(disc):
    cs = class_set_for(disc)
    primes = good_primes(disc, 7)
    reference = reference_brandt_matrices(cs, primes, 2)
    for p, op in zip(primes, brandt_matrices(cs, primes, 2)):
        assert op.matrix == reference[p]


@pytest.mark.parametrize("nu, kind", [(0, int), (2, Fraction)])
def test_operator_entries_are_int_at_weight_0_and_fraction_above(nu, kind):
    cs = class_set_for(11)
    ops = brandt_matrices(cs, (2, 3), nu) + (atkin_lehner(cs, 11, nu),)
    for op in ops:
        assert all(type(x) is kind for row in op.matrix for x in row)


def test_no_primes_give_no_operators():
    cs = class_set_for(11)
    assert brandt_matrices(cs, ()) == brandt_matrices(cs, (), 2) == ()


def test_a_count_that_a_unit_count_does_not_divide_raises():
    # the norm-2 counts at disc 11 are divisible by e = (4, 6), not by 5
    cs = class_set_for(11)
    assert cs.unit_counts == [4, 6]
    doctored = ClassSet(cs.order)
    for rep in cs.reps:
        doctored.add(rep)
    doctored.unit_counts[1] = 5
    with pytest.raises(BrandtError, match="weight-0 Brandt matrix not "
                       "integral"):
        brandt_matrices(doctored, (2,))


def test_weight_0_brandt_matrices_at_level_210_match_the_recorded_hash():
    # disc 2, level 210, class number 16: eight primes up to 37 in
    # connecting lattices far from reduced; the hash was recorded when the
    # matrices were counted from vector lists of the unreduced bases
    cs = class_set_for(2, 105)
    primes = good_primes(210, 37)
    assert cs.size == 16 and len(primes) == 8
    text = json.dumps([[[str(x) for x in row] for row in op.matrix]
                       for op in brandt_matrices(cs, primes)])
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "6c7eb816847df7405dbac590c87e65ccc632f11b4d294dbef3ea12673a8efe90"


def squarefree_levels(bound):
    """(disc, level) for squarefree level <= bound and every disc | level
    with an odd number of prime factors."""
    out = []
    for level in range(2, bound + 1):
        if not _is_squarefree(level):
            continue
        ps = _prime_factors(level)
        for k in range(1, len(ps) + 1, 2):
            for subset in itertools.combinations(ps, k):
                out.append((math.prod(subset), level))
    return out


GROUND_TRUTH = squarefree_levels(60)


def test_ground_truth_covers_every_squarefree_level_up_to_60():
    assert len(GROUND_TRUTH) == 59
    assert (2 * 3 * 5, 30) in GROUND_TRUTH and (2, 30) in GROUND_TRUTH


@pytest.mark.parametrize("disc, level", GROUND_TRUTH,
                         ids=[f"{d}-{n}" for d, n in GROUND_TRUTH])
def test_hecke_and_atkin_lehner_identities(disc, level):
    cs = class_set_for(disc, level // disc)
    assert cs.mass() == eichler_mass(disc, level // disc)
    e = cs.unit_counts
    primes = good_primes(level, 20)[:2]
    t = [op.matrix for op in brandt_matrices(cs, primes)]
    identity = [[int(i == j) for j in range(cs.size)] for i in range(cs.size)]
    for p, m in zip(primes, t):
        assert all(sum(row) == p + 1 for row in m)
        assert all(e[j] * m[i][j] == e[i] * m[j][i]
                   for i in range(cs.size) for j in range(cs.size))
    assert mat_mul(t[0], t[1]) == mat_mul(t[1], t[0])
    for ell in _prime_factors(level):
        w = atkin_lehner(cs, ell).matrix
        assert mat_mul(w, w) == identity
        assert all(mat_mul(w, m) == mat_mul(m, w) for m in t)


def test_eigenforms_enumerate_each_class_pair_once(monkeypatch):
    enumerated = []

    def counting(lattice, bound):
        enumerated.append(lattice)
        return norm_counts(lattice, bound)

    monkeypatch.setattr(brandt, "norm_counts", counting)
    for cached in (eigenforms, brandt_matrices, brandt_matrix):
        cached.cache_clear()
    cs = class_set_for(13, 2)
    assert cs.size == 3
    eigenforms(cs)
    assert len(enumerated) == len(set(map(id, enumerated))) == 3 * 4 // 2


def test_eigenforms_and_a_kernel_match_share_each_atkin_lehner():
    # eigenforms and kernel_eigenform key w_q alike, so the split and the
    # match of 26a on one class set build w_2 and w_13 once between them
    for cached in (eigenforms, atkin_lehner):
        cached.cache_clear()
    cs = class_set_for(13, 2)
    eigenforms(cs)
    record = resolve_label(ingest(default_data_path(), {"26a"}), "26a")
    match_eigenform(cs, record)
    assert atkin_lehner.cache_info().misses == 2


ORBIT_CASES = GROUND_TRUTH + [(p, p) for p in (61, 79, 83, 89, 131)]


@pytest.mark.parametrize("disc, level", ORBIT_CASES,
                         ids=[f"{d}-{n}" for d, n in ORBIT_CASES])
def test_eigenforms_are_galois_orbits(disc, level):
    cs = class_set_for(disc, level // disc)
    forms = eigenforms(cs)
    assert sum(orbit_degree(f) for f in forms) == cs.size
    primes = sorted(forms[0].eigenvalues)
    ops = brandt_matrices(cs, tuple(primes))
    for p, op in zip(primes, ops):
        if p in primes[:2]:
            assert sum(field_trace(f.eigenvalues[p]) for f in forms) == \
                sum(op.matrix[i][i] for i in range(cs.size))
        for f in forms:
            v = f.scalar_values()
            assert mat_vec(op.matrix, v) == [f.eigenvalues[p] * x for x in v]
    for f in forms:
        assert sorted(f.al_signs) == _prime_factors(level)
        assert set(f.al_signs.values()) <= {1, -1}
    # the order is exact and total: old-form copies differ in their signs
    keys = [brandt._eigenform_sort_key(f) for f in forms]
    assert all(a < b for a, b in zip(keys, keys[1:]))


@pytest.mark.parametrize("disc, level", ORBIT_CASES,
                         ids=[f"{d}-{n}" for d, n in ORBIT_CASES])
def test_eigenvectors_match_the_kernel_over_the_hecke_field(disc, level):
    # Oracle for the Krylov eigenvector: the kernel of sub - theta over
    # K = Q[x]/(f) by Gauss-Jordan in field elements, for sub the operator
    # that gives the field restricted to the orbit, normalized the same way
    cs = class_set_for(disc, level // disc)
    every = eigenforms(cs)
    forms = [f for f in every if f.field]
    primes = tuple(sorted(every[0].eigenvalues))
    ops = brandt_matrices(cs, primes) + tuple(
        atkin_lehner(cs, p) for p in _prime_factors(level))
    kernels = []
    for basis, op, fac in brandt._orbits(identity(cs.size), ops):
        d = len(fac) - 1
        if d == 1:
            continue
        theta = NumberFieldElement.generator(fac)
        sub = brandt._restrict(op.matrix, basis)
        red, piv = reference_rref([
            [field_element([x] + [0] * (d - 1), fac) - (theta if i == j else 0)
             for j, x in enumerate(row)] for i, row in enumerate(sub)])
        (free,) = [c for c in range(d) if c not in piv]
        coords = [field_element([int(c == free)] + [0] * (d - 1), fac)
                  for c in range(d)]
        for r, pc in enumerate(piv):
            coords[pc] = -red[r][free]
        kernels.append(brandt._normalize(vec_mat(coords, basis)))
    assert len(kernels) == len(forms)
    for f in forms:
        assert f.scalar_values() in kernels


# sha256 of the stdout of eigen --disc D --level N, recorded before the
# split read eigenvectors off Krylov vectors: irrational Hecke fields up to
# degree 10, and factors of multiplicity 2
EIGEN_OUTPUT_SHA256 = {
    (53, 53):
        "4c913f1990ff2505dfe14b4f29964ff66141ece76d428429baa5ded5f101a0e6",
    (131, 131):
        "76af59703cd2c28635adc77df72d15f02a5233004dc8afe1969aa4ff5c52595a",
    (23, 46):
        "5e8e9ea8466d06617c22e17ea82ce8054a63aa23d5056b03d9188bc508158f8f",
    (29, 58):
        "49f27ec83216d6b6e920ecc1d93fa362a1ab4d6f5296a7e83e0a9b3e6817a762",
    (3, 30):
        "629cd5d1f1bf79e64620fb7024ed08863fff1eac531ec040145ea08021666c2e",
    (11, 55):
        "99333cc84c59edfeef3660662f2d3af90d27c3f6efa0fc25aa5878eb3099caac",
    (2, 210):
        "ff138bc4cd53ffa7ed80f0f6a487843f055ed2411cb9402d3e0b8c14d5914d48",
}


@pytest.mark.parametrize("disc, level", EIGEN_OUTPUT_SHA256,
                         ids=[f"{d}-{n}" for d, n in EIGEN_OUTPUT_SHA256])
def test_eigen_output_matches_the_recorded_hash(capsys, disc, level):
    assert cli.main(["eigen", "--disc", str(disc), "--level",
                     str(level)]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == \
        EIGEN_OUTPUT_SHA256[(disc, level)]


def genus_x0(n):
    """Genus of X_0(n) for squarefree n, from the index of Gamma_0(n), its
    elliptic points of orders 2 and 3 and its 2^omega(n) cusps (Shimura,
    Introduction to the Arithmetic Theory of Automorphic Functions, 1971,
    Prop. 1.40 and 1.43)."""
    ps = _prime_factors(n)
    index = math.prod(p + 1 for p in ps)
    nu2 = math.prod(1 if p == 2 else 2 if p % 4 == 1 else 0 for p in ps)
    nu3 = math.prod(1 if p == 3 else 2 if p % 3 == 1 else 0 for p in ps)
    return (1 + Fraction(index, 12) - Fraction(nu2, 4) - Fraction(nu3, 3)
            - Fraction(2 ** len(ps), 2))


def new_cusp_dimension(n):
    """dim S_2^new(Gamma_0(n)) for squarefree n: dim S_2(Gamma_0(n)) =
    sum over d | n of 2^omega(n/d) dim S_2^new(d), inverted over the
    divisors d of n with weights (-2)^omega(d)."""
    ps = _prime_factors(n)
    return sum((-2) ** k * genus_x0(n // math.prod(ds))
               for k in range(len(ps) + 1)
               for ds in itertools.combinations(ps, k))


@pytest.mark.parametrize("disc, level", GROUND_TRUTH,
                         ids=[f"{d}-{n}" for d, n in GROUND_TRUTH])
def test_essential_forms_span_the_new_space(disc, level):
    # Jacquet-Langlands: the essential part at level N matches the weight-2
    # newforms of level N, so the orbits labelled essential have total
    # degree dim S_2^new(Gamma_0(N)), counted here without any quaternion
    forms = eigenforms(class_set_for(disc, level // disc))
    assert sum(orbit_degree(f) for f in forms
               if f.label == "cuspidal-essential") == new_cusp_dimension(level)


def test_sort_key_reads_a_rational_eigenvalue_by_value_not_type():
    # an elimination may return a rational eigenvalue over a Hecke field as
    # a Fraction or as a field element; the order must not see which
    modulus = (1, 1, -1)
    x = field_element([0, 1], modulus)

    def form(a2, a3):
        return SimpleNamespace(label="cuspidal-essential", field=modulus,
                               eigenvalues={2: a2, 3: a3}, al_signs={11: 1})

    one = field_element([1, 0], modulus)
    assert brandt._eigenform_sort_key(form(Fraction(1), x)) == \
        brandt._eigenform_sort_key(form(one, x))
    # tied at 2, so a_3 decides: x comes before x + 5
    forms = [form(Fraction(1), x + 5), form(one, x)]
    assert sorted(forms, key=brandt._eigenform_sort_key) == forms[::-1]


def test_block_that_is_not_one_orbit_raises():
    # weight 2 on the maximal order of disc 2: the T(p) of the first 8 good
    # p and w_2 leave a 2-dim block unsplit, and none of them acts on it
    # irreducibly
    with pytest.raises(BrandtError, match="not one Galois orbit"):
        eigenforms(class_set_for(2), 2)


# Jacquet-Langlands ground truth: rational newforms from Cremona's tables
# (Algorithms for Modular Elliptic Curves, 1997) as curve models; a typo in
# a model fails the match, which is why it must find exactly one form
JL_CURVES = {
    # label: (disc, level, [a1, a2, a3, a4, a6])
    "35a": (5, 35, [0, 1, 1, 9, 1]),
    "37a": (37, 37, [0, 0, 1, -1, 0]),
    "37b": (37, 37, [0, 1, 1, -23, -50]),
    "38a": (2, 38, [1, 0, 1, 9, 90]),
    "38b": (2, 38, [1, 1, 1, 0, 1]),
    "39a": (3, 39, [1, 1, 0, -4, -5]),
    "43a": (43, 43, [0, 1, 1, 0, 0]),
    "53a": (53, 53, [1, -1, 1, 0, 0]),
    "57a": (3, 57, [0, -1, 1, -2, 2]),
    "57c": (3, 57, [0, 1, 1, 20, -32]),
    "58a": (2, 58, [1, -1, 0, -1, 1]),
    "58b": (2, 58, [1, 1, 1, 5, 9]),
    "61a": (61, 61, [1, 0, 0, -2, 1]),
    "65a": (5, 65, [1, 0, 0, -1, 0]),
    "66a": (2, 66, [1, 0, 1, -6, 4]),
    "66c": (2, 66, [1, 0, 0, -45, 81]),
    "77a": (7, 77, [0, 0, 1, 2, 0]),
}


def jl_record(label):
    """The record of a JL_CURVES model: a_p at p <= 50 and at p | N."""
    disc, level, coeffs = JL_CURVES[label]
    ap = {p: curve_ap(coeffs, p)
          for p in primes_up_to(50) + _prime_factors(level)}
    assert all(ap[p] in (1, -1) for p in _prime_factors(level))
    return class_set_for(disc, level // disc), NewformRecord(label, level, 2,
                                                             ap, {})


@pytest.mark.parametrize("label", sorted(JL_CURVES))
def test_curve_matches_one_rational_eigenform(label):
    # the Hecke kernel against the split: the one rational essential form
    # with the curve's eigenvalues has the kernel form's values
    cs, record = jl_record(label)
    form = match_eigenform(cs, record)
    forms = eigenforms(cs)
    same = [f for f in forms if f.label == "cuspidal-essential"
            and not f.field and all(f.eigenvalues[p] == record.a(p)
                                    for p in f.eigenvalues)]
    assert len(same) == 1
    assert form.field is None
    assert form.scalar_values() == same[0].scalar_values()
    assert form.al_signs == same[0].al_signs
    if record.level in (35, 39, 43, 53, 61, 65, 77):
        assert any(f.field for f in forms)


def test_a_kernel_of_dimension_0_or_2_is_no_match():
    cs, record = jl_record("37a")
    ap = dict(record.ap)
    ap[47] += 2
    with pytest.raises(PeriodError, match="37a: no eigenform has these"):
        match_eigenform(cs, record._replace(ap=ap))
    # no good prime <= 2 at level 38, and the constant form has the
    # signs of 38b, w_2 = w_19 = +1
    cs, record = jl_record("38b")
    with pytest.raises(PeriodError, match="38b: eigenform ambiguity, a "
                       "2-dim space"):
        match_eigenform(cs, record, bound=2)
