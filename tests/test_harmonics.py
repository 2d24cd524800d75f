import random
from fractions import Fraction
from functools import lru_cache, reduce
from math import factorial
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatperiods import _linalg
from quatperiods._linalg import mat_mul, mat_vec, rref
from quatperiods._poly import Poly
from quatperiods.brandt import NumberFieldElement
from quatperiods.harmonics import (HarmonicsError, SplitIso, TrilinearForm,
                                   _cross_bilinear, _monomials, _pair_block,
                                   balanced, c_coeff, full_space,
                                   random_harmonic, standard_space,
                                   tau_action, tau_substitution,
                                   trace_zero_space, trilinear_form)
from quatperiods.quatalg import algebra_for_discriminant, quaternion_product
from test_quatalg import Quaternion, gens, inverse, one, trace


def _block_laplacian(p, gram_inv, offset, dim):
    out = Poly.zero(p.nvars)
    for i in range(dim):
        di = p.diff(offset + i)
        for j in range(dim):
            g = gram_inv[i][j]
            if g:
                out = out + di.diff(offset + j) * g
    return out


@lru_cache(maxsize=None)
def _projection_solver(space, degree):
    """The monomials of degree - 2 and the inverse of g -> Lap(q g) on the
    polynomials they span."""
    lower = _monomials(space.dim, degree - 2)
    images = [space.laplacian(space.q_poly * Poly.monomial(m)) for m in lower]
    return lower, _linalg.inverse([[img.terms.get(lm, Fraction(0))
                                    for img in images] for lm in lower])


def harmonic_projection(space, p):
    """Fischer-orthogonal projection onto harmonics, degree by degree: each
    homogeneous part P less q g, for the g with Lap(q g) = Lap(P)."""
    out = Poly.zero(space.dim)
    for d in sorted({sum(m) for m in p.terms}):
        part = Poly(space.dim, {m: c for m, c in p.terms.items()
                                if sum(m) == d})
        lap = space.laplacian(part)
        if not lap.is_zero():
            lower, inv = _projection_solver(space, d)
            g = mat_vec(inv, [lap.terms.get(m, Fraction(0)) for m in lower])
            part = part - space.q_poly * Poly(space.dim, zip(lower, g))
        out = out + part
    return out


# -- the polynomial constructor and embed -------------------------------------

def test_poly_sums_repeated_monomials_and_drops_zero_sums():
    p = Poly(2, [((1, 0), 2), ((0, 1), 3), ((1, 0), 5), ((0, 1), -3)])
    assert p.terms == {(1, 0): 7}
    assert Poly(2, {(1, 1): 0}).is_zero()


def test_poly_int_coefficients_become_fractions():
    p = Poly(2, {(1, 0): 3, (0, 1): -1})
    assert all(type(c) is Fraction for c in p.terms.values())
    halves = {m: c / 2 for m, c in p.terms.items()}
    assert halves == {(1, 0): Fraction(3, 2), (0, 1): Fraction(-1, 2)}
    assert all(type(c) is Fraction for c in halves.values())


def test_poly_keeps_number_field_coefficients():
    root2 = NumberFieldElement.generator((Fraction(1), Fraction(0),
                                          Fraction(-2)))
    p = Poly(2, [((1, 0), root2), ((0, 1), 1), ((0, 1), root2 * -1)])
    assert p.terms[(1, 0)] is root2
    assert p.terms[(0, 1)] == -root2 + 1
    assert (p * p).terms[(2, 0)] == 2
    assert Poly(2, [((1, 0), root2), ((1, 0), -root2)]).is_zero()


ROOT2 = NumberFieldElement.generator((Fraction(1), Fraction(0), Fraction(-2)))

monomials2 = st.tuples(st.integers(0, 2), st.integers(0, 2))
small_polys = st.one_of(
    st.dictionaries(monomials2, st.integers(-3, 3), max_size=4),
    st.dictionaries(monomials2, st.tuples(st.integers(-2, 2),
                                          st.integers(-2, 2)).map(
        lambda ab: ROOT2 * ab[1] + ab[0]), max_size=3),
).map(lambda terms: Poly(2, terms))


def counted_power(p, k):
    """(p ** k, the number of Poly products it took)."""
    calls = []
    product = Poly.__mul__

    def counting(self, other):
        calls.append(other)
        return product(self, other)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Poly, "__mul__", counting)
        result = p ** k
    return result, len(calls)


@settings(max_examples=120, deadline=None)
@given(small_polys, st.integers(0, 6))
def test_poly_power_is_the_repeated_product_by_binary_powering(p, k):
    result, products = counted_power(p, k)
    assert result == reduce(mul, [p] * k, Poly.const(2, 1))
    # floor(log2 k) squares and popcount(k) - 1 further products
    assert products <= (k.bit_length() - 1 + k.bit_count() - 1 if k else 0)


@pytest.mark.parametrize("k", [-1, -3, 1.0, Fraction(2)])
def test_poly_power_rejects_exponents_that_are_not_nonnegative_ints(k):
    with pytest.raises(ValueError, match="nonnegative int"):
        Poly(2, {(1, 0): 1}) ** k


def test_poly_embed_tensor_matches_term_products():
    rng = random.Random(14)
    sp = standard_space(3)
    a = random_harmonic(sp, 2, rng)
    b = random_harmonic(sp, 1, rng)
    assert _tensor6(a, b).terms == {m1 + m2: c1 * c2
                                    for m1, c1 in a.terms.items()
                                    for m2, c2 in b.terms.items()}
    assert b.embed(5, 1).terms == {(0,) + m + (0,): c
                                   for m, c in b.terms.items()}


# -- Gegenbauer kernel --------------------------------------------------------

def gegenbauer_kernel(alpha, x, x2):
    """Oracle for the 4-space kernel_bipoly: the Gegenbauer kernel value at
    two quaternions, exact rational (the half powers cancel)."""
    nx, ny = x.norm(), x2.norm()
    t = trace(x * x2.conj())
    total = Fraction(0)
    for j in range(alpha // 2 + 1):
        c = Fraction((-1) ** j * 2 ** alpha * factorial(alpha - j),
                     factorial(j) * factorial(alpha - 2 * j))
        total += c * (nx * ny) ** j * t ** (alpha - 2 * j)
    return total


def test_gegenbauer_kernel_values():
    alg = algebra_for_discriminant(2)
    e = one(alg)
    for x in (e, e + gens(alg)[0]):
        assert gegenbauer_kernel(0, x, e) == 1
    # alpha = 1: kernel is 2 tr(x conj(x')), so at x = x' = 1 it is 4
    assert gegenbauer_kernel(1, e, e) == 4


def test_gegenbauer_kernel_symmetry_and_rationality():
    rng = random.Random(1)
    alg = algebra_for_discriminant(11)
    for _ in range(50):
        x = Quaternion(alg, *[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                              for _ in range(4)])
        y = Quaternion(alg, *[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                              for _ in range(4)])
        for alpha in (1, 2, 3):
            v = gegenbauer_kernel(alpha, x, y)
            assert isinstance(v, Fraction)
            assert v == gegenbauer_kernel(alpha, y, x)


def test_kernel_rationality_high_degree():
    alg = algebra_for_discriminant(2)
    x = Quaternion(alg, 1, Fraction(1, 2), 0, 1)
    y = Quaternion(alg, 0, 1, Fraction(1, 3), 1)
    for alpha in range(9):
        assert isinstance(gegenbauer_kernel(alpha, x, y), Fraction)


def test_kernel_bipoly_matches_value_and_harmonic():
    alg = algebra_for_discriminant(11)
    sp = full_space(alg)
    rng = random.Random(2)
    for alpha in (1, 2, 3):
        bip = sp.kernel_bipoly(alpha)
        # harmonic in the x block and in the y block
        assert _block_laplacian(bip, sp.gram_inv, 0, 4).is_zero()
        assert _block_laplacian(bip, sp.gram_inv, 4, 4).is_zero()
        for _ in range(5):
            xc = [Fraction(rng.randint(-4, 4)) for _ in range(4)]
            yc = [Fraction(rng.randint(-4, 4)) for _ in range(4)]
            x = Quaternion(alg, *xc)
            y = Quaternion(alg, *yc)
            assert bip.eval(xc + yc) == gegenbauer_kernel(alpha, x, y)


def test_trace_zero_kernel_harmonic():
    alg = algebra_for_discriminant(11)
    sp = trace_zero_space(alg)
    for nu in (1, 2, 3):
        bip = sp.kernel_bipoly(nu)
        assert _block_laplacian(bip, sp.gram_inv, 0, 3).is_zero()
        assert _block_laplacian(bip, sp.gram_inv, 3, 3).is_zero()


# -- reproducing property ----------------------------------------------------

def test_kernel_normalization_reproduces():
    sp = standard_space(4)
    rng = random.Random(3)
    assert sp.kernel_normalization(0) == 1
    basis = sp.harmonic_basis(2)
    for _ in range(10):
        pt = [Fraction(rng.randint(-6, 6), rng.randint(1, 2))
              for _ in range(4)]
        ker = sp.kernel_at(2, pt)
        for b in basis:
            assert sp.inner(ker, b, 2) == b.eval(pt)


def test_double_reproduction():
    sp = standard_space(4)
    rng = random.Random(4)
    for alpha in (1, 2, 3):
        for _ in range(5):
            x = [Fraction(rng.randint(-4, 4)) for _ in range(4)]
            y = [Fraction(rng.randint(-4, 4)) for _ in range(4)]
            kx = sp.kernel_at(alpha, x)
            ky = sp.kernel_at(alpha, y)
            bip = sp.kernel_bipoly(alpha)
            assert sp.inner(kx, ky, alpha) == bip.eval(list(x) + list(y))


def test_reproducing_property_full_basis_alpha_up_to_6():
    sp = standard_space(4)
    pt = [Fraction(1), Fraction(2), Fraction(-1), Fraction(3)]
    for alpha in range(7):
        ker = sp.kernel_at(alpha, pt)
        for b in sp.harmonic_basis(alpha):
            assert sp.inner(ker, b, alpha) == b.eval(pt)


# -- tau action ---------------------------------------------------------------

def test_tau_identity_and_central():
    alg = algebra_for_discriminant(11)
    sp = trace_zero_space(alg)
    p = random_harmonic(sp, 2, random.Random(5))
    assert tau_action(alg, (1, 0, 0, 0), p) == p
    assert tau_action(alg, (3, 0, 0, 0), p) == p


def test_tau_group_law():
    alg = algebra_for_discriminant(2)
    sp = trace_zero_space(alg)
    rng = random.Random(6)
    p = random_harmonic(sp, 2, rng)
    y1, y2 = (1, 2, 0, -1), (0, 1, 1, 1)
    y12 = quaternion_product(alg.a, alg.b, y1, y2)
    assert tau_action(alg, y12, p) == \
        tau_action(alg, y1, tau_action(alg, y2, p))


def test_tau_rotation_example():
    # conjugation by i rotates by pi about the i axis: j -> -j, k -> -k
    alg = algebra_for_discriminant(2)
    assert tau_substitution(alg, (0, 1, 0, 0)) == \
        [[Fraction(1), 0, 0], [0, Fraction(-1), 0], [0, 0, Fraction(-1)]]


nonzero_tuples = st.lists(st.integers(-4, 4), min_size=4,
                          max_size=4).filter(any).map(tuple)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 7, 13]), nonzero_tuples, nonzero_tuples,
       st.integers(-5, 5).filter(bool), st.integers(1, 4))
def test_tau_substitution_on_tuples(n1, y1, y2, c, d):
    alg = algebra_for_discriminant(n1)
    s1 = tau_substitution(alg, y1)
    # tau(c y) = tau(y), and Fraction coordinates y / d give the same matrix
    assert tau_substitution(alg, tuple(c * x for x in y1)) == s1
    assert tau_substitution(alg, tuple(Fraction(x, d) for x in y1)) == s1
    # tau(y1 y2) = tau(y1) o tau(y2): P(S12 x) = P(S2 S1 x)
    s12 = tau_substitution(alg, quaternion_product(alg.a, alg.b, y1, y2))
    assert s12 == mat_mul(tau_substitution(alg, y2), s1)
    # against the oracle quaternion: column t is y^{-1} e_t y
    q = Quaternion(alg, *y1)
    for t, e in enumerate(gens(alg)):
        assert [row[t] for row in s1] == (inverse(q) * e * q).coords()[1:]


def test_tau_rejects_zero():
    with pytest.raises(HarmonicsError):
        tau_substitution(algebra_for_discriminant(2), (0, 0, 0, 0))


def test_tau_preserves_inner_product_exact():
    alg = algebra_for_discriminant(11)
    sp = trace_zero_space(alg)
    rng = random.Random(7)
    for _ in range(10):
        y = [rng.randint(-4, 4) for _ in range(4)]
        if not any(y):
            continue
        p = random_harmonic(sp, 2, rng)
        q = random_harmonic(sp, 2, rng)
        assert sp.inner(tau_action(alg, y, p), tau_action(alg, y, q), 2) == \
            sp.inner(p, q, 2)


def test_tau_preserves_inner_product_numeric_oracle():
    # independent numeric check at 100-bit precision
    import mpmath
    mpmath.mp.prec = 100
    alg = algebra_for_discriminant(11)
    sp = trace_zero_space(alg)
    rng = random.Random(8)
    y = (2, -1, 1, 0)
    p = random_harmonic(sp, 2, rng)
    q = random_harmonic(sp, 2, rng)
    lhs = sp.inner(tau_action(alg, y, p), tau_action(alg, y, q), 2)
    rhs = sp.inner(p, q, 2)
    assert abs(mpmath.mpf(float(lhs - rhs))) < mpmath.mpf(2) ** -90
    assert lhs == rhs


def test_tau_preserves_harmonicity():
    alg = algebra_for_discriminant(3)
    sp = trace_zero_space(alg)
    p = random_harmonic(sp, 3, random.Random(9))
    assert sp.laplacian(tau_action(alg, (1, 1, -2, 1), p)).is_zero()


# -- trilinear forms ----------------------------------------------------------

def test_trilinear_constants():
    t = trilinear_form(0, 0, 0, standard_space(3))
    assert not t.zero
    one = Poly.const(3, 1)
    assert t.value(one, one, one) == 1


def test_trilinear_triangle_violation():
    t = trilinear_form(1, 0, 0, standard_space(3))
    assert t.zero and t.reason == "unbalanced"


def test_trilinear_parity_violation():
    # half degrees (1,1,1): sum odd
    t = trilinear_form(1, 2, 2, standard_space(3))
    assert t.zero and t.reason == "parity"


def test_trilinear_nonzero_and_invariant():
    # (nu, b1p, b2p) = (2, 2, 2): half degrees (2,1,1), sum even, balanced
    alg = algebra_for_discriminant(2)  # standard 3-space
    sp = trace_zero_space(alg)
    t = trilinear_form(2, 2, 2, sp)
    assert not t.zero
    assert t.nonzero_witness() is not None
    rng = random.Random(10)
    p = random_harmonic(sp, 2, rng)
    q = random_harmonic(sp, 1, rng)
    r = random_harmonic(sp, 1, rng)
    base = t.value(p, q, r)
    for _ in range(5):
        y = [rng.randint(-3, 3) for _ in range(4)]
        if not any(y):
            continue
        assert t.value(tau_action(alg, y, p), tau_action(alg, y, q),
                       tau_action(alg, y, r)) == base


def test_trilinear_balance_scan_small():
    sp = standard_space(3)
    for nu in range(4):
        for b1 in range(0, 7, 2):
            for b2 in range(0, 7, 2):
                t = trilinear_form(nu, b1, b2, sp)
                expect_nonzero = balanced(nu, b1 // 2, b2 // 2) and \
                    (nu + b1 // 2 + b2 // 2) % 2 == 0
                if expect_nonzero:
                    assert not t.zero
                    assert t.nonzero_witness() is not None
                else:
                    assert t.zero


def test_trilinear_uniqueness_injectivity():
    # for fixed (b1p, b2p) and Q over a basis, Q -> T(Q, ., .) is injective
    sp = standard_space(3)
    t = trilinear_form(2, 2, 2, sp)
    basis = sp.harmonic_basis(2)
    b1 = sp.harmonic_basis(1)
    rows = []
    for q in basis:
        rows.append([t.value(q, u, v) for u in b1 for v in b1])
    assert len(rref(rows)[1]) == len(basis)


def projected_value(form, p, q, r):
    """Oracle for TrilinearForm.value: the Laplacian iterate of the product
    (or of the epsilon coupling, at an odd degree sum) projected to
    harmonics before it is paired with r.  Also returns whether the
    projection changed it."""
    a, b, c = form.degrees
    sp = form.space
    if (a + b + c) % 2:
        prod, k = _cross_bilinear(sp, p, q), (a + b - 1 - c) // 2
    else:
        prod, k = p * q, (a + b - c) // 2
    for _ in range(k):
        prod = sp.laplacian(prod)
    proj = harmonic_projection(sp, prod)
    return sp.inner(proj, r, c), proj != prod


def test_trilinear_value_needs_no_harmonic_projection():
    # r is harmonic, so the part q g that the projection removes pairs to
    # <g, Lap r> = 0; odd degree sums take the pseudo-scalar coupling, and
    # the disc-11 trace-zero space has a non-diagonal Gram matrix
    rng = random.Random(35)
    changed = total = 0
    for sp in (standard_space(3),
               trace_zero_space(algebra_for_discriminant(11))):
        for degrees in ((1, 1, 2), (2, 2, 2), (2, 1, 2), (2, 2, 3),
                        (3, 2, 3), (3, 3, 2)):
            form = TrilinearForm(sp, degrees, False)
            for _ in range(3):
                p, q, r = (random_harmonic(sp, d, rng) for d in degrees)
                want, moved = projected_value(form, p, q, r)
                assert form.value(p, q, r) == want != 0
                changed += moved
                total += 1
    # the projection is not the identity on most of these iterates
    assert 2 * changed > total


# -- harmonic coordinates ------------------------------------------------------

def fischer_coords(space, p, degree):
    """Oracle for coords_in_basis: solve the Fischer pairings of p against
    the basis with the basis' Fischer Gram matrix, as the inverse Gram
    matrix applied to the pairings."""
    basis = space.harmonic_basis(degree)
    gram = [[space.fischer(b1, b2) for b2 in basis] for b1 in basis]
    pairings = [space.fischer(b, p) for b in basis]
    return mat_vec(_linalg.inverse(gram), pairings)


def _coordinate_spaces():
    yield standard_space(3)
    for disc in (2, 11):
        alg = algebra_for_discriminant(disc)
        yield trace_zero_space(alg)
        yield full_space(alg)


def test_coords_in_basis_matches_fischer_solve():
    rng = random.Random(15)
    for sp in _coordinate_spaces():
        for degree in range(5):
            p = random_harmonic(sp, degree, rng)
            coords = sp.coords_in_basis(p, degree)
            assert coords == fischer_coords(sp, p, degree)
            assert len(coords) == (2 * degree + 1 if sp.dim == 3
                                   else (degree + 1) ** 2)


def test_coords_in_basis_keeps_number_field_coefficients():
    root2 = NumberFieldElement.generator((Fraction(1), Fraction(0),
                                          Fraction(-2)))
    sp = trace_zero_space(algebra_for_discriminant(11))
    basis = sp.harmonic_basis(2)
    weights = [root2 * (k - 2) + k for k in range(len(basis))]
    p = Poly(3, ((m, x * c) for b, c in zip(basis, weights)
                 for m, x in b.terms.items()))
    coords = sp.coords_in_basis(p, 2)
    assert coords == weights
    assert coords == fischer_coords(sp, p, 2)


def test_coords_in_basis_rejects_non_harmonic():
    sp = trace_zero_space(algebra_for_discriminant(2))
    with pytest.raises(HarmonicsError):
        sp.coords_in_basis(sp.q_poly, 2)
    with pytest.raises(HarmonicsError):
        sp.coords_in_basis(random_harmonic(sp, 2, random.Random(16)), 1)


# -- split isomorphism ---------------------------------------------------------

def split_matrix_by_projection(alg, m):
    """Oracle for SplitIso.phi_matrix: expand w^m, w = tr(u x v conj(x)),
    in 10 vars (x:0-3, u:4-6, v:7-9), project it to harmonics in x, pair it
    with P(u) and Q(v), and solve for coordinates by Fischer pairing."""
    sp3, sp4 = trace_zero_space(alg), full_space(alg)
    zero = Poly.zero(10)
    xq = tuple(Poly.variable(10, i) for i in range(4))
    uq = (zero,) + tuple(Poly.variable(10, i) for i in range(4, 7))
    vq = (zero,) + tuple(Poly.variable(10, i) for i in range(7, 10))
    xbar = (xq[0], -xq[1], -xq[2], -xq[3])
    prod = quaternion_product(alg.a, alg.b, uq, xq)
    prod = quaternion_product(alg.a, alg.b, prod, vq)
    prod = quaternion_product(alg.a, alg.b, prod, xbar)
    wm = (prod[0] * 2) ** m
    kernel = Poly(10, ((mx + mono[4:], c * cx)
                       for mono, c in wm.terms.items()
                       for mx, cx in harmonic_projection(
                           sp4, Poly.monomial(mono[:4])).terms.items()))
    b3 = sp3.harmonic_basis(m)
    return [fischer_coords(sp4, _pair_block(
        _pair_block(kernel, br, 4, sp3.gram_inv), bs, 4, sp3.gram_inv), 2 * m)
        for br in b3 for bs in b3]


def test_split_iso_invertible():
    for disc in (2, 11):
        alg = algebra_for_discriminant(disc)
        for m in (0, 1, 2):
            split = SplitIso(alg, m)
            assert split.phi_matrix == split_matrix_by_projection(alg, m)
            assert len(split.phi_inv) == len(split.pairs)


def test_split_iso_m0_trivial():
    alg = algebra_for_discriminant(2)
    split = SplitIso(alg, 0)
    one3 = Poly.const(3, 1)
    img = split.apply(one3, one3)
    assert img == Poly.const(4, img.terms.get((0, 0, 0, 0), 0)) and \
        not img.is_zero()


def test_split_iso_image_harmonic():
    alg = algebra_for_discriminant(11)
    sp3 = trace_zero_space(alg)
    sp4 = full_space(alg)
    split = SplitIso(alg, 1)
    rng = random.Random(11)
    p = random_harmonic(sp3, 1, rng)
    q = random_harmonic(sp3, 1, rng)
    img = split.apply(p, q)
    assert sp4.laplacian(img).is_zero()
    assert img.total_degree() == 2


# -- coefficient polynomials ---------------------------------------------------

def test_c_coeff_scalar_case():
    alg = algebra_for_discriminant(11)
    q = Poly.const(6, Fraction(7, 3))
    c = c_coeff(q, 0, 0, 0, 0, alg)
    assert c == Poly.const(8, Fraction(7, 3))


def test_c_coeff_parity_rejected():
    alg = algebra_for_discriminant(2)
    q = Poly.const(6, 1)
    with pytest.raises(HarmonicsError):
        c_coeff(q, 1, 1, 3, 1, alg)  # alpha' = 3 odd


def _tensor6(pa, pb):
    return pa.embed(6) * pb.embed(6, 3)


def test_c_coeff_equivariance_exact():
    # c(h x, Q) = c(x, h^{-1} Q) for h = sigma_{y1,y2} with n(y1) = n(y2)
    alg = algebra_for_discriminant(2)
    sp3 = trace_zero_space(alg)
    rng = random.Random(13)
    nu1, nu2, a1, a2 = 2, 1, 1, 1
    p1 = random_harmonic(sp3, nu1, rng)
    p2 = random_harmonic(sp3, nu2, rng)
    c = c_coeff(_tensor6(p1, p2), a1, a2, nu1, nu2, alg)
    i, j, _ = gens(alg)
    y1 = one(alg) + i  # norm 2
    y2 = one(alg) + j  # norm 2
    m = [(y1 * e * inverse(y2)).coords()
         for e in (one(alg),) + gens(alg)]
    big = [[Fraction(0)] * 8 for _ in range(8)]
    for r in range(4):
        for s in range(4):
            big[r][s] = m[s][r]
            big[4 + r][4 + s] = m[s][r]
    lhs = c.subs_linear(big)
    rhs = c_coeff(_tensor6(tau_action(alg, inverse(y1).coords(), p1),
                           tau_action(alg, inverse(y2).coords(), p2)),
                  a1, a2, nu1, nu2, alg)
    assert lhs == rhs


def test_c_coeff_rejects_bipoly_not_harmonic_in_s_block():
    # q(s) * P(t) has the right degrees (2, 1) but is not harmonic in s; a
    # Fischer solve would project it silently
    alg = algebra_for_discriminant(2)
    sp3 = trace_zero_space(alg)
    p2 = random_harmonic(sp3, 1, random.Random(17))
    with pytest.raises(HarmonicsError):
        c_coeff(_tensor6(sp3.q_poly, p2), 1, 1, 2, 1, alg)


def test_c_coeff_harmonic_each_variable():
    # (nu1, nu2, alpha1, alpha2) = (2, 1, 1, 1): alpha_i' = 2
    alg = algebra_for_discriminant(2)
    sp3 = trace_zero_space(alg)
    sp4 = full_space(alg)
    rng = random.Random(12)
    p1 = random_harmonic(sp3, 2, rng)
    p2 = random_harmonic(sp3, 1, rng)
    c = c_coeff(_tensor6(p1, p2), 1, 1, 2, 1, alg)
    assert not c.is_zero()
    assert _block_laplacian(c, sp4.gram_inv, 0, 4).is_zero()
    assert _block_laplacian(c, sp4.gram_inv, 4, 4).is_zero()
    assert max(sum(m[:4]) for m in c.terms) == 2
    assert max(sum(m[4:]) for m in c.terms) == 2
