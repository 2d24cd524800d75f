import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatperiods._linalg import inverse, mat_mul, rref, transpose, vec_mat
from quatperiods.brandt import atkin_lehner
from quatperiods.lattice import IntLattice, short_vectors
from quatperiods import orders
from quatperiods.orders import (ClassSet, EichlerOrder, OrderError, _coords,
                                _covolume, _dual_kernel_mod_p, _is_order,
                                class_set_for, eichler_mass, eichler_order,
                                essential_complement, maximal_order,
                                product_basis, right_ideal_classes,
                                superorders_at, times_conj,
                                two_sided_prime_ideal)
from quatperiods.quatalg import (_is_squarefree, _prime_factors,
                                 algebra_for_discriminant)

from test_lattice import (basis_gram, det, fractions, hnf_rational, identity,
                          lattice_index, lattice_intersection, pair)
from test_quatalg import Quaternion, gens, one


# The references below work in Fraction rows; fractions() turns a package
# basis (den, rows) into them for every comparison.

def fraction_coords(basis, q):
    """Coordinates of the quaternion q in the Fraction rows basis."""
    return vec_mat(q.coords(), inverse(basis))


def contains(order, q):
    """Whether the quaternion q lies in the order."""
    return all(c.denominator == 1
               for c in fraction_coords(fractions(order.basis), q))


def reference_level(alg, basis):
    """Reduced discriminant: the square root of det of the trace form."""
    d = det(mat_mul(mat_mul(basis, fractions(alg.norm_gram())),
                    transpose(basis)))
    assert d.denominator == 1 and math.isqrt(d.numerator) ** 2 == d
    return math.isqrt(d.numerator)


def lattice_key(lattice):
    """Canonical hashable key of an IntLattice: its basis pair and Gram."""
    return pair(fractions(lattice.basis)), lattice.gram


def test_hurwitz_maximal_order():
    alg = algebra_for_discriminant(2)
    order = maximal_order(alg)
    assert order.level == 2
    # trace-form determinant oracle: 2^2 = 4
    assert det(basis_gram(order.norm_lattice())) == 4
    assert reference_level(alg, fractions(order.basis)) == 2
    # contains (1+i+j+k)/2
    omega = Quaternion(alg, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2),
                       Fraction(1, 2))
    assert contains(order, omega)


def test_maximal_order_discriminants():
    for n1 in (2, 3, 5, 7, 11, 13):
        alg = algebra_for_discriminant(n1)
        order = maximal_order(alg)
        assert order.level == n1 == \
            reference_level(alg, fractions(order.basis))


def test_maximal_order_idempotent():
    alg = algebra_for_discriminant(11)
    order = maximal_order(alg)
    rebuilt = EichlerOrder(alg, order.basis)
    assert rebuilt.basis == order.basis


def test_eichler_order_levels():
    alg = algebra_for_discriminant(2)
    maximal = maximal_order(alg)
    assert eichler_order(maximal, 1) == maximal
    order22 = eichler_order(maximal, 11)
    assert order22.level == 22 == \
        reference_level(alg, fractions(order22.basis))
    assert lattice_index(fractions(maximal.basis),
                         fractions(order22.basis)) == 11


def test_eichler_order_rejects_bad_level():
    alg = algebra_for_discriminant(2)
    maximal = maximal_order(alg)
    with pytest.raises(OrderError):
        eichler_order(maximal, 4)  # not squarefree
    with pytest.raises(OrderError):
        eichler_order(maximal, 2)  # not coprime to discriminant


def test_class_sets_and_masses():
    cs2 = class_set_for(2)
    assert cs2.size == 1 and cs2.unit_counts == [24]
    assert cs2.mass() == Fraction(1, 24)

    cs11 = class_set_for(11)
    assert cs11.size == 2
    assert sorted(cs11.unit_counts) == [4, 6]
    assert cs11.mass() == eichler_mass(11, 1) == Fraction(5, 12)

    cs22 = class_set_for(2, 11)
    assert cs22.mass() == Fraction(1, 2)


def test_unit_counts_admissible():
    for (n1, n2) in [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1),
                     (2, 11), (7, 2)]:
        cs = class_set_for(n1, n2)
        assert all(e in (2, 4, 6, 8, 12, 24) for e in cs.unit_counts)


def right_mul_matrix_of(alg, row):
    """Matrix M with coords(x * b) = coords(x) * M for b with given coords."""
    b = Quaternion(alg, *row)
    return [(e * b).coords() for e in (one(alg),) + gens(alg)]


def reference_left_order(alg, basis):
    """Basis of {x in D : x * I <= I}, intersected over the basis of I."""
    binv = inverse(basis)
    inter = None
    for row in basis:
        # coords(x * b) integral, i.e. x in Z^4 * (M_b * binv)^{-1}
        latt = inverse(mat_mul(right_mul_matrix_of(alg, row), binv))
        inter = latt if inter is None else lattice_intersection(inter, latt)
    return hnf_rational(inter)


def test_connecting_lattice_diagonal_is_left_order():
    for n1, n2 in [(11, 1), (2, 11), (7, 2), (3, 5), (13, 2), (2, 19)]:
        cs = class_set_for(n1, n2)
        alg = cs.order.algebra
        for i in range(cs.size):
            left = reference_left_order(alg, fractions(cs.reps[i]))
            assert fractions(cs.left_orders[i].basis) == left
            conn = cs.connecting(i, i)
            assert lattice_key(conn) == \
                lattice_key(IntLattice(pair(left), alg.norm_gram()))
            # minimum of the scaled norm form is 1 (the identity is in it)
            assert min(q for _, q in short_vectors(conn, 1)) == 1


def test_class_set_deterministic():
    a = right_ideal_classes(class_set_for(11).order)
    b = right_ideal_classes(class_set_for(11).order)
    assert a.reps == b.reps


def test_ideals_equivalent_reflexive():
    cs = class_set_for(11)
    assert cs.locate(cs.reps[0])[0] == 0
    assert cs.locate(cs.reps[1])[0] == 1
    # a set that holds only I_0 places I_1 in no class
    single = ClassSet(cs.order)
    single.add(cs.reps[0])
    assert single.locate(cs.reps[1]) is None


def left_multiple(alg, x, basis):
    """Canonical basis of x * I, for x given by rational coordinates."""
    d = math.lcm(*(Fraction(c).denominator for c in x))
    return product_basis(alg, (d, [[int(c * d) for c in x]]), basis)


def primitive_rows(basis):
    """The HNF rows of a canonical basis over the gcd of their entries: two
    lattices are proportional iff these agree."""
    g = math.gcd(*(x for row in basis[1] for x in row))
    return [[x // g for x in row] for row in basis[1]]


@pytest.mark.parametrize("n1, n2",
                         [(11, 1), (13, 2), (2, 13), (37, 1), (2, 105)])
def test_locate_finds_the_class_of_every_left_multiple(n1, n2):
    # x * I_j is in the class of I_j, and the q that locate returns has
    # q * I_j = n(I_j) x * I_j
    cs = class_set_for(n1, n2)
    alg = cs.order.algebra
    for j, rep in enumerate(cs.reps):
        for x in [(1, 1, 0, 0), (2, 1, 1, 0), (Fraction(1, 2), 0, 1, 3),
                  (3, 0, 0, 1)]:
            moved = left_multiple(alg, x, rep)
            found = cs.locate(moved)
            assert found is not None and found[0] == j
            assert primitive_rows(left_multiple(alg, found[1], rep)) == \
                primitive_rows(moved)


def test_a_superorder_class_that_cannot_be_located_raises(monkeypatch):
    cs = right_ideal_classes(class_set_for(13, 2).order)
    build = orders.right_ideal_classes

    def unlocatable(order):
        sup_cs = build(order)
        sup_cs.locate = lambda basis: None
        return sup_cs

    monkeypatch.setattr(orders, "right_ideal_classes", unlocatable)
    with pytest.raises(OrderError, match="is in no class of the superorder"):
        essential_complement(cs)


def test_two_sided_ideal_squares_to_p():
    cs = class_set_for(11)
    order = cs.order
    basis = two_sided_prime_ideal(order, 11)
    sq = product_basis(order.algebra, basis, basis)
    # P^2 = 11 * R as lattices
    scaled = [[x / 11 for x in row] for row in fractions(sq)]
    assert scaled == fractions(order.basis)


def test_superorders_at_level_prime():
    cs = class_set_for(2, 11)
    sups = superorders_at(cs.order, 11)
    assert len(sups) == 2
    assert all(s.level == 2 for s in sups)


def pullback_rank(cs):
    return len(rref(essential_complement(cs))[1])


def test_essential_pullbacks_at_a_maximal_order_are_the_constants():
    cs = class_set_for(11)
    assert essential_complement(cs) == [[1] * cs.size]
    assert pullback_rank(cs) == 1


def test_essential_pullbacks_at_level_22_span_everything():
    # no weight-2 newform of level 22: the essential part is zero
    cs = class_set_for(2, 11)
    assert pullback_rank(cs) == cs.size


def test_essential_pullbacks_at_level_26_leave_rank_two():
    cs = class_set_for(2, 13)
    # the two weight-2 newforms at level 26 span the complement
    assert pullback_rank(cs) == cs.size - 2


# -- brute-force references for the mod-p kernel constructions ---------------

def _planes_mod_p(p, n=4):
    """Every 2-dim subspace of F_p^n once, as a reduced row echelon pair."""
    for j1, j2 in itertools.combinations(range(n), 2):
        free1 = [c for c in range(j1 + 1, n) if c != j2]
        free2 = list(range(j2 + 1, n))
        for vals1 in itertools.product(range(p), repeat=len(free1)):
            for vals2 in itertools.product(range(p), repeat=len(free2)):
                r1, r2 = [0] * n, [0] * n
                r1[j1] = r2[j2] = 1
                for c, v in zip(free1, vals1):
                    r1[c] = v
                for c, v in zip(free2, vals2):
                    r2[c] = v
                yield [r1, r2]


def reference_two_sided_ideal(order, p):
    """The norm-p two-sided ideal by walking all ~p^4 planes of O/pO."""
    obasis = fractions(order.basis)
    gens = [Quaternion(order.algebra, *row) for row in obasis]

    def element(c):
        return Quaternion(order.algebra, *vec_mat(c, obasis))

    hits = set()
    for rows in _planes_mod_p(p):
        vs = [element(r) for r in rows]
        if any(int(2 * v.w) % p or int(v.norm()) % p for v in vs):
            continue
        # two-sided mod p: every g*v and v*g stays in the plane
        if any(len(rref(rows + [[int(x) % p for x in
                                 fraction_coords(obasis, prod)]], p)[1]) != 2
               for v in vs for g in gens for prod in (g * v, v * g)):
            continue
        basis = hnf_rational([v.coords() for v in vs] +
                             [[p * x for x in row] for row in obasis])
        bq = [Quaternion(order.algebra, *row) for row in basis]
        if all((c / p).denominator == 1 for x in bq for y in bq
               for c in fraction_coords(obasis, x * y)):
            hits.add(tuple(map(tuple, basis)))
    assert len(hits) == 1
    return [list(row) for row in hits.pop()]


def reference_is_order(alg, basis):
    """Rank 4, and 1 and every product of two basis elements have integral
    coordinates in the basis."""
    if len(basis) != 4:
        return False
    binv = inverse(basis)
    qs = [Quaternion(alg, *row) for row in basis]
    return all(all(c.denominator == 1 for c in vec_mat(q.coords(), binv))
               for q in [one(alg)] + [x * y for x in qs for y in qs])


def _integral_candidates(alg, basis, p):
    """v = c/p, c * basis, with integral trace and norm and v not in the
    lattice of the Fraction rows basis, for the tuples c in increasing order
    of sum c_i p^i."""
    for t in itertools.product(range(p), repeat=4):
        v = Quaternion(alg, *vec_mat([Fraction(ci, p) for ci in t[::-1]],
                                     basis))
        if (2 * v.w).denominator == 1 and v.norm().denominator == 1 and \
                any(c.denominator != 1 for c in fraction_coords(basis, v)):
            yield v.coords()


def reference_superorders(order, p):
    """Index-p superorders by testing v = c/p for all ~p^4 tuples c."""
    basis = fractions(order.basis)
    found = {}
    for v in _integral_candidates(order.algebra, basis, p):
        cand = hnf_rational(basis + [v])
        if reference_is_order(order.algebra, cand):
            found[tuple(map(tuple, cand))] = cand
    return [found[k] for k in sorted(found)]


def reference_maximal_order(alg):
    """Saturate Z<1,i,j,k> by the tuple walk: at the smallest prime p of the
    excess discriminant, the first integral v = c/p whose O + Zv is an
    order, else the first pair of such v that gives an order."""
    basis = hnf_rational(identity(4))
    while reference_level(alg, basis) != alg.discriminant:
        p = _prime_factors(reference_level(alg, basis) //
                           alg.discriminant)[0]
        single = []
        bigger = None
        for v in _integral_candidates(alg, basis, p):
            single.append(v)
            cand = hnf_rational(basis + [v])
            if reference_is_order(alg, cand):
                bigger = cand
                break
        if bigger is None:
            pairs = (hnf_rational(basis + [v, w])
                     for v, w in itertools.combinations(single, 2))
            bigger = next(c for c in pairs if reference_is_order(alg, c))
        basis = bigger
    return basis


@pytest.mark.parametrize("n1", [
    n for n in range(2, 120)
    if _is_squarefree(n) and len(_prime_factors(n)) % 2 == 1])
def test_maximal_order_matches_tuple_walk(n1):
    # at disc 73 (p = 7) the walk's superorder is not the smallest in HNF
    alg = algebra_for_discriminant(n1)
    assert fractions(maximal_order(alg).basis) == reference_maximal_order(alg)


def test_is_order_matches_coordinate_check():
    for n1, n2, p in [(2, 1, 2), (11, 1, 11), (7, 2, 2), (3, 5, 5)]:
        order = class_set_for(n1, n2).order
        alg = order.algebra
        obasis = fractions(order.basis)
        ideal = fractions(two_sided_prime_ideal(order, p))
        lattices = [obasis, ideal, hnf_rational(ideal + [[1, 0, 0, 0]]),
                    [[x / p for x in row] for row in obasis], obasis[:3]]
        verdicts = [_is_order(alg, pair(basis)) for basis in lattices]
        assert verdicts == [reference_is_order(alg, basis)
                            for basis in lattices]
        assert verdicts == [True, False, True, False, False]


@pytest.mark.parametrize("n1, n2, p", [(7, 2, 2), (7, 2, 7), (3, 5, 3),
                                       (3, 5, 5), (13, 2, 2)])
def test_mod_p_kernel_matches_brute_force(n1, n2, p):
    order = class_set_for(n1, n2).order
    assert fractions(two_sided_prime_ideal(order, p)) == \
        reference_two_sided_ideal(order, p)
    assert [fractions(s.basis) for s in superorders_at(order, p)] == \
        reference_superorders(order, p)


def test_two_sided_ideal_rejects_good_prime():
    with pytest.raises(OrderError):
        two_sided_prime_ideal(class_set_for(11).order, 3)
    with pytest.raises(OrderError):
        superorders_at(class_set_for(11).order, 3)


def test_dual_kernel_rejects_a_non_integral_trace_form():
    # (1/2) Z<1, i, j, k> is no order: its trace form has denominator 2,
    # which the kernel mod p must reject instead of truncating
    alg = algebra_for_discriminant(2)
    half = SimpleNamespace(norm_lattice=lambda: IntLattice(
        (2, identity(4)), alg.norm_gram()))
    with pytest.raises(OrderError, match="not integral"):
        _dual_kernel_mod_p(half, 2)


def test_level_38_disc_2_ground_truth():
    cs = class_set_for(2, 19)
    assert cs.mass() == eichler_mass(2, 19) == Fraction(5, 6)
    order = cs.order
    eye = [[int(i == j) for j in range(cs.size)] for i in range(cs.size)]
    for p in (2, 19):
        basis = two_sided_prime_ideal(order, p)
        sq = product_basis(order.algebra, basis, basis)
        assert [[x / p for x in row] for row in fractions(sq)] == \
            fractions(order.basis)
        w = atkin_lehner(cs, p).matrix
        assert mat_mul(w, w) == eye
    sups = superorders_at(order, 19)
    assert len(sups) == 2
    assert all(s.level == 2 for s in sups)


# -- the integer core against the Fraction oracles ---------------------------

@st.composite
def rational_rows(draw):
    """Four independent rational rows: small integers over a small
    denominator."""
    den = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(-6, 6), min_size=4, max_size=4),
                         min_size=4, max_size=4).filter(lambda m: det(m)))
    return [[Fraction(x, den) for x in row] for row in rows]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 11, 13, 30]), rational_rows(), rational_rows(),
       st.lists(st.integers(-5, 5), min_size=4, max_size=4),
       st.integers(1, 3),
       st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
                min_size=4, max_size=4).filter(lambda m: det(m)))
def test_integer_core_matches_fraction_oracles(n1, rows_a, rows_b, c, m, u):
    alg = algebra_for_discriminant(n1)
    a, b = pair(rows_a), pair(rows_b)
    basis = fractions(a)
    assert basis == hnf_rational(rows_a)
    # products, also with a conjugate: the rows of I*J and I*conj(J)
    qa = [Quaternion(alg, *row) for row in rows_a]
    qb = [Quaternion(alg, *row) for row in rows_b]
    assert fractions(product_basis(alg, a, b)) == \
        hnf_rational([(x * y).coords() for x in qa for y in qb])
    assert fractions(times_conj(alg, a, b).basis) == \
        hnf_rational([(x * y.conj()).coords() for x in qa for y in qb])
    # coordinates and membership of x = (c * basis) / m: in the lattice iff
    # m divides every c_i, and then its coordinates are c / m
    x = vec_mat([Fraction(ci, m) for ci in c], basis)
    d = math.lcm(*(t.denominator for t in x))
    expect = fraction_coords(basis, Quaternion(alg, *x))
    got = _coords(a, d, [int(t * d) for t in x])
    if all(t.denominator == 1 for t in expect):
        assert got == expect
    else:
        assert got is None
    # index of the sublattice spanned by u * rows, and the covolume
    sub = pair(mat_mul(u, basis))
    assert _covolume(sub) / _covolume(a) == \
        lattice_index(basis, fractions(sub)) == abs(det(u))
    assert _covolume(a) == abs(det(basis))
