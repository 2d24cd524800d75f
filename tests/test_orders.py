import itertools
from fractions import Fraction

import pytest

from quatperiods._linalg import hnf_rational, identity, lattice_index, mat_mul
from quatperiods.brandt import atkin_lehner
from quatperiods.orders import (OrderError, _is_order, _modp_rref,
                                class_set_for, eichler_mass, eichler_order,
                                essential_complement, ideals_equivalent,
                                maximal_order, product_basis,
                                right_ideal_classes, superorders_at,
                                two_sided_prime_ideal)
from quatperiods.quatalg import Quaternion, algebra_for_discriminant


def test_hurwitz_maximal_order():
    alg = algebra_for_discriminant(2)
    order = maximal_order(alg)
    assert order.reduced_discriminant() == 2
    # trace-form determinant oracle: 2^2 = 4
    g = order.norm_lattice().basis_gram()
    from quatperiods._linalg import det
    assert det(g) == 4
    # contains (1+i+j+k)/2
    from quatperiods.quatalg import Quaternion
    omega = Quaternion(alg, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2),
                       Fraction(1, 2))
    assert order.contains(omega)


def test_maximal_order_discriminants():
    for n1 in (2, 3, 5, 7, 11, 13):
        alg = algebra_for_discriminant(n1)
        order = maximal_order(alg)
        assert order.reduced_discriminant() == n1


def test_maximal_order_idempotent():
    alg = algebra_for_discriminant(11)
    order = maximal_order(alg)
    again = right_ideal_classes  # noqa: F841  (no re-maximalization api; HNF is the fixed point)
    from quatperiods.orders import EichlerOrder
    rebuilt = EichlerOrder(alg, order.basis)
    assert rebuilt.basis == order.basis


def test_eichler_order_levels():
    alg = algebra_for_discriminant(2)
    maximal = maximal_order(alg)
    assert eichler_order(maximal, 1) == maximal
    order22 = eichler_order(maximal, 11)
    assert order22.reduced_discriminant() == 22
    assert lattice_index(maximal.basis, order22.basis) == 11


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


def test_connecting_lattice_diagonal_is_left_order():
    cs = class_set_for(11)
    for i in range(cs.size):
        conn = cs.connecting(i, i)
        assert conn.key() == cs.left_orders[i].norm_lattice().key()
        # minimum of the scaled norm form is 1 (the identity is in the order)
        from quatperiods.lattice import short_vectors
        assert min(q for _, q in short_vectors(conn, 1)) == 1


def test_class_set_deterministic():
    a = right_ideal_classes(class_set_for(11).order)
    b = right_ideal_classes(class_set_for(11).order)
    assert [tuple(map(tuple, r)) for r in a.reps] == \
        [tuple(map(tuple, r)) for r in b.reps]


def test_ideals_equivalent_reflexive():
    cs = class_set_for(11)
    alg = cs.order.algebra
    assert ideals_equivalent(alg, cs.reps[0], cs.reps[0])
    assert not ideals_equivalent(alg, cs.reps[0], cs.reps[1])


def test_two_sided_ideal_squares_to_p():
    cs = class_set_for(11)
    order = cs.order
    basis = two_sided_prime_ideal(order, 11)
    from quatperiods.orders import product_basis
    alg = order.algebra
    sq = product_basis(alg, basis, basis)
    # P^2 = 11 * R as lattices
    scaled = [[x / 11 for x in row] for row in sq]
    assert scaled == order.basis


def test_superorders_at_level_prime():
    cs = class_set_for(2, 11)
    sups = superorders_at(cs.order, 11)
    assert len(sups) == 2
    assert all(s.level == 2 for s in sups)


def test_essential_projector_maximal_order():
    # maximal order: complement of the constant function
    cs = class_set_for(11)
    proj = essential_complement(cs)
    w = [Fraction(1, e) for e in cs.unit_counts]
    const = [Fraction(1)] * cs.size
    image = [sum(proj[i][j] * const[j] for j in range(cs.size))
             for i in range(cs.size)]
    assert all(v == 0 for v in image)
    # idempotent
    sq = mat_mul(proj, proj)
    assert sq == proj
    # self-adjoint for the weighted inner product: P_ij w_i == P_ji w_j
    for i in range(cs.size):
        for j in range(cs.size):
            assert proj[i][j] * w[i] == proj[j][i] * w[j]


def test_essential_projector_level22_annihilates_everything():
    cs = class_set_for(2, 11)
    proj = essential_complement(cs)
    assert all(all(v == 0 for v in row) for row in proj)


def test_essential_projector_level26_rank_two():
    cs = class_set_for(2, 13)
    proj = essential_complement(cs)
    trace = sum(proj[i][i] for i in range(cs.size))
    assert trace == 2  # the two weight-2 newforms at level 26


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
    gens = order.basis_quaternions()
    hits = set()
    for rows in _planes_mod_p(p):
        vs = [order.element_from_coords(r) for r in rows]
        if any(int(v.trace()) % p or int(v.norm()) % p for v in vs):
            continue
        # two-sided mod p: every g*v and v*g stays in the plane
        if any(len(_modp_rref(rows + [[int(x) % p for x in
                                       order.coords_of(prod)]], p)[0]) != 2
               for v in vs for g in gens for prod in (g * v, v * g)):
            continue
        basis = hnf_rational([v.coords() for v in vs] +
                             [[p * x for x in row] for row in order.basis])
        bq = [Quaternion(order.algebra, *row) for row in basis]
        if all((c / p).denominator == 1 for x in bq for y in bq
               for c in order.coords_of(x * y)):
            hits.add(tuple(map(tuple, basis)))
    assert len(hits) == 1
    return [list(row) for row in hits.pop()]


def reference_superorders(order, p):
    """Index-p superorders by testing v = c/p for all ~p^4 tuples c."""
    alg = order.algebra
    qs = order.basis_quaternions()
    found = {}
    for c in itertools.product(range(p), repeat=4):
        v = sum((q * Fraction(ci) for q, ci in zip(qs, c)),
                Quaternion(alg, 0, 0, 0, 0)) * Fraction(1, p)
        if v.trace().denominator != 1 or v.norm().denominator != 1 or \
                order.contains(v):
            continue
        cand = hnf_rational(order.basis + [v.coords()])
        if _is_order(alg, cand):
            found[tuple(map(tuple, cand))] = cand
    return [found[k] for k in sorted(found)]


@pytest.mark.parametrize("n1, n2, p", [(7, 2, 2), (7, 2, 7), (3, 5, 3),
                                       (3, 5, 5), (13, 2, 2)])
def test_mod_p_kernel_matches_brute_force(n1, n2, p):
    order = class_set_for(n1, n2).order
    assert two_sided_prime_ideal(order, p) == \
        reference_two_sided_ideal(order, p)
    assert [s.basis for s in superorders_at(order, p)] == \
        reference_superorders(order, p)


def test_two_sided_ideal_rejects_good_prime():
    with pytest.raises(OrderError):
        two_sided_prime_ideal(class_set_for(11).order, 3)
    with pytest.raises(OrderError):
        superorders_at(class_set_for(11).order, 3)


def test_level_38_disc_2_ground_truth():
    cs = class_set_for(2, 19)
    assert cs.mass() == eichler_mass(2, 19) == Fraction(5, 6)
    order = cs.order
    eye = [[int(i == j) for j in range(cs.size)] for i in range(cs.size)]
    for p in (2, 19):
        basis = two_sided_prime_ideal(order, p)
        sq = product_basis(order.algebra, basis, basis)
        assert [[x / p for x in row] for row in sq] == order.basis
        w = atkin_lehner(cs, p).matrix
        assert mat_mul(w, w) == eye
    sups = superorders_at(order, 19)
    assert len(sups) == 2
    assert all(s.level == 2 for s in sups)
