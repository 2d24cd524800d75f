"""Factorization over Q by Zassenhaus' method (_factor.factor)."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatperiods._factor import _berlekamp, factor
from quatperiods._linalg import charpoly
from quatperiods.brandt import brandt_matrix
from quatperiods.orders import class_set_for
from quatperiods.quatalg import good_primes, primes_up_to
from test_brandt import ORBIT_CASES


def poly_mul(f, g):
    """Product of polynomials with coefficients high to low."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def expand(factors):
    """The product of (coefficients high to low, multiplicity) pairs."""
    out = [1]
    for f, mult in factors:
        for _ in range(mult):
            out = poly_mul(out, f)
    return out


def poly_rem(f, g):
    """The remainder of f by g, both with rational coefficients high to
    low, as a list that is empty exactly when g divides f."""
    r = [Fraction(c) for c in f]
    while len(r) >= len(g):
        q = r[0] / g[0]
        r = [a - q * b for a, b in zip(r, list(g) + [0] * len(r))][1:]
    while r and not r[0]:
        r.pop(0)
    return r


def has_rational_root(f):
    """Whether f, with rational coefficients high to low, has a root in Q:
    by the rational root test on its integer multiple."""
    den = math.lcm(*(Fraction(c).denominator for c in f))
    g = [int(c * den) for c in f]
    if g[-1] == 0:
        return True

    def divisors(n):
        return [d for d in range(1, abs(n) + 1) if n % d == 0]

    return any(sum(c * r ** k for k, c in enumerate(reversed(g))) == 0
               for a in divisors(g[-1]) for b in divisors(g[0])
               for r in (Fraction(a, b), Fraction(-a, b)))


# The factors of T(p) on the weight-0 space, p the smallest good prime, as
# (disc, level): (p, [(coefficients high to low, multiplicity), ...]) with
# the distinct factors in the order factor() returns them; recorded with
# sympy's factor_list.  The multiplicities pin charpoly through expand
FACTORS_OF_FIRST_T = {
    (2, 2): (3, [((1, -4), 1)]),
    (3, 3): (2, [((1, -3), 1)]),
    (5, 5): (2, [((1, -3), 1)]),
    (2, 6): (5, [((1, -6), 1)]),
    (3, 6): (5, [((1, -6), 1)]),
    (7, 7): (2, [((1, -3), 1)]),
    (2, 10): (3, [((1, -4), 1)]),
    (5, 10): (3, [((1, -4), 1)]),
    (11, 11): (2, [((1, -3), 1), ((1, 2), 1)]),
    (13, 13): (2, [((1, -3), 1)]),
    (2, 14): (3, [((1, -4), 1), ((1, 2), 1)]),
    (7, 14): (3, [((1, -4), 1), ((1, 2), 1)]),
    (3, 15): (2, [((1, -3), 1), ((1, 1), 1)]),
    (5, 15): (2, [((1, -3), 1), ((1, 1), 1)]),
    (17, 17): (2, [((1, -3), 1), ((1, 1), 1)]),
    (19, 19): (2, [((1, -3), 1), ((1, 0), 1)]),
    (3, 21): (2, [((1, -3), 1), ((1, 1), 1)]),
    (7, 21): (2, [((1, -3), 1), ((1, 1), 1)]),
    (2, 22): (3, [((1, -4), 1)]),
    (11, 22): (3, [((1, -4), 1), ((1, 1), 2)]),
    (23, 23): (2, [((1, -3), 1), ((1, 1, -1), 1)]),
    (2, 26): (3, [((1, -4), 1), ((1, -1), 1), ((1, 3), 1)]),
    (13, 26): (3, [((1, -4), 1), ((1, -1), 1), ((1, 3), 1)]),
    (29, 29): (2, [((1, -3), 1), ((1, 2, -1), 1)]),
    (2, 30): (7, [((1, -8), 1), ((1, 4), 1)]),
    (3, 30): (7, [((1, -8), 1), ((1, 0), 2), ((1, 4), 1)]),
    (5, 30): (7, [((1, -8), 1), ((1, 0), 2), ((1, 4), 1)]),
    (30, 30): (7, [((1, -8), 1), ((1, 4), 1)]),
    (31, 31): (2, [((1, -3), 1), ((1, -1, -1), 1)]),
    (3, 33): (2, [((1, -3), 1), ((1, -1), 1)]),
    (11, 33): (2, [((1, -3), 1), ((1, -1), 1), ((1, 2), 2)]),
    (2, 34): (3, [((1, -4), 1), ((1, 2), 1)]),
    (17, 34): (3, [((1, -4), 1), ((1, 0), 2), ((1, 2), 1)]),
    (5, 35): (2, [((1, -3), 1), ((1, 0), 1), ((1, 1, -4), 1)]),
    (7, 35): (2, [((1, -3), 1), ((1, 0), 1), ((1, 1, -4), 1)]),
    (37, 37): (2, [((1, -3), 1), ((1, 0), 1), ((1, 2), 1)]),
    (2, 38): (3, [((1, -4), 1), ((1, -1), 1), ((1, 1), 1)]),
    (19, 38): (3, [((1, -4), 1), ((1, -1), 1), ((1, 1), 1), ((1, 2), 2)]),
    (3, 39): (2, [((1, -3), 1), ((1, -1), 1), ((1, 2, -1), 1)]),
    (13, 39): (2, [((1, -3), 1), ((1, -1), 1), ((1, 2, -1), 1)]),
    (41, 41): (2, [((1, -3), 1), ((1, 1, -5, -1), 1)]),
    (2, 42): (5, [((1, -6), 1), ((1, 0), 2), ((1, 2), 1)]),
    (3, 42): (5, [((1, -6), 1), ((1, 2), 3)]),
    (7, 42): (5, [((1, -6), 1), ((1, 0), 2), ((1, 2), 3)]),
    (42, 42): (5, [((1, -6), 1), ((1, 2), 1)]),
    (43, 43): (2, [((1, -3), 1), ((1, 2), 1), ((1, 0, -2), 1)]),
    (2, 46): (3, [((1, -4), 1), ((1, 0), 1)]),
    (23, 46): (3, [((1, -4), 1), ((1, 0), 1), ((1, 0, -5), 2)]),
    (47, 47): (2, [((1, -3), 1), ((1, -1, -5, 5, -1), 1)]),
    (3, 51): (2, [((1, -3), 1), ((1, 0), 1), ((1, 1, -4), 1)]),
    (17, 51): (2, [((1, -3), 1), ((1, 0), 1), ((1, 1), 2), ((1, 1, -4), 1)]),
    (53, 53): (2, [((1, -3), 1), ((1, 1), 1), ((1, 1, -3, -1), 1)]),
    (5, 55): (2, [((1, -3), 1), ((1, -1), 1), ((1, -2, -1), 1)]),
    (11, 55): (2, [((1, -3), 1), ((1, -1), 1), ((1, 2), 2), ((1, -2, -1), 1)]),
    (3, 57): (2, [((1, -3), 1), ((1, -1), 1), ((1, 2), 2)]),
    (19, 57): (2, [((1, -3), 1), ((1, -1), 1), ((1, 0), 2), ((1, 2), 2)]),
    (2, 58): (3, [((1, -4), 1), ((1, 1), 1), ((1, 3), 1)]),
    (29, 58): (3, [((1, -4), 1), ((1, 1), 1), ((1, 3), 1), ((1, -2, -1), 2)]),
    (59, 59): (2, [((1, -3), 1), ((1, 0, -9, 2, 16, -8), 1)]),
    (61, 61): (2, [((1, -3), 1), ((1, 1), 1), ((1, -1, -3, 1), 1)]),
    (79, 79): (2, [((1, -3), 1), ((1, 1), 1), ((1, 0, -6, 0, 8, -1), 1)]),
    (83, 83): (2, [((1, -3), 1), ((1, 1), 1),
        ((1, -1, -9, 7, 20, -12, -8), 1)]),
    (89, 89): (2, [((1, -3), 1), ((1, -1), 1), ((1, 1), 1),
        ((1, 1, -10, -10, 21, 17), 1)]),
    (131, 131): (2, [((1, -3), 1), ((1, 0), 1),
        ((1, 0, -18, 2, 111, -18, -270, 28, 232, 16, -32), 1)]),
}


def test_table_covers_every_orbit_case():
    assert sorted(FACTORS_OF_FIRST_T) == sorted(ORBIT_CASES)


@pytest.mark.parametrize("disc, level", ORBIT_CASES,
                         ids=[f"{d}-{n}" for d, n in ORBIT_CASES])
def test_factors_of_first_hecke_operator_are_pinned(disc, level):
    p, expect = FACTORS_OF_FIRST_T[(disc, level)]
    assert p == good_primes(level, 1)[0]
    mat = brandt_matrix(class_set_for(disc, level // disc), p).matrix
    assert factor(charpoly(mat)) == [tuple(map(Fraction, f))
                                     for f, _ in expect]
    assert expand(expect) == charpoly(mat)


# x^4 + 1 and x^4 - 10x^2 + 1 are irreducible over Q and split modulo every
# prime where they stay squarefree (all p >= 5), so only recombination finds
# that they are irreducible
@pytest.mark.parametrize("f", [(1, 0, 0, 0, 1), (1, 0, -10, 0, 1)])
def test_irreducible_that_splits_mod_every_prime(f):
    for p in primes_up_to(50)[2:]:
        assert len(_berlekamp(list(reversed(f)), p)) > 1
    assert factor(f) == [tuple(map(Fraction, f))]


def test_product_of_quadratics():
    assert factor(poly_mul((1, 0, -2), (1, 0, -3))) == [
        (1, 0, -3), (1, 0, -2)]


def test_large_factor_is_read_off_its_lifts():
    # x^2 - 1000x - 1 is found from the lifts before x^2 + 2, so its
    # coefficients are read mod p^k: lifting only halfway gets them wrong
    assert factor(poly_mul((1, -1000, -1), (1, 0, 2))) == [
        (1, -1000, -1), (1, 0, 2)]


def test_non_monic_rational_input_with_repeated_factors():
    half, third = Fraction(1, 2), Fraction(1, 3)
    f = expand([((Fraction(3, 2),), 1), ((1, -half), 2), ((1, 0, third), 3),
                ((3, 1), 1)])
    # distinct factors, ordered as the primitive 2x - 1, 3x + 1, 3x^2 + 1
    assert factor(f) == [(1, -half), (1, third), (1, 0, third)]


def rational_polys():
    coeff = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    return st.lists(coeff, min_size=2, max_size=4).filter(lambda f: f[0])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(rational_polys(), st.integers(1, 3)),
                min_size=1, max_size=4))
def test_factors_are_the_distinct_irreducible_divisors(parts):
    # P = the product of the factors divides f, and f divides P^deg f, so
    # P has exactly f's roots, each once
    f = expand(parts)
    factors = factor(f)
    assert all(g[0] == 1 for g in factors)
    assert len(set(factors)) == len(factors)
    prod = expand([(g, 1) for g in factors])
    assert not poly_rem(f, prod)
    power = [1]
    for _ in range(len(f) - 1):
        power = poly_rem(poly_mul(power, prod), f)
    assert not power
    assert not any(has_rational_root(g) for g in factors if 3 <= len(g) <= 4)
