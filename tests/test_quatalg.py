import random
from fractions import Fraction

import pytest

from quatperiods.quatalg import (QuatAlgError, Quaternion, QuaternionAlgebra,
                                 algebra_for_discriminant, hilbert_symbol,
                                 primes_up_to)


def one(alg):
    return Quaternion(alg, 1, 0, 0, 0)


def trace(x):
    """Reduced trace x + conj(x)."""
    return 2 * x.w


def inverse(x):
    """x^{-1} = conj(x) / n(x) for a nonzero quaternion x."""
    return x.conj() * (1 / x.norm())


def hilbert_oracle(a, b, p):
    """Solvability of z^2 = a x^2 + b y^2 over Q_p by search mod p^k.

    k is beyond the Hensel bound for the given coefficients, so a primitive
    solution mod p^k certifies +1 and its absence certifies -1.
    """
    a, b = int(a), int(b)
    v = 0
    m = 4 * abs(a * b)
    while m % p == 0:
        m //= p
        v += 1
    k = 2 * v + 1 if p != 2 else 2 * v + 3
    mod = p ** k
    unit_sqrt = {}
    any_sqrt = set()
    for z in range(mod):
        t = z * z % mod
        any_sqrt.add(t)
        if z % p:
            unit_sqrt[t] = z
    for x in range(mod):
        for y in range(mod):
            t = (a * x * x + b * y * y) % mod
            if x % p or y % p:
                if t in any_sqrt:
                    return 1
            elif t in unit_sqrt:
                return 1
    return -1


def test_hilbert_trivial_square():
    for p in (2, 3, 5, 11, "inf"):
        assert hilbert_symbol(1, -7, p) == 1


def test_hilbert_infinite_place():
    assert hilbert_symbol(-1, -1, "inf") == -1
    assert hilbert_symbol(-1, 2, "inf") == 1


def test_hilbert_vs_search_oracle():
    assert hilbert_symbol(-1, -11, 11) == hilbert_oracle(-1, -11, 11) == -1
    assert hilbert_symbol(-1, -11, 2) == hilbert_oracle(-1, -11, 2) == 1
    assert hilbert_symbol(-1, -1, 2) == hilbert_oracle(-1, -1, 2) == -1
    assert hilbert_symbol(-2, -5, 5) == hilbert_oracle(-2, -5, 5) == -1
    assert hilbert_symbol(-1, -3, 3) == hilbert_oracle(-1, -3, 3) == -1
    assert hilbert_symbol(-1, -3, 5) == hilbert_oracle(-1, -3, 5) == 1


def test_hilbert_rejects_bad_place():
    with pytest.raises(QuatAlgError):
        hilbert_symbol(-1, -1, 6)


def test_algebra_for_small_discriminants():
    alg2 = algebra_for_discriminant(2)
    assert (alg2.a, alg2.b) == (-1, -1)
    alg11 = algebra_for_discriminant(11)
    assert (alg11.a, alg11.b) == (-1, -11)
    for n1 in (2, 3, 5, 7, 11, 13):
        alg = algebra_for_discriminant(n1)
        assert alg.discriminant == n1


def test_algebra_even_factor_count_rejected():
    with pytest.raises(QuatAlgError):
        algebra_for_discriminant(6)


def test_ramified_set_even_with_infinity():
    for n1 in (2, 3, 5, 7, 11, 13):
        alg = algebra_for_discriminant(n1)
        places = list(alg.ramified_finite) + ["inf"]
        assert len(places) % 2 == 0
        for p in places:
            assert hilbert_symbol(alg.a, alg.b, p) == -1


def test_basic_arithmetic():
    alg = algebra_for_discriminant(2)
    i, j, k = alg.gens()
    q = one(alg) + i + j + k
    assert q.norm() == 4
    assert trace(q) == 2
    assert (i * j).conj() == -(i * j)
    assert (i * j).conj() == j * i
    assert i * j == k and j * i == -k


def _random_quaternion(rng, alg):
    return Quaternion(alg, *[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                             for _ in range(4)])


def test_norm_multiplicative_and_conj_identity():
    rng = random.Random(5)
    alg = algebra_for_discriminant(11)
    for _ in range(100):
        p = _random_quaternion(rng, alg)
        q = _random_quaternion(rng, alg)
        assert (p * q).norm() == p.norm() * q.norm()
        prod = p * p.conj()
        assert prod.coords() == [p.norm(), 0, 0, 0]


def test_conj_antiautomorphism():
    rng = random.Random(6)
    alg = algebra_for_discriminant(3)
    for _ in range(20):
        p = _random_quaternion(rng, alg)
        q = _random_quaternion(rng, alg)
        assert (p * q).conj() == q.conj() * p.conj()


def test_similitude_identity_and_scaling():
    # sigma_{x1,x2}(y) = x1 * y * x2^{-1} scales norms by n(x1)/n(x2)
    rng = random.Random(7)
    alg = algebra_for_discriminant(2)
    y = _random_quaternion(rng, alg)
    assert one(alg) * y * inverse(one(alg)) == y
    for _ in range(20):
        x1 = _random_quaternion(rng, alg)
        x2 = _random_quaternion(rng, alg)
        if x1.is_zero() or x2.is_zero():
            continue
        out = x1 * y * inverse(x2)
        assert out.norm() == x1.norm() / x2.norm() * y.norm()


def test_similitude_conjugation_preserves_trace_zero():
    alg = algebra_for_discriminant(2)
    i, j, k = alg.gens()
    x = one(alg) + i
    y = j + k
    out = x * y * inverse(x)
    assert trace(out) == 0
    assert out.norm() == y.norm()


@pytest.mark.parametrize("n, primes", [(-3, []), (-1, []), (0, []), (1, []),
                                       (2, [2]), (30, [2, 3, 5, 7, 11, 13,
                                                       17, 19, 23, 29])])
def test_primes_up_to_small_and_negative_bounds(n, primes):
    assert primes_up_to(n) == primes
