import random
from fractions import Fraction
from itertools import count

import pytest

from quatperiods.quatalg import (QuatAlgError, QuaternionAlgebra,
                                 _is_prime, _is_squarefree, _prime_factors,
                                 _square_part,
                                 algebra_for_discriminant, hilbert_symbol,
                                 primes_up_to, quaternion_norm,
                                 quaternion_product)


def _basis_products(a, b):
    """e_s e_t = c e_u as (c, u), for the basis e = 1, i, j, k with
    i^2 = a, j^2 = b and ij = k = -ji."""
    return [[(1, 0), (1, 1), (1, 2), (1, 3)],
            [(1, 1), (a, 0), (1, 3), (a, 2)],
            [(1, 2), (-1, 3), (b, 0), (-b, 1)],
            [(1, 3), (-a, 2), (b, 1), (-a * b, 0)]]


class Quaternion:
    """Test oracle: a quaternion with Fraction coordinates whose product is
    read off the multiplication table of 1, i, j, k, not taken from
    quatalg.quaternion_product, and whose norm is x conj(x)."""

    __slots__ = ("alg", "w", "x", "y", "z")

    def __init__(self, alg, w, x, y, z):
        self.alg = alg
        self.w, self.x, self.y, self.z = map(Fraction, (w, x, y, z))

    def coords(self):
        return [self.w, self.x, self.y, self.z]

    def __add__(self, other):
        return Quaternion(self.alg, *(s + t for s, t in
                                      zip(self.coords(), other.coords())))

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if not isinstance(other, Quaternion):
            return Quaternion(self.alg, *(c * other for c in self.coords()))
        out = [Fraction(0)] * 4
        table = _basis_products(self.alg.a, self.alg.b)
        for s, x in enumerate(self.coords()):
            for t, y in enumerate(other.coords()):
                c, u = table[s][t]
                out[u] += c * x * y
        return Quaternion(self.alg, *out)

    __rmul__ = __mul__

    def conj(self):
        return Quaternion(self.alg, self.w, -self.x, -self.y, -self.z)

    def norm(self):
        return (self * self.conj()).w

    def is_zero(self):
        return not any(self.coords())

    def __eq__(self, other):
        return self.alg == other.alg and self.coords() == other.coords()

    def __repr__(self):
        return f"({self.w} + {self.x}i + {self.y}j + {self.z}k)"


def one(alg):
    return Quaternion(alg, 1, 0, 0, 0)


def gens(alg):
    """The quaternions i, j, k."""
    return tuple(Quaternion(alg, *(int(k == t) for k in range(4)))
                 for t in (1, 2, 3))


def trace(x):
    """Reduced trace x + conj(x)."""
    return 2 * x.w


def inverse(x):
    """x^{-1} = conj(x) / n(x) for a nonzero quaternion x."""
    return x.conj() * (1 / x.norm())


def conj(y):
    """Conjugate of a coordinate tuple."""
    return (y[0], -y[1], -y[2], -y[3])


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


def full_scan_algebra(n1):
    """Oracle: algebra_for_discriminant's search with no candidate skipped,
    every (-|a|, -|b|) tried by increasing |a| + |b|."""
    target = tuple(_prime_factors(n1))
    if n1 == 2:
        return QuaternionAlgebra(-1, -1)
    if _is_prime(n1) and n1 % 4 == 3:
        alg = QuaternionAlgebra(-1, -n1)
        if alg.ramified_finite == target:
            return alg
    for total in count(2):
        for abs_a in range(1, total):
            try:
                alg = QuaternionAlgebra(-abs_a, -(total - abs_a))
            except QuatAlgError:
                continue
            if alg.ramified_finite == target:
                return alg


def test_pruned_algebra_search_matches_the_full_scan():
    valid = [n1 for n1 in range(2, 100) if _is_squarefree(n1)
             and len(_prime_factors(n1)) % 2 == 1]
    assert len(valid) == 30
    for n1 in valid:
        alg, oracle = algebra_for_discriminant(n1), full_scan_algebra(n1)
        assert (alg.a, alg.b) == (oracle.a, oracle.b)
        assert alg.discriminant == n1


def test_structure_constants_are_ints():
    alg = QuaternionAlgebra(-1, -3)
    assert (type(alg.a), type(alg.b)) == (int, int)
    assert alg.to_json() == {"a": "-1/1", "b": "-3/1", "disc": 3}
    assert alg.norm_gram() == (1, [[2, 0, 0, 0], [0, 2, 0, 0],
                                   [0, 0, 6, 0], [0, 0, 0, 6]])


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
    a, b = alg.a, alg.b
    i, j, k = (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
    assert quaternion_norm(a, b, (1, 1, 1, 1)) == 4
    assert quaternion_product(a, b, i, j) == k
    assert quaternion_product(a, b, j, i) == (0, 0, 0, -1)
    assert conj(quaternion_product(a, b, i, j)) == \
        quaternion_product(a, b, j, i)


def _random_tuple(rng):
    return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                 for _ in range(4))


def test_quaternion_product_matches_multiplication_table():
    rng = random.Random(4)
    for n1 in (2, 3, 5, 11, 13):
        alg = algebra_for_discriminant(n1)
        for _ in range(20):
            p, q = _random_tuple(rng), _random_tuple(rng)
            got = quaternion_product(alg.a, alg.b, p, q)
            assert list(got) == (Quaternion(alg, *p) * Quaternion(alg, *q)
                                 ).coords()
            assert quaternion_norm(alg.a, alg.b, p) == \
                Quaternion(alg, *p).norm()
        # integer coordinates stay ints
        y = quaternion_product(alg.a, alg.b, (1, 2, -3, 4), (5, -6, 7, 0))
        assert all(type(c) is int for c in y)


def test_norm_multiplicative_and_conj_identity():
    rng = random.Random(5)
    alg = algebra_for_discriminant(11)
    a, b = alg.a, alg.b
    for _ in range(100):
        p, q = _random_tuple(rng), _random_tuple(rng)
        assert quaternion_norm(a, b, quaternion_product(a, b, p, q)) == \
            quaternion_norm(a, b, p) * quaternion_norm(a, b, q)
        assert quaternion_product(a, b, p, conj(p)) == \
            (quaternion_norm(a, b, p), 0, 0, 0)


def test_conj_antiautomorphism():
    rng = random.Random(6)
    alg = algebra_for_discriminant(3)
    a, b = alg.a, alg.b
    for _ in range(20):
        p, q = _random_tuple(rng), _random_tuple(rng)
        assert conj(quaternion_product(a, b, p, q)) == \
            quaternion_product(a, b, conj(q), conj(p))


def test_similitude_identity_and_scaling():
    # sigma_{x1,x2}(y) = x1 * y * x2^{-1} scales norms by n(x1)/n(x2)
    rng = random.Random(7)
    alg = algebra_for_discriminant(2)
    y = Quaternion(alg, *_random_tuple(rng))
    assert one(alg) * y * inverse(one(alg)) == y
    for _ in range(20):
        x1 = Quaternion(alg, *_random_tuple(rng))
        x2 = Quaternion(alg, *_random_tuple(rng))
        if x1.is_zero() or x2.is_zero():
            continue
        out = x1 * y * inverse(x2)
        assert out.norm() == x1.norm() / x2.norm() * y.norm()


def test_similitude_conjugation_preserves_trace_zero():
    alg = algebra_for_discriminant(2)
    i, j, k = gens(alg)
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


def test_prime_and_squarefree_tests_match_trial_division():
    def is_prime(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    def is_squarefree(n):
        return all(n % (d * d) for d in range(2, int(abs(n) ** 0.5) + 1))

    for n in range(-300, 3000):
        assert _is_prime(n) == is_prime(n), n
        assert _is_squarefree(n) == is_squarefree(n), n
    for n in range(1, 3000):
        s = _square_part(n)
        assert n % (s * s) == 0 and _is_squarefree(n // (s * s))
