"""Definite quaternion algebras over Q.

Structure constants i^2 = a, j^2 = b, k = ij = -ji with integers a, b < 0,
so the reduced norm is a positive definite quaternary form.  A quaternion
is its coordinate 4-tuple (w, x, y, z) on the basis 1, i, j, k, over any
commutative ring: integers for the elements of a lattice scaled by its
denominator, Fractions or polynomials elsewhere.  quaternion_product and
quaternion_norm are the one product and the one norm; conjugation flips the
signs of x, y and z.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache


class QuatAlgError(ValueError):
    pass


def _prime_factors(n):
    n = abs(int(n))
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _square_part(n):
    """Largest s with s^2 | n, for a positive integer n."""
    s = 1
    for p in _prime_factors(n):
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        s *= p ** (v // 2)
    return s


def _is_squarefree(n):
    return _square_part(abs(n)) == 1


def _is_prime(n):
    return _prime_factors(n) == [n]


def prime_sieve(n):
    """The sieve of Eratosthenes to n: a bytearray s of length n + 1 (empty
    for n < 0) with s[k] = 1 exactly when k is prime."""
    sieve = bytearray([1]) * max(n + 1, 0)
    sieve[0:2] = bytes(len(sieve[0:2]))
    for i in range(2, math.isqrt(max(n, 0)) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(sieve[i * i::i]))
    return sieve


def primes_up_to(n):
    """The primes p <= n, by the sieve of Eratosthenes."""
    return list(itertools.compress(range(n + 1), prime_sieve(n)))


def good_primes(n, count):
    """The count smallest primes that do not divide n, in increasing order."""
    out = []
    p = 2
    while len(out) < count:
        if n % p and _is_prime(p):
            out.append(p)
        p += 1
    return out


def _legendre(a, p):
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def _split_valuation(x, p):
    """x = p^v * u with u a p-unit; returns (v, u) for a nonzero rational."""
    x = Fraction(x)
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, Fraction(num, den)


def hilbert_symbol(a, b, p):
    """Hilbert symbol (a, b)_p in {+1, -1}; p a prime or the string 'inf'.

    +1 iff z^2 = a x^2 + b y^2 has a nontrivial solution over the completion.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise QuatAlgError("hilbert symbol needs nonzero arguments")
    if p == "inf":
        return -1 if (a < 0 and b < 0) else 1
    p = int(p)
    if not _is_prime(p):
        raise QuatAlgError(f"{p} is not prime")
    alpha, u = _split_valuation(a, p)
    beta, v = _split_valuation(b, p)
    if p != 2:
        # (a,b)_p = (-1)^{alpha beta eps(p)} (u|p)^beta (v|p)^alpha
        sign = 1
        if alpha % 2 and beta % 2 and (p - 1) // 2 % 2:
            sign = -sign
        # Legendre symbols of p-units: use numerator*denominator trick
        def unit_symbol(w):
            return _legendre(w.numerator * w.denominator, p)
        if beta % 2:
            sign *= unit_symbol(u)
        if alpha % 2:
            sign *= unit_symbol(v)
        return sign
    # p = 2: (a,b)_2 = (-1)^{eps(u)eps(v) + alpha omega(v) + beta omega(u)}
    def eps(w):
        t = (w.numerator * pow(w.denominator, -1, 8)) % 8
        return ((t - 1) // 2) % 2

    def omega(w):
        t = (w.numerator * pow(w.denominator, -1, 8)) % 8
        return ((t * t - 1) // 8) % 2

    e = eps(u) * eps(v) + (alpha % 2) * omega(v) + (beta % 2) * omega(u)
    return -1 if e % 2 else 1


class QuaternionAlgebra:
    """Q-algebra with basis 1, i, j, k; i^2 = a, j^2 = b, k = ij = -ji for
    integers a, b."""

    def __init__(self, a, b):
        self.a = a
        self.b = b
        if a >= 0 or b >= 0:
            raise QuatAlgError("need a < 0 and b < 0 for a definite algebra")
        self.ramified_finite = self._ramified_set()
        # product formula: with infinity ramified, |finite set| must be odd
        if len(self.ramified_finite) % 2 != 1:
            raise QuatAlgError("product formula violated (bad structure constants)")

    def _ramified_set(self):
        candidates = {2}
        for x in (self.a, self.b):
            candidates.update(_prime_factors(x))
        return tuple(sorted(p for p in candidates
                            if hilbert_symbol(self.a, self.b, p) == -1))

    @property
    def discriminant(self):
        return math.prod(self.ramified_finite)

    def norm_gram(self):
        """Gram of B(x,y) = tr(x * conj(y)) on the basis 1, i, j, k, as a
        pair (G, rows) of integer rows over one denominator G = 1."""
        diag = (2, -2 * self.a, -2 * self.b, 2 * self.a * self.b)
        return 1, [[diag[i] if i == j else 0 for j in range(4)]
                   for i in range(4)]

    def to_json(self):
        return {"a": f"{self.a}/1", "b": f"{self.b}/1",
                "disc": self.discriminant}

    def __eq__(self, other):
        return isinstance(other, QuaternionAlgebra) and \
            (self.a, self.b) == (other.a, other.b)

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        return f"QuaternionAlgebra({self.a}, {self.b}; disc {self.discriminant})"


def quaternion_product(a, b, left, right):
    """Product of two quaternions given as coordinate 4-tuples (w, x, y, z)
    over any commutative ring, in the algebra with i^2 = a, j^2 = b, k = ij."""
    w1, x1, y1, z1 = left
    w2, x2, y2, z2 = right
    return (
        w1 * w2 + a * x1 * x2 + b * y1 * y2 - a * b * z1 * z2,
        w1 * x2 + x1 * w2 - b * y1 * z2 + b * z1 * y2,
        w1 * y2 + y1 * w2 + a * x1 * z2 - a * z1 * x2,
        w1 * z2 + z1 * w2 + x1 * y2 - y1 * x2,
    )


def quaternion_norm(a, b, y):
    """Reduced norm y conj(y) of the quaternion with coordinates y."""
    w, x, u, z = y
    return w * w - a * x * x - b * u * u + a * b * z * z


@lru_cache(maxsize=None)
def algebra_for_discriminant(n1):
    """The definite quaternion algebra ramified exactly at primes(n1) and inf.

    n1 must be squarefree with an odd number of prime factors.  Search policy:
    (-1,-1) for n1 = 2, (-1,-p) for p = 3 mod 4, otherwise small structure
    constants by increasing |a| + |b|.  At an odd prime that divides neither
    a nor b both are units, whose Hilbert symbol is +1, so that prime does
    not ramify: a candidate is tried only when every odd prime of n1 divides
    ab, which skips no algebra the full scan would return first.
    """
    n1 = int(n1)
    if n1 < 2 or not _is_squarefree(n1):
        raise QuatAlgError(f"{n1} is not a valid squarefree discriminant")
    primes = _prime_factors(n1)
    if len(primes) % 2 == 0:
        raise QuatAlgError(
            f"{n1} has an even number of prime factors; no definite algebra")
    target = tuple(sorted(primes))
    if n1 == 2:
        return QuaternionAlgebra(-1, -1)
    if _is_prime(n1) and n1 % 4 == 3:
        alg = QuaternionAlgebra(-1, -n1)
        if alg.ramified_finite == target:
            return alg
    odd = [p for p in primes if p != 2]
    for total in range(2, 4 * n1 + 64):
        for abs_a in range(1, total):
            abs_b = total - abs_a
            if any(abs_a * abs_b % p for p in odd):
                continue
            try:
                alg = QuaternionAlgebra(-abs_a, -abs_b)
            except QuatAlgError:
                continue
            if alg.ramified_finite == target:
                return alg
    raise QuatAlgError(f"no algebra found for discriminant {n1}")
