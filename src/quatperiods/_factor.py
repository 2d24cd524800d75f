"""Factorization of rational polynomials into irreducibles over Q.

The Hecke fields of eigenforms are the irreducible factors of the
characteristic polynomials of Brandt and Atkin-Lehner operators, and only
the distinct ones matter: the split cuts a space by the kernel of each.
factor() finds them by Zassenhaus' method (von zur Gathen-Gerhard, Modern
Computer Algebra, ch. 14-15; Cohen, GTM 138, sec. 3.5):

1. the squarefree part f / gcd(f, f') over Q, as a primitive integer
   polynomial f, is factored modulo the smallest prime p that does not
   divide its leading coefficient and keeps it squarefree, by Berlekamp's
   kernel of Q - I over F_p;
2. the factors mod p are Hensel-lifted to p^k > 2B, for B the
   Landau-Mignotte bound 2^n ||f||_2 times the leading coefficient;
3. products of subsets of the lifted factors, smallest subsets first, are
   tested as factors over Z by exact division.

The degrees here are small, so subset recombination needs no lattice
reduction.  The factors come sorted as the primitive integer factors g with
positive leading coefficient: by degree, then the coefficients of g from
high to low.

Inside this module a polynomial is the list of its coefficients from low to
high with no trailing zeros; factor() takes and returns them high to low,
like _linalg.charpoly.  The helpers work over Q, and over F_p where p is
given, so they also serve brandt.NumberFieldElement: its product is _mul
and _divmod's remainder, and its inverse is _bezout's, as in Hensel lifting.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, count, zip_longest
from math import gcd, isqrt

from ._linalg import content, nullspace
from .quatalg import _is_prime


def factor(coeffs):
    """The distinct irreducible factors over Q of the nonzero polynomial with
    rational coefficients high to low, as monic Fraction coefficients high
    to low: the factors of its squarefree part f / gcd(f, f').

    Sorted as the primitive integer factors g with positive leading
    coefficient: by degree, then g's coefficients high to low.
    """
    f = _monic(_trim([Fraction(c) for c in reversed(coeffs)]))
    f = _divmod(f, _gcd(f, _derivative(f)))[0]
    if len(f) == 1:
        return []
    scale = content(f)
    out = _factor_squarefree([int(c / scale) for c in f])
    out.sort(key=lambda g: (len(g), g[::-1]))
    return [tuple(Fraction(c, g[-1]) for c in reversed(g)) for g in out]


# ---------------------------------------------------------------------------
# polynomial arithmetic: over Q, over Z, and over F_p where p is given
# ---------------------------------------------------------------------------

def _trim(f):
    while f and not f[-1]:
        f.pop()
    return f


def _reduce(f, m=None):
    """f with coefficients mod m in 0..m-1; f trimmed when m is None."""
    return _trim(f if m is None else [c % m for c in f])


def _add(f, g):
    return _trim([a + b for a, b in zip_longest(f, g, fillvalue=0)])


def _sub(f, g):
    return _add(f, [-c for c in g])


def _mul(f, g):
    out = [0] * max(len(f) + len(g) - 1, 0)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _product(polys, m):
    """The product of the polynomials mod m."""
    out = [1]
    for g in polys:
        out = _reduce(_mul(out, g), m)
    return out


def _derivative(f):
    return _trim([i * c for i, c in enumerate(f)][1:])


def _inverse(c, p=None):
    return 1 / Fraction(c) if p is None else pow(c, -1, p)


def _monic(f, p=None):
    inv = _inverse(f[-1], p)
    return [c * inv if p is None else c * inv % p for c in f]


def _divmod(f, g, p=None):
    """(q, r) with f = q g + r and deg r < deg g, over Q or over F_p."""
    inv = _inverse(g[-1], p)
    r = list(f)
    q = [0] * max(len(f) - len(g) + 1, 0)
    for k in reversed(range(len(q))):
        c = r[k + len(g) - 1] * inv
        q[k] = c = c if p is None else c % p
        for i, x in enumerate(g):
            r[k + i] -= c * x
    return q, _reduce(r[:len(g) - 1], p)


def _gcd(f, g, p=None):
    """The monic gcd over Q or over F_p."""
    while g:
        f, g = g, _divmod(f, g, p)[1]
    return _monic(f, p)


def _bezout(g, h, p=None):
    """(s, t) with s g + t h = 1 over Q or over F_p, for coprime g and h
    (extended Euclid)."""
    r0, r1, s0, s1, t0, t1 = g, h, [1], [], [], [1]
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _reduce(_sub(s0, _mul(q, s1)), p)
        t0, t1 = t1, _reduce(_sub(t0, _mul(q, t1)), p)
    inv = _inverse(r0[0], p)
    return _reduce([c * inv for c in s0], p), _reduce([c * inv for c in t0], p)


def _primitive(f):
    """f over the gcd of its integer coefficients, with positive lead."""
    d = gcd(*f) if f[-1] > 0 else -gcd(*f)
    return [c // d for c in f]


# ---------------------------------------------------------------------------
# Zassenhaus' method
# ---------------------------------------------------------------------------

def _factor_squarefree(f):
    """The irreducible factors over Z of a primitive squarefree f with
    positive lead, each primitive with positive lead."""
    if len(f) == 2:
        return [f]
    p = next(p for p in count(2) if _is_prime(p) and f[-1] % p and len(
        _gcd(_reduce(f, p), _reduce(_derivative(f), p), p)) == 1)
    factors = _berlekamp(_monic(_reduce(f, p), p), p)
    if len(factors) == 1:
        return [f]
    # every factor g scaled to lead f[-1] has coefficients at most
    # 2^deg(g) ||f||_2 (Mignotte), so at most bound
    bound = f[-1] * 2 ** (len(f) - 1) * (isqrt(sum(c * c for c in f)) + 1)
    k = next(k for k in count(1) if p ** k > 2 * bound)
    return _recombine(f, _hensel(f, factors, p, k), p ** k)


def _berlekamp(f, p):
    """The monic irreducible factors over F_p of a monic squarefree f.

    g = sum g_i x^i has g^p = g mod f exactly when g (Q - I) = 0 for the
    matrix Q whose row i is x^(ip) mod f.  The kernel's dimension is the
    number of irreducible factors, and the gcds of a factor with g - s for
    s in F_p multiply to that factor; the kernel vectors together split f
    completely.
    """
    n = len(f) - 1
    xp = [1]
    for _ in range(p):
        xp = _divmod([0] + xp, f, p)[1]
    rows, row = [], [1]
    for _ in range(n):
        rows.append(row + [0] * (n - len(row)))
        row = _divmod(_mul(row, xp), f, p)[1]
    kernel = nullspace([[rows[i][j] - (i == j) for i in range(n)]
                        for j in range(n)], p)
    factors = [f]
    for g in kernel:
        if len(factors) == len(kernel):
            break
        factors = [d for h in factors for s in range(p)
                   for d in [_gcd(h, _reduce(_sub(g, [s]), p), p)]
                   if len(d) > 1]
    return factors


def _lift(f, g, h, p, k):
    """(G, H) with f = G H mod p^k and G = g, H = h mod p, G monic, for
    coprime g and h with g monic and f = g h mod p (linear Hensel lifting)."""
    s, t = _bezout(g, h, p)
    big_g, big_h, m = g, h, p
    for _ in range(k - 1):
        # f = (G + m r)(H + m a) mod mp for r h + a g = (f - G H) / m mod p,
        # solved through s g + t h = 1 with deg r < deg g
        c = _reduce([x // m for x in _sub(f, _mul(big_g, big_h))], p)
        q, r = _divmod(_mul(c, t), g, p)
        a = _reduce(_add(_mul(c, s), _mul(q, h)), p)
        big_g = _add(big_g, [m * x for x in r])
        big_h = _add(big_h, [m * x for x in a])
        m *= p
    return big_g, big_h


def _hensel(f, factors, p, k):
    """The monic lifts mod p^k of the monic factors mod p of f, where f = its
    lead times their product mod p: each factor is lifted off the cofactor
    left by the ones before."""
    lifted = []
    for i, g in enumerate(factors[:-1]):
        h = _product(factors[i + 1:] + [[f[-1]]], p)
        g, f = _lift(f, g, h, p, k)
        lifted.append(g)
    return lifted + [_monic(f, p ** k)]


def _recombine(f, lifted, modulus):
    """The irreducible factors over Z of a primitive squarefree f with
    positive lead, from the monic lifts of its factors mod modulus: the
    products of subsets, times f's lead, in the symmetric range mod modulus,
    are tested by exact division over Q, which Gauss's lemma makes exact
    division over Z."""
    out = []
    size = 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            g = _product([lifted[i] for i in subset] + [[f[-1]]], modulus)
            g = _primitive([c - modulus if 2 * c > modulus else c for c in g])
            q, r = _divmod(f, g)
            if not r:
                out.append(g)
                f = [int(c) for c in q]
                lifted = [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return out + [f]
