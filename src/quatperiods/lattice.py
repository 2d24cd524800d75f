"""Integer lattices with positive definite quadratic forms.

Convention: a lattice stores the Gram matrix of the *bilinear* form
B(x, y) = q(x+y) - q(x) - q(y), so q(x) = B(x, x)/2.

A lattice is two integer pairs over one denominator each.  Its basis is
(D, rows), the generators rows / D in ambient coordinates, as orders.py
builds it with _linalg.hnf_lattice.  There the ambient space is a
quaternion algebra on 1, i, j, k, and integer_ambient(v), D times the
coordinates of a lattice vector, is the integer 4-tuple that
quatalg.quaternion_product and quaternion_norm take.  Its form is (G, g),
the ambient Gram g / G.  The basis Gram is the integer product rows g rows^T
over D^2 G, computed once per lattice and divided down until its
denominator is prime to its entries.  content(), the LDL decomposition and
the enumeration all read that pair, and rescaling the form scales both
pairs without recomputing anything.

Enumeration is Fincke-Pohst on integers.  With the basis Gram M / G,
q(x) = x^T M x / N for N = 2G.  Fraction-free (Bareiss) elimination on M
leaves in row i the integers b_ij (j >= i), where b_ii is the i-th leading
principal minor Delta_i, and
    N q(x) = sum_i T_i^2 / (Delta_{i-1} Delta_i),   T_i = sum_{j>=i} b_ij x_j,
with Delta_{-1} = 1; the form is positive definite iff every Delta_i > 0.
With g_i the gcd of row i and W the least common denominator of the
g_i^2 / (N Delta_{i-1} Delta_i), this is W q(x) = sum_i A_i t_i^2 with
integers A_i and t_i = T_i / g_i = L_i x_i + sum_{j>i} (b_ij / g_i) x_j.
Since W q(x) is an integer, q(x) <= bound holds exactly when
W q(x) <= floor(W bound); and an integer t satisfies A t^2 <= R exactly when
|t| <= isqrt(R // A).  So every coordinate range is computed without
fractions, floats or slack, and no boundary vector with q(x) == bound is
missed.

Sums over lattice vectors run in integers too.  A vector's ambient
coordinates are y / D with integer y, and B(v, w) is an integer dot
product over the basis Gram's denominator.  A polynomial weight p of
degree d with coefficients over the common denominator L becomes integer
coefficients c_m = L D^(d-|m|) p_m, so p(y / D) = sum_m c_m y^m / (L D^d):
the sum is taken in integers and divided once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from operator import mul

from ._linalg import hnf


class LatticeError(ValueError):
    pass


def _reduced(den, rows):
    """The pair (den, rows) divided by the gcd of den and every entry."""
    g = math.gcd(den, *(x for row in rows for x in row))
    return den // g, tuple(tuple(x // g for x in row) for row in rows)


class IntLattice:
    """Full-rank lattice in an ambient rational space with a quadratic form.

    basis: (D, rows), the lattice generators rows / D in ambient
           coordinates, with integer rows and D > 0.
    gram:  (G, g), the Gram matrix g / G of B on the *ambient* basis, with
           integer symmetric g and G > 0.
    """

    def __init__(self, basis, gram):
        self.basis = basis
        g = gram[1]
        n = len(g)
        if gram[0] <= 0 or any(len(r) != n for r in g):
            raise LatticeError("gram must be square with a positive "
                               "denominator")
        if any(g[i][j] != g[j][i] for i in range(n) for j in range(i)):
            raise LatticeError("gram must be symmetric")
        self.gram = _reduced(*gram)
        rows = basis[1]
        if len(rows) != len(rows[0]) or len(hnf(rows)) != len(rows):
            raise LatticeError("basis must be square and of full rank")

    @cached_property
    def integer_gram(self):
        """(G, rows): the basis Gram is rows / G, with gcd(G, entries) = 1."""
        den, rows = self.basis
        gden, g = self.gram
        rg = [[sum(map(mul, r, col)) for col in g] for r in rows]  # g = g^T
        return _reduced(den * den * gden,
                        [[sum(map(mul, a, r)) for r in rows] for a in rg])

    @cached_property
    def integer_ldl(self):
        """(W, [(A_i, L_i, [(j, b_ij / g_i) for j > i, b_ij != 0])]).

        The integer LDL decomposition of the module docstring, for
        short_vectors, by fraction-free elimination on the basis Gram.
        Raises LatticeError when the form is not positive definite.
        """
        gden, m = self.integer_gram
        a = [list(row) for row in m]
        n = len(a)
        prev, levels = 1, []
        for i in range(n):
            piv = a[i][i]
            if piv <= 0:
                raise LatticeError("form is not positive definite")
            g = math.gcd(*a[i][i:])
            num, den = g * g, 2 * gden * prev * piv
            r = math.gcd(num, den)
            levels.append((num // r, den // r, piv // g,
                           [(j, a[i][j] // g) for j in range(i + 1, n)
                            if a[i][j]]))
            for j in range(i + 1, n):         # Bareiss step on the upper part
                for k in range(j, n):
                    a[j][k] = (piv * a[j][k] - a[i][j] * a[i][k]) // prev
            prev = piv
        w = math.lcm(*(den for _, den, _, _ in levels))
        return w, [(num * (w // den), lev, row)
                   for num, den, lev, row in levels]

    # -- form values --------------------------------------------------------
    def integer_ambient(self, v):
        """D times the ambient coordinates of v (lattice coordinates)."""
        rows = self.basis[1]
        return [sum(map(mul, v, col)) for col in zip(*rows)]

    def ambient(self, v):
        """Ambient coordinates of a vector given in lattice coordinates."""
        den = self.basis[0]
        return [Fraction(y, den) for y in self.integer_ambient(v)]

    def rescaled(self, factor):
        """The lattice with its form times the positive rational factor.

        Both the ambient and the cached basis Gram are scaled, so nothing is
        recomputed; the basis is shared.
        """
        num, den = factor.numerator, factor.denominator

        def scaled(pair):
            return _reduced(pair[0] * den,
                            [[x * num for x in row] for row in pair[1]])

        out = IntLattice.__new__(IntLattice)
        out.basis = self.basis
        out.gram, out.integer_gram = scaled(self.gram), scaled(self.integer_gram)
        return out

    def content(self):
        """gcd of the q-values on the lattice: with the basis Gram M / G,
        the gcd of the M_ii and the 2 M_ij over 2G."""
        gden, m = self.integer_gram
        n = len(m)
        g = math.gcd(*(m[i][i] for i in range(n)),
                     *(2 * m[i][j] for i in range(n) for j in range(i)))
        return Fraction(g, 2 * gden)

    def __repr__(self):
        return f"IntLattice(rank {len(self.basis[1])})"


def short_vectors(lattice, bound, include_zero=False):
    """All lattice vectors with 0 < q(x) <= bound (exact, both signs).

    Returns a list of (coords, norm) with coords in lattice coordinates,
    sorted lexicographically.  With include_zero the zero vector is prepended.
    """
    bound = Fraction(bound)
    if bound < 0:
        raise LatticeError("bound must be nonnegative")
    w, levels = lattice.integer_ldl
    n = len(levels)
    top = bound.numerator * w // bound.denominator    # floor(W * bound)
    found = []
    coords = [0] * n

    def descend(i, rem):
        # rem = floor(W * bound) - sum_{k>i} A_k t_k^2 >= 0
        a, den, row = levels[i]
        c = sum(cij * coords[j] for j, cij in row)
        s = math.isqrt(rem // a)                # |t| <= s  <=>  A t^2 <= rem
        for x in range(-((s + c) // den), (s - c) // den + 1):
            coords[i] = x
            t = den * x + c
            if i:
                descend(i - 1, rem - a * t * t)
            else:
                found.append((tuple(coords), top - rem + a * t * t))
        coords[i] = 0

    if n:
        descend(n - 1, top)
        found.remove(((0,) * n, 0))
    found.sort()
    norms = {m: Fraction(m, w) for m in {m for _, m in found}}
    result = [(list(v), norms[m]) for v, m in found]
    if include_zero:
        result.insert(0, ([0] * n, Fraction(0)))
    return result


def integer_terms(polys, den):
    """(N, [[(m, c), ...] per poly]): p(y / den) = sum_m c y^m / N for every
    point y, with one N for all the polys and integer c.

    N = L den^d for d the largest total degree and L the common denominator
    of the coefficients.  A coefficient in a number field (anything with a
    numerator and a denominator, like a Fraction) keeps its field: c is then
    a field element with integral coordinates.
    """
    deg = max(p.total_degree() for p in polys)
    big = math.lcm(*(c.denominator for p in polys for c in p.terms.values()))
    return big * den ** deg, [
        [(m, c.numerator * (big // c.denominator) * den ** (deg - sum(m)))
         for m, c in p.terms.items()] for p in polys]


def monomial_values(points, monos):
    """[[prod_i y_i^m_i for m in monos] for y in points], built up
    incrementally: a monomial is its parent (its first nonzero exponent
    lowered by one) times that y_i, so once the parents are found each
    point costs one product per monomial or parent."""
    index, steps = {}, []   # monomial -> value number; (parent number, i)

    def visit(m):
        if m not in index:
            i = next((i for i, e in enumerate(m) if e), None)
            if i is not None:
                steps.append((visit(m[:i] + (m[i] - 1,) + m[i + 1:]), i))
            index[m] = len(steps)
        return index[m]

    slots = [visit(m) for m in monos]
    out = []
    for y in points:
        vals = [1]
        for k, i in steps:
            vals.append(vals[k] * y[i])
        out.append([vals[k] for k in slots])
    return out


def theta_coeffs(lattice, prec, weight=None):
    """Theta coefficients {n: sum_{q(x)=n} weight(x)} for 0 <= n <= prec.

    weight, if given, is a Poly on the ambient space evaluated at ambient
    coordinates; weight absent counts vectors.  x = 0 is included at n = 0.
    """
    if prec < 0:
        raise LatticeError("prec must be nonnegative")
    sums = dict.fromkeys(range(int(math.floor(prec)) + 1), 0)
    if weight is None:
        for _, q in short_vectors(lattice, prec, include_zero=True):
            if q.denominator == 1:
                sums[int(q)] += 1
        return sums
    den, (terms,) = integer_terms([weight], lattice.basis[0])
    monos = [m for m, _ in terms]
    coefs = [c for _, c in terms]
    found = [(int(q), lattice.integer_ambient(v))
             for v, q in short_vectors(lattice, prec, include_zero=True)
             if q.denominator == 1]
    for (n, _), vals in zip(found, monomial_values([y for _, y in found],
                                                   monos)):
        sums[n] += sum(map(mul, coefs, vals))
    return {n: s * Fraction(1, den) for n, s in sums.items()}
