"""Integer lattices with positive definite quadratic forms.

Convention: a lattice stores the Gram matrix of the *bilinear* form
B(x, y) = q(x+y) - q(x) - q(y), so q(x) = B(x, x)/2.

Enumeration is Fincke-Pohst on integers.  Each lattice caches its basis
Gram and, once, the rational LDL decomposition
q(x) = sum_i d_i (x_i + sum_{j>i} u_ij x_j)^2 scaled to integers: with L_i
the common denominator of row i of u and W that of every d_i / L_i^2,
W q(x) = sum_i A_i t_i^2 with t_i = L_i x_i + sum_{j>i} (L_i u_ij) x_j and
integers A_i.  Since W q(x) is an integer, q(x) <= bound holds exactly when
W q(x) <= floor(W bound); and an integer t satisfies A t^2 <= R exactly when
|t| <= isqrt(R // A).  So every coordinate range is computed without floats
or slack, and no boundary vector with q(x) == bound is missed.

Sums over lattice vectors run in integers too.  A lattice's basis is one
pair (D, rows) of integer rows over one denominator, as orders.py builds
it with _linalg.hnf_lattice, and the lattice caches its basis Gram as
integer rows over a denominator G.  So a vector's ambient coordinates are
y / D with integer y, and B(v, w) is an integer dot product over G.  A
polynomial weight p of degree d with coefficients over the common
denominator L becomes integer coefficients c_m = L D^(d-|m|) p_m, so
p(y / D) = sum_m c_m y^m / (L D^d): the sum is taken in integers and
divided once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from operator import mul

from ._linalg import content, frac_mat, hnf, integer_rows, mat_mul, transpose


class LatticeError(ValueError):
    pass


class IntLattice:
    """Full-rank lattice in an ambient rational space with a quadratic form.

    basis: (D, rows), the lattice generators rows / D in ambient
           coordinates, with integer rows and D > 0.
    gram:  Gram matrix of B on the *ambient* basis (so the Gram on the
           lattice basis is rows * gram * rows^T / D^2).
    """

    def __init__(self, basis, gram):
        self.basis = basis
        self.gram = frac_mat(gram)
        n = len(self.gram)
        if any(len(r) != n for r in self.gram):
            raise LatticeError("gram must be square")
        if self.gram != transpose(self.gram):
            raise LatticeError("gram must be symmetric")
        rows = basis[1]
        if len(rows) != len(rows[0]) or len(hnf(rows)) != len(rows):
            raise LatticeError("basis must be square and of full rank")

    @cached_property
    def _basis_gram(self):
        den, rows = self.basis
        g = mat_mul(mat_mul(rows, self.gram), transpose(rows))
        return [[x / (den * den) for x in row] for row in g]

    @cached_property
    def integer_ldl(self):
        """(W, [(A_i, L_i, [(j, L_i u_ij) for j > i, u_ij != 0])]).

        The integer form of the LDL decomposition described in the module
        docstring, for short_vectors.  Raises LatticeError when the form is
        not positive definite.
        """
        g = self._basis_gram
        d, u = _ldl([[x / 2 for x in row] for row in g])
        dens = [math.lcm(*(x.denominator for x in row)) for row in u]
        w = math.lcm(*((di / (den * den)).denominator
                       for di, den in zip(d, dens)))
        return w, [(int(di * w / (den * den)), den,
                    [(j, int(x * den)) for j, x in enumerate(row) if x])
                   for di, den, row in zip(d, dens, u)]

    # -- form values --------------------------------------------------------
    def basis_gram(self):
        """Gram of B on the lattice basis."""
        return [row[:] for row in self._basis_gram]

    @cached_property
    def integer_gram(self):
        """(G, rows): the basis Gram is rows / G, integer rows, G minimal."""
        return integer_rows(self._basis_gram)

    def integer_ambient(self, v):
        """D times the ambient coordinates of v (lattice coordinates)."""
        rows = self.basis[1]
        return [sum(map(mul, v, col)) for col in zip(*rows)]

    def ambient(self, v):
        """Ambient coordinates of a vector given in lattice coordinates."""
        den = self.basis[0]
        return [Fraction(y, den) for y in self.integer_ambient(v)]

    def rescaled(self, factor):
        factor = Fraction(factor)
        g = [[x * factor for x in row] for row in self.gram]
        return IntLattice(self.basis, g)

    def content(self):
        """gcd of the q-values on the lattice (from the basis Gram)."""
        g = self._basis_gram
        vals = [g[i][i] / 2 for i in range(len(g))]
        vals += [g[i][j] for i in range(len(g)) for j in range(i)]
        return content(vals)

    def __repr__(self):
        return f"IntLattice(rank {len(self.basis[1])})"


def _ldl(a):
    """LDL decomposition q(x) = sum_i d[i] (x_i + sum_{j>i} u[i][j] x_j)^2."""
    n = len(a)
    a = [row[:] for row in a]
    d = [Fraction(0)] * n
    u = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = a[i][i]
        if d[i] <= 0:
            raise LatticeError("form is not positive definite")
        for j in range(i + 1, n):
            u[i][j] = a[i][j] / d[i]
        for j in range(i + 1, n):
            for k in range(j, n):
                a[j][k] -= a[i][j] * a[i][k] / d[i]
                a[k][j] = a[j][k]
    return d, u


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


def monomial_values(y, monos):
    """[prod_i y_i^m_i for m in monos]."""
    return [math.prod(x ** e for x, e in zip(y, m) if e) for m in monos]


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
    for v, q in short_vectors(lattice, prec, include_zero=True):
        if q.denominator == 1:
            y = lattice.integer_ambient(v)
            sums[int(q)] += sum(map(mul, coefs, monomial_values(y, monos)))
    return {n: s * Fraction(1, den) for n, s in sums.items()}
