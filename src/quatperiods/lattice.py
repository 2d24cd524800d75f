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
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from ._linalg import content, det, frac_mat, hnf_rational, mat_mul, transpose


class LatticeError(ValueError):
    pass


class IntLattice:
    """Full-rank lattice in an ambient rational space with a quadratic form.

    basis: rows are lattice generators in ambient coordinates.
    gram:  Gram matrix of B on the *ambient* basis (so the Gram on the
           lattice basis is basis * gram * basis^T).
    """

    def __init__(self, basis, gram):
        self.basis = frac_mat(basis)
        self.gram = frac_mat(gram)
        n = len(self.gram)
        if any(len(r) != n for r in self.gram):
            raise LatticeError("gram must be square")
        for i in range(n):
            for j in range(i):
                if self.gram[i][j] != self.gram[j][i]:
                    raise LatticeError("gram must be symmetric")
        if len(self.basis) != len(self.basis[0]):
            raise LatticeError("basis must be square (full rank lattice)")
        if det(self.basis) == 0:
            raise LatticeError("basis is rank deficient")

    @cached_property
    def _basis_gram(self):
        return mat_mul(mat_mul(self.basis, self.gram), transpose(self.basis))

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

    def bilinear(self, v, w):
        """B(v, w) for vectors in lattice coordinates."""
        g = self._basis_gram
        return sum(v[i] * sum(g[i][j] * w[j] for j in range(len(w)))
                   for i in range(len(v)))

    def ambient(self, v):
        """Ambient coordinates of a vector given in lattice coordinates."""
        return [sum(Fraction(v[i]) * self.basis[i][j]
                    for i in range(len(v)))
                for j in range(len(self.basis[0]))]

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

    def key(self):
        """Canonical hashable key (HNF basis plus ambient Gram)."""
        h = hnf_rational(self.basis)
        return (tuple(tuple(x for x in row) for row in h),
                tuple(tuple(x for x in row) for row in self.gram))

    def __repr__(self):
        return f"IntLattice(rank {len(self.basis)})"


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


def theta_coeffs(lattice, prec, weight=None):
    """Theta coefficients {n: sum_{q(x)=n} weight(x)} for 0 <= n <= prec.

    weight, if given, is a Poly on the ambient space evaluated at ambient
    coordinates; weight absent counts vectors.  x = 0 is included at n = 0.
    """
    if prec < 0:
        raise LatticeError("prec must be nonnegative")
    coeffs = {}
    vecs = short_vectors(lattice, prec, include_zero=True)
    for v, q in vecs:
        if q.denominator == 1:
            n = int(q)
            if weight is None:
                val = coeffs.get(n, 0) + 1
            else:
                val = coeffs.get(n, Fraction(0)) + weight.eval(lattice.ambient(v))
            coeffs[n] = val
    for n in range(int(math.floor(prec)) + 1):
        coeffs.setdefault(n, Fraction(0) if weight is not None else 0)
    return dict(sorted(coeffs.items()))
