"""Integer lattices with positive definite quadratic forms.

Convention: a lattice stores the Gram matrix of the *bilinear* form
B(x, y) = q(x+y) - q(x) - q(y), so q(x) = B(x, x)/2.  All enumeration is
exact: the Fincke-Pohst recursion runs on a rational LDL decomposition and
integer bounds are certified by exact comparisons, so boundary vectors with
q(x) == bound are never missed.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._linalg import content, det, frac_mat, hnf_rational, mat_mul, transpose


class LatticeError(ValueError):
    pass


class IntLattice:
    """Full-rank lattice in an ambient rational space with a quadratic form.

    basis: rows are lattice generators in ambient coordinates.
    gram:  Gram matrix of B on the *ambient* basis (so the Gram on the
           lattice basis is basis * gram * basis^T).
    scale: bookkeeping factor recording any rescaling of the form.
    """

    def __init__(self, basis, gram, scale=Fraction(1)):
        self.basis = frac_mat(basis)
        self.gram = frac_mat(gram)
        self.scale = Fraction(scale)
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
        self._fp = None

    # -- form values --------------------------------------------------------
    def basis_gram(self):
        """Gram of B on the lattice basis."""
        return mat_mul(mat_mul(self.basis, self.gram), transpose(self.basis))

    def bilinear(self, v, w):
        """B(v, w) for vectors in lattice coordinates."""
        g = self.basis_gram()
        return sum(v[i] * sum(g[i][j] * w[j] for j in range(len(w)))
                   for i in range(len(v)))

    def q(self, v):
        """q(v) = B(v, v)/2 for v in lattice coordinates."""
        return self.bilinear(v, v) / 2

    def ambient(self, v):
        """Ambient coordinates of a vector given in lattice coordinates."""
        return [sum(Fraction(v[i]) * self.basis[i][j]
                    for i in range(len(v)))
                for j in range(len(self.basis[0]))]

    def rescaled(self, factor):
        factor = Fraction(factor)
        g = [[x * factor for x in row] for row in self.gram]
        return IntLattice(self.basis, g, self.scale * factor)

    def content(self):
        """gcd of the q-values on the lattice (from the basis Gram)."""
        g = self.basis_gram()
        vals = [g[i][i] / 2 for i in range(len(g))]
        vals += [g[i][j] for i in range(len(g)) for j in range(i)]
        return content(vals)

    def key(self):
        """Canonical hashable key (HNF basis plus ambient Gram)."""
        h = hnf_rational(self.basis)
        return (tuple(tuple(x for x in row) for row in h),
                tuple(tuple(x for x in row) for row in self.gram))

    def __repr__(self):
        return f"IntLattice(rank {len(self.basis)}, scale {self.scale})"


def canonical_basis(lattice):
    """Same lattice with the canonical Hermite-reduced basis.

    Idempotent, and independent of the incoming basis choice.
    """
    h = hnf_rational(lattice.basis)
    if len(h) != len(lattice.basis):
        raise LatticeError("basis is rank deficient")
    return IntLattice(h, lattice.gram, lattice.scale)


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


def _floor_sqrt_bound(center, radius2):
    """floor(center + sqrt(radius2)), certified by exact comparisons."""
    if radius2 < 0:
        return None
    s = math.sqrt(float(radius2)) if radius2 > 0 else 0.0
    m = math.floor(float(center) + s)

    def ok(t):
        d = Fraction(t) - center
        return d <= 0 or d * d <= radius2

    while ok(m + 1):
        m += 1
    while not ok(m):
        m -= 1
    return m


def _ceil_sqrt_bound(center, radius2):
    """ceil(center - sqrt(radius2)), certified by exact comparisons."""
    if radius2 < 0:
        return None
    s = math.sqrt(float(radius2)) if radius2 > 0 else 0.0
    m = math.ceil(float(center) - s)

    def ok(t):
        d = center - Fraction(t)
        return d <= 0 or d * d <= radius2

    while ok(m - 1):
        m -= 1
    while not ok(m):
        m += 1
    return m


def short_vectors(lattice, bound, include_zero=False):
    """All lattice vectors with 0 < q(x) <= bound (exact, both signs).

    Returns a list of (coords, norm) with coords in lattice coordinates,
    sorted lexicographically.  With include_zero the zero vector is prepended.
    """
    bound = Fraction(bound)
    if bound < 0:
        raise LatticeError("bound must be nonnegative")
    if lattice._fp is None:
        g = lattice.basis_gram()
        n = len(g)
        a = [[g[i][j] / 2 for j in range(n)] for i in range(n)]
        lattice._fp = _ldl(a)
    d, u = lattice._fp
    n = len(d)
    out = []
    coords = [0] * n

    def descend(i, remaining):
        # q = sum_k d[k] (x_k + sum_{j>k} u[k][j] x_j)^2, process i = n-1 .. 0
        offset = sum(u[i][j] * coords[j] for j in range(i + 1, n))
        radius2 = remaining / d[i]
        lo = _ceil_sqrt_bound(-offset, radius2)
        hi = _floor_sqrt_bound(-offset, radius2)
        if lo is None or hi is None:
            return
        for x in range(lo, hi + 1):
            coords[i] = x
            used = d[i] * (x + offset) ** 2
            if i == 0:
                vec = tuple(coords)
                if any(vec):
                    q = bound - (remaining - used)
                    out.append((vec, q))
            else:
                descend(i - 1, remaining - used)
        coords[i] = 0

    if n:
        descend(n - 1, bound)
    # exact norms: recompute q from accumulated pieces is already exact, but
    # the subtraction chain above tracks it; sort deterministically.
    out.sort(key=lambda t: t[0])
    result = [(list(v), q) for v, q in out]
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
