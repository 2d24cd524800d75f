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
denominator is prime to its entries.  content(), the reduction and the
enumeration all read that pair, and rescaling the form scales both
pairs without recomputing anything.

Enumeration is Fincke-Pohst on integers (Math. Comp. 44, 1985), run on an
LLL-reduced basis (Math. Ann. 261, 1982).  The basis Gram M / G is reduced
once per lattice to R = U M U^T with U unimodular (_linalg.lll_gram, in
integers), so the nested coordinate ranges are short and few of them are
empty; a vector y in reduced coordinates is y U in basis coordinates.
With q(y) = y^T R y / N for N = 2G, a forward fraction-free pass of
_linalg.bareiss on R, which never swaps rows of a positive definite form,
leaves in row i the integers b_ij (j >= i), where b_ii is the i-th leading
principal minor Delta_i, and
    N q(y) = sum_i T_i^2 / (Delta_{i-1} Delta_i),   T_i = sum_{j>=i} b_ij y_j,
with Delta_{-1} = 1; the form is positive definite iff every Delta_i > 0,
which the reduction checks.  With g_i the gcd of row i and W the least
common denominator of the g_i^2 / (N Delta_{i-1} Delta_i), this is
W q(y) = sum_i A_i t_i^2 with integers A_i and
t_i = T_i / g_i = L_i y_i + sum_{j>i} (b_ij / g_i) y_j.  Since W q(y) is an
integer, q(y) <= bound holds exactly when W q(y) <= floor(W bound); and an
integer t satisfies A t^2 <= R exactly when |t| <= isqrt(R // A).  So
every coordinate range is computed without fractions, floats or slack, and
no boundary vector with q(y) == bound is missed.

The enumeration visits one vector of each pair +-y, and yields whole
innermost ranges rather than vectors.  short_vectors maps each vector and
its negative back to basis coordinates and sorts them, so its list does
not depend on the reduction.  norm_counts, which the weight-0 Brandt
matrices, unit counts and theta series need, only adds 2 to the count of
the norm W q(y) / W of each vector, and builds no per-vector object.

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
from operator import add, floordiv, mul, neg

from ._linalg import bareiss, det, lll_gram, reduced_pair


class LatticeError(ValueError):
    pass


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
        self.gram = reduced_pair(*gram)
        rows = basis[1]
        if not rows or any(len(r) != len(rows) for r in rows) or not det(rows):
            raise LatticeError("basis must be square and of full rank")

    @cached_property
    def integer_gram(self):
        """(G, rows): the basis Gram is rows / G, with gcd(G, entries) = 1."""
        den, rows = self.basis
        gden, g = self.gram
        rg = [[sum(map(mul, r, col)) for col in g] for r in rows]  # g = g^T
        return reduced_pair(den * den * gden,
                            [[sum(map(mul, a, r)) for r in rows] for a in rg])

    @cached_property
    def reduction(self):
        """(U, R): the unimodular U of _linalg.lll_gram for the basis Gram
        M / G of integer_gram, and the reduced Gram R = U M U^T over the
        same G.  The reduced basis is U times the basis.

        Raises LatticeError when the form is not positive definite.
        """
        m = self.integer_gram[1]
        try:
            u = lll_gram(m)
        except ValueError:
            raise LatticeError("form is not positive definite") from None
        um = [[sum(map(mul, r, col)) for col in m] for r in u]   # M = M^T
        return u, [[sum(map(mul, a, r)) for r in u] for a in um]

    @cached_property
    def integer_ldl(self):
        """(W, [(A_i, L_i, [(j, b_ij / g_i) for j > i, b_ij != 0])]).

        The integer LDL decomposition of the module docstring, read off the
        rows of a forward _linalg.bareiss pass on the reduced Gram.
        """
        gden = self.integer_gram[0]
        a = [list(row) for row in self.reduction[1]]
        bareiss(a, floordiv)
        n = len(a)
        prev, levels = 1, []
        for i in range(n):
            piv = a[i][i]
            g = math.gcd(*a[i][i:])
            num, den = g * g, 2 * gden * prev * piv
            r = math.gcd(num, den)
            levels.append((num // r, den // r, piv // g,
                           [(j, a[i][j] // g) for j in range(i + 1, n)
                            if a[i][j]]))
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

        Both the ambient and the cached basis Gram are scaled, so the basis
        Gram is not recomputed; the basis is shared, and the reduction is
        made when the scaled lattice is first enumerated.
        """
        num, den = factor.numerator, factor.denominator

        def scaled(pair):
            return reduced_pair(pair[0] * den,
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


def _pair_rows(lattice, bound):
    """Fincke-Pohst on the reduced form up to q(y) <= bound, one vector of
    each pair +-y != 0.

    Yields (y, lo, base, ts) once per innermost range: the reduced
    coordinates y, of which y[0] is left 0, and the vectors with
    y_0 = lo, lo + 1, ..., whose t_0 = L_0 y_0 + c runs through the range
    ts, and W q = base + A_0 t_0^2.  y is one list, overwritten by the next
    row.  A vector is kept when its last nonzero coordinate is positive:
    while all coordinates above a level are 0, its offset c is 0 and its
    range, symmetric, starts at 0 (at 1 on level 0).
    """
    bound = Fraction(bound)
    if bound < 0:
        raise LatticeError("bound must be nonnegative")
    w, levels = lattice.integer_ldl
    top = bound.numerator * w // bound.denominator    # floor(W * bound)
    y = [0] * len(levels)

    def descend(i, rem):
        # rem = top - sum_{k>i} A_k t_k^2 >= 0
        a, den, row = levels[i]
        c = sum(cij * y[j] for j, cij in row)
        s = math.isqrt(rem // a)                # |t| <= s  <=>  A t^2 <= rem
        hi = (s - c) // den
        if not any(y):                          # c = 0, so lo = -hi
            lo = 0 if i else 1
        else:
            lo = -((s + c) // den)
        if not i:
            yield y, lo, top - rem, range(den * lo + c, den * hi + c + 1, den)
            return
        for x in range(lo, hi + 1):
            y[i] = x
            t = den * x + c
            yield from descend(i - 1, rem - a * t * t)
        y[i] = 0

    return descend(len(levels) - 1, top)


def short_vectors(lattice, bound, include_zero=False):
    """All lattice vectors with 0 < q(x) <= bound (exact, both signs).

    Returns a list of (coords, norm) with coords in lattice coordinates,
    sorted lexicographically.  With include_zero the zero vector is prepended.
    """
    rows = _pair_rows(lattice, bound)
    w, levels = lattice.integer_ldl
    a = levels[0][0]
    u = lattice.reduction[0]
    cols = list(zip(*u))
    found = []
    for y, lo, base, ts in rows:
        v = tuple(sum(map(mul, y, col)) + lo * e for col, e in zip(cols, u[0]))
        for t in ts:
            m = base + a * t * t
            found.append((v, m))
            found.append((tuple(map(neg, v)), m))
            v = tuple(map(add, v, u[0]))
    found.sort()
    norms = {m: Fraction(m, w) for m in {m for _, m in found}}
    result = [(list(v), norms[m]) for v, m in found]
    if include_zero:
        result.insert(0, ([0] * len(levels), Fraction(0)))
    return result


def norm_counts(lattice, bound):
    """[#{x : q(x) = n} for n in 0..floor(bound)], the zero vector counted
    at n = 0.  Each pair +-x is visited once and counted twice, and no
    vector is built: only W q(x) of each is computed."""
    rows = _pair_rows(lattice, bound)
    w, levels = lattice.integer_ldl
    a = levels[0][0]
    counts = [1] + [0] * math.floor(bound)
    for _, _, base, ts in rows:
        for t in ts:
            n, r = divmod(base + a * t * t, w)
            if not r:
                counts[n] += 2
    return counts


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
    if weight is None:
        return dict(enumerate(norm_counts(lattice, prec)))
    sums = dict.fromkeys(range(int(math.floor(prec)) + 1), 0)
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
