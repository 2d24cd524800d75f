"""Exact linear algebra on lists of rows: elimination, HNF, lattices, char polys.

Matrices are plain lists of lists; rows are vectors.  All elimination is one
fraction-free routine, bareiss, over an integral domain whose exact division
the caller passes: // in Z for det, for rref over Q (each row cleared of its
denominators first), hence inverse, and for lattice.IntLattice.integer_ldl;
and a * b^-1 mod p in F_p for the kernels mod p of orders.py and _factor.py.
No elimination runs over a number field: brandt reads a Hecke eigenvector
off Krylov vectors over Q.  nullspace reads rref, and charpoly det: it is
the characteristic polynomial interpolated from n + 1 integer determinants.
A rational lattice is one pair (den, rows): integer rows in HNF over one
denominator (hnf_lattice), so products, membership and indices of lattices
stay in integers.  hnf and lll_gram are algorithms of their own.
Everything here is deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial
from math import gcd, lcm
from operator import floordiv, mul


def frac_mat(rows):
    return [[Fraction(x) for x in row] for row in rows]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    bt = list(zip(*b))
    return [[sum(a[i][t] * bt[j][t] for t in range(k)) for j in range(m)]
            for i in range(n)]


def mat_vec(a, v):
    """a v over the nonzero entries of each row of a, so a sparse integer
    matrix costs its nonzero entries; a zero row gives v's own zero."""
    return [sum((x * y for x, y in zip(row, v) if x), 0 * v[0]) for row in a]


def vec_mat(v, a):
    return [sum(v[i] * a[i][j] for i in range(len(v))) for j in range(len(a[0]))]


def transpose(a):
    return [list(row) for row in zip(*a)]


def bareiss(m, div, full=False):
    """Fraction-free (Bareiss) echelon form of the rows m, in place.

    The entries lie in an integral domain, Z or F_p in this package, whose
    exact division is div(a, b) = a / b.  Step r takes the first column c
    with a nonzero entry in rows r.., swaps that row up as the pivot row, and
    replaces each row x below it (each other row when full) by
    (p x - x_c top) / last, for the new pivot p and the previous one, last
    (1 at the start).  Every entry stays a minor of the input (Bareiss,
    Math. Comp. 22, 1968), so every division is exact.  Row r ends as the
    pivot row of step r and the rows past the rank as zero; full makes the
    pivot rows last times the reduced row echelon form.  Returns (pivot
    columns, sign of the row permutation, last pivot).
    """
    rows = len(m)
    pivots, sign, last = [], 1, 1
    for c in range(len(m[0]) if rows else 0):
        r = len(pivots)
        pr = next((i for i in range(r, rows) if m[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            sign = -sign
        top = m[r]
        pk = top[c]
        for i in range(0 if full else r + 1, rows):
            f = m[i][c]
            if i == r:
                continue
            if f:
                m[i] = [div(pk * x - f * y, last) for x, y in zip(m[i], top)]
            elif pk != last:
                m[i] = [div(pk * x, last) for x in m[i]]
        pivots.append(c)
        last = pk
    return pivots, sign, last


def rref(mat, p=None):
    """Reduced row echelon form; returns (new_matrix, pivot_columns).

    Over F_p when p is given: entries are ints reduced to 0..p-1.  Over Q
    otherwise, for entries that are ints and Fractions: each row is cleared
    of its denominators, and the entries come out as Fractions.  Each pivot
    row is divided by its pivot once, after a full bareiss pass in integers
    or in F_p.
    """
    if p is not None:
        m = [[x % p for x in row] for row in mat]
        inv = cache(partial(pow, exp=-1, mod=p))
        div = scale = lambda a, b: a * inv(b) % p
    else:
        m = []
        for row in mat:
            d = lcm(*(x.denominator for x in row))
            m.append([x.numerator * (d // x.denominator) for x in row])
        div, scale = floordiv, Fraction
    pivots = bareiss(m, div, full=True)[0]
    for r, row in enumerate(m):
        pv = row[pivots[r]] if r < len(pivots) else 1
        m[r] = [scale(x, pv) for x in row]
    return m, pivots


def inverse(mat):
    """Inverse of a square matrix of ints and Fractions, as Fractions: the
    right block of rref([A | I])."""
    n = len(mat)
    red, piv = rref([list(row) + [int(i == j) for j in range(n)]
                     for i, row in enumerate(mat)])
    if piv != list(range(n)):
        raise ValueError("matrix not invertible")
    return [row[n:] for row in red]


def nullspace(mat, p=None):
    """Basis of {x : mat * x = 0}, canonical rref-based form.

    Over Q by default, over F_p when p is given (see rref).
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    red, piv = rref(mat, p)
    free = [c for c in range(cols) if c not in piv]
    basis = []
    zero, one = (Fraction(0), Fraction(1)) if p is None else (0, 1)
    for fc in free:
        v = [zero] * cols
        v[fc] = one
        for r, pc in enumerate(piv):
            v[pc] = -red[r][fc] if p is None else -red[r][fc] % p
        basis.append(v)
    return basis


def charpoly(mat):
    """det(xI - M) for a square M of ints and Fractions, as Fraction
    coefficients high to low, from integer determinants.

    For D the common denominator of M, P(t) = det(tI - DM) lies in Z[t].
    det gives P at t = 0..n; divided differences, each // k exact, turn the
    values into the coefficients of P in the Newton basis t(t-1)...(t-k+1),
    and Horner in that basis gives P.  The coefficient of x^(n-k) in
    det(xI - M) is P's over D^k.
    """
    n = len(mat)
    d = lcm(*(x.denominator for row in mat for x in row))
    newton = [det([[t * (i == j) - int(x * d) for j, x in enumerate(row)]
                   for i, row in enumerate(mat)]) for t in range(n + 1)]
    for k in range(1, n + 1):
        for i in range(n, k - 1, -1):
            newton[i] = (newton[i] - newton[i - 1]) // k
    poly = [newton[n]]
    for k in range(n - 1, -1, -1):
        # poly * (t - k) + newton[k]
        poly = [a - k * b for a, b in zip(poly + [0], [0] + poly)]
        poly[-1] += newton[k]
    return [Fraction(c, d ** k) for k, c in enumerate(poly)]


# ---------------------------------------------------------------------------
# Integer matrices, HNF and lattices
# ---------------------------------------------------------------------------

def hnf(mat):
    """Row-style Hermite normal form of an integer matrix.

    Returns the full-row-rank part: basis rows in echelon form with positive
    pivots and entries above each pivot reduced mod the pivot.  Unique, hence
    usable as a canonical lattice key.
    """
    m = [list(map(int, row)) for row in mat if any(row)]
    if not m:
        return []
    rows, cols = len(m), len(m[0])
    r = 0
    for c in range(cols):
        # find/make a pivot at (r, c) by gcd row combinations
        pr = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        for i in range(r + 1, rows):
            while m[i][c] != 0:
                q = m[r][c] // m[i][c]
                m[r] = [m[r][j] - q * m[i][j] for j in range(cols)]
                m[r], m[i] = m[i], m[r]
        if m[r][c] < 0:
            m[r] = [-x for x in m[r]]
        for i in range(r):
            q = m[i][c] // m[r][c]
            if q:
                m[i] = [m[i][j] - q * m[r][j] for j in range(cols)]
        r += 1
        if r == rows:
            break
    return [row for row in m[:r] if any(row)]


def reduced_pair(den, rows):
    """The pair (den, rows) divided by the gcd of den and every entry, with
    rows as a tuple of tuples."""
    g = gcd(den, *(x for row in rows for x in row))
    return den // g, tuple(tuple(x // g for x in row) for row in rows)


def hnf_lattice(den, rows):
    """The canonical (den, rows) of the lattice spanned by integer rows / den.

    rows come out in HNF as a tuple of tuples and den > 0 is divided down
    until gcd(den, every entry) = 1, so one lattice has one hashable pair.
    An HNF times a positive integer is again an HNF, so reduced_pair alone
    makes the canonical pair of c * H / den for H already in HNF.
    """
    return reduced_pair(den, hnf(rows))


def det(mat):
    """Determinant of a square integer matrix: the sign times the last pivot
    of a forward bareiss pass, or 0 when the rank is short."""
    pivots, sign, last = bareiss([list(row) for row in mat], floordiv)
    return sign * last if len(pivots) == len(mat) else 0


def hnf_solve(rows, v):
    """Integer c with c * rows = v for a square HNF rows, or None if the
    solution is not integral: back-substitution down the diagonal."""
    c = []
    for j, row in enumerate(rows):
        t, r = divmod(v[j] - sum(ci * rows[i][j] for i, ci in enumerate(c)),
                      row[j])
        if r:
            return None
        c.append(t)
    return c


def lll_gram(gram):
    """Unimodular U, as integer rows, with U gram U^T LLL-reduced (3/4).

    Cohen's integral LLL (GTM 138, Alg. 2.6.7) on a positive definite
    integer Gram matrix alone: d[k + 1] is the k-th leading principal minor
    of the current basis Gram and lam[k][j] = d[j + 1] mu_kj, so every
    step divides exactly.  A row k > kmax is still the k-th unit row, which
    gives its products with the reduced rows from gram and U.
    """
    n = len(gram)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]

    def reduce(k, l):
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])   # round(mu_kl)
            u[k] = [x - q * y for x, y in zip(u[k], u[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    if n:
        d[1] = gram[0][0]
        if d[1] <= 0:
            raise ValueError("Gram matrix not positive definite")
    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            for j in range(k + 1):
                x = sum(map(mul, gram[k], u[j]))
                for i in range(j):
                    x = (d[i + 1] * x - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = x
                elif x <= 0:
                    raise ValueError("Gram matrix not positive definite")
                else:
                    d[k + 1] = x
        reduce(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2:
            u[k], u[k - 1] = u[k - 1], u[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            m = lam[k][k - 1]
            b = (d[k - 1] * d[k + 1] + m * m) // d[k]
            for i in range(k + 1, kmax + 1):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * t) // d[k]
                lam[i][k - 1] = (b * t + m * lam[i][k]) // d[k + 1]
            d[k] = b
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
    return u


def content(values):
    """gcd of numerators / lcm of denominators of a family of rationals."""
    values = [Fraction(v) for v in values]
    return Fraction(gcd(*(v.numerator for v in values)),
                    lcm(*(v.denominator for v in values)))
