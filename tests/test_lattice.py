import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quatperiods import _linalg
from quatperiods._linalg import (content, hnf, hnf_lattice, inverse,
                                 mat_mul, nullspace, charpoly, reduced_pair,
                                 rref, transpose)
from quatperiods.harmonics import split_iso
from quatperiods.lattice import (IntLattice, LatticeError, norm_counts,
                                 short_vectors, theta_coeffs)
from quatperiods.orders import class_set_for, times_conj
from quatperiods.quatalg import algebra_for_discriminant
from quatperiods._poly import Poly


# -- Fraction oracles for the integer lattice core ---------------------------

def det(mat):
    """Determinant by Gaussian elimination over Fraction."""
    n = len(mat)
    m = [list(map(Fraction, row)) for row in mat]
    d = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            d = -d
        d *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return d


def integer_rows(rows):
    """(d, int_rows): rational rows as integer rows over their least common
    denominator d, so rows == int_rows / d."""
    d = math.lcm(*(Fraction(x).denominator for row in rows for x in row))
    return d, [[int(Fraction(x) * d) for x in row] for row in rows]


def hnf_rational(rows):
    """Canonical HNF basis of the lattice spanned by rational rows, in
    Fractions: the HNF over the least common denominator."""
    d, int_rows = integer_rows(rows)
    return [[Fraction(x, d) for x in row] for row in hnf(int_rows)]


def lattice_index(big, small):
    """Index [big : small] for small <= big, as a ratio of determinants."""
    idx = abs(det(small) / det(big))
    if idx.denominator != 1:
        raise ValueError("not a sublattice")
    return idx.numerator


def pair(rows):
    """The canonical (den, rows) of the lattice spanned by rational rows."""
    return hnf_lattice(*integer_rows(rows))


def fractions(basis):
    """The rational rows rows / den of a pair (den, rows)."""
    den, rows = basis
    return [[Fraction(x, den) for x in row] for row in rows]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def basis_gram(lattice):
    """Oracle for IntLattice.integer_gram: the Gram of B on the lattice
    basis, rows * gram * rows^T / D^2, in Fractions."""
    den, rows = lattice.basis
    g = mat_mul(mat_mul(rows, fractions(lattice.gram)), transpose(rows))
    return [[x / (den * den) for x in row] for row in g]


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


def reduced_gram(lattice):
    """The Fraction Gram of the reduced basis: U basis_gram U^T for the U
    of lattice.reduction."""
    u = lattice.reduction[0]
    return mat_mul(mat_mul(u, basis_gram(lattice)), transpose(u))


def integer_ldl(lattice):
    """Oracle for IntLattice.integer_ldl: the Fraction LDL of the reduced
    Gram scaled to integers (per-row denominators L_i, one common W)."""
    g = reduced_gram(lattice)
    d, u = _ldl([[x / 2 for x in row] for row in g])
    dens = [math.lcm(*(x.denominator for x in row)) for row in u]
    w = math.lcm(*((di / (den * den)).denominator
                   for di, den in zip(d, dens)))
    return w, [(int(di * w / (den * den)), den,
                [(j, int(x * den)) for j, x in enumerate(row) if x])
               for di, den, row in zip(d, dens, u)]


def lattice_content(lattice):
    """Oracle for IntLattice.content: the gcd of the q(b_i) and B(b_i, b_j)
    read off the Fraction basis Gram."""
    g = basis_gram(lattice)
    vals = [g[i][i] / 2 for i in range(len(g))]
    vals += [g[i][j] for i in range(len(g)) for j in range(i)]
    return content(vals)


def z4():
    return IntLattice((1, identity(4)), (1, [[2 if i == j else 0
                                              for j in range(4)]
                                             for i in range(4)]))


def hurwitz_lattice():
    basis = [[1] * 4, [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]
    gram = [[2 if i == j else 0 for j in range(4)] for i in range(4)]
    return IntLattice((2, basis), (1, gram))


def d4_lattice():
    basis = [[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1], [0, 0, 1, 1]]
    gram = [[2 if i == j else 0 for j in range(4)] for i in range(4)]
    return IntLattice((1, basis), (1, gram))


def transformed(lat, u):
    """The lattice of lat with its basis rows changed by the matrix u."""
    den, rows = lat.basis
    return IntLattice((den, mat_mul(u, rows)), lat.gram)


def random_unimodular(rng, n=4, steps=12):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return m


# -- linalg basics -----------------------------------------------------------

def test_hnf_is_canonical_and_idempotent():
    m = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    h = hnf(m)
    assert hnf(h) == h
    assert det(h) != 0


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-4, 4), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_bareiss_det_matches_fraction_oracle(mat):
    assert _linalg.det(mat) == det(mat)


def test_det_of_singular_and_row_swapped_matrices():
    assert _linalg.det([[0, 1], [1, 0]]) == -1
    assert _linalg.det([[0, 2, 1], [0, 1, 5], [3, 0, 0]]) == 27
    assert _linalg.det([[1, 2, 3], [2, 4, 6], [0, 0, 1]]) == 0
    assert _linalg.det([[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0],
                        [0, 0, 0, 7]]) == 0


def test_scaled_hnf_is_its_own_hnf():
    # connecting_lattice scales an HNF pair by a positive integer and skips
    # the HNF: only the gcd is left to divide out
    rng = random.Random(3)
    for _ in range(40):
        m = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(6)]
        den, rows = hnf_lattice(rng.randint(1, 12), m)
        c, s = rng.randint(1, 6), rng.randint(1, 6)
        scaled = [[x * c for x in row] for row in rows]
        assert reduced_pair(den * s, scaled) == hnf_lattice(den * s, scaled)


def test_nullspace_and_charpoly():
    m = [[1, 2], [2, 4]]
    ns = nullspace(m)
    assert len(ns) == 1
    cp = charpoly([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]])
    # x^2 - 4x + 3
    assert cp == [Fraction(1), Fraction(-4), Fraction(3)]
    assert charpoly([]) == [1]


def faddeev_leverrier(mat):
    """Oracle for _linalg.charpoly: det(xI - M), coefficients high to low,
    by Faddeev-LeVerrier in Fractions: c_k = -tr(M_k) / k for M_1 = M and
    M_(k+1) = M (M_k + c_k I)."""
    n = len(mat)
    coeffs = [Fraction(1)]
    mk = [list(map(Fraction, row)) for row in mat]
    for k in range(1, n + 1):
        if k > 1:
            for i in range(n):
                mk[i][i] += coeffs[-1]
            mk = mat_mul(mat, mk)
        coeffs.append(-Fraction(sum(mk[i][i] for i in range(n)), k))
    return coeffs


@st.composite
def charpoly_inputs(draw):
    """A rational n x n matrix, n <= 8: dense with denominators, scalar, or
    nilpotent (strictly upper triangular, conjugated by a permutation)."""
    n = draw(st.integers(0, 8))
    entry = st.one_of(st.integers(-9, 9),
                      st.fractions(-20, 20, max_denominator=12))
    kind = draw(st.sampled_from(["dense", "scalar", "nilpotent"]))
    if kind == "scalar":
        c = draw(entry)
        return [[c * (i == j) for j in range(n)] for i in range(n)]
    mat = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if kind == "dense":
        return mat
    perm = draw(st.permutations(range(n)))
    return [[mat[perm[i]][perm[j]] if perm[i] < perm[j] else 0
             for j in range(n)] for i in range(n)]


@settings(max_examples=100, deadline=None)
@given(charpoly_inputs())
def test_charpoly_matches_faddeev_leverrier(mat):
    cp = charpoly(mat)
    assert cp == faddeev_leverrier(mat)
    assert all(type(c) is Fraction for c in cp)


def reference_rref(mat, p=None):
    """Oracle for _linalg.rref, apart from its elimination core: Gauss-Jordan
    that divides each pivot row by its pivot, over Q in Fractions (other
    exact field elements kept as they are) or over F_p in ints 0..p-1."""
    if p is None:
        m = [[Fraction(x) if isinstance(x, int) else x for x in row]
             for row in mat]
    else:
        m = [[x % p for x in row] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        if p is None:
            m[r] = [x / pv for x in m[r]]
        else:
            inv = pow(pv, -1, p)
            m[r] = [x * inv % p for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [m[i][j] - f * m[r][j] for j in range(cols)]
                if p is not None:
                    m[i] = [x % p for x in m[i]]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def fraction_inverse(mat):
    """Oracle for _linalg.inverse: reference_rref of [A | I] in Fractions."""
    n = len(mat)
    aug = [[Fraction(x) for x in mat[i]] + identity(n)[i] for i in range(n)]
    red, piv = reference_rref(aug)
    if piv[:n] != list(range(n)):
        raise ValueError("matrix not invertible")
    return [row[n:] for row in red]


def typed(x):
    """x with each entry of its nested lists paired with its type, so that
    == compares the types too."""
    if isinstance(x, (list, tuple)):
        return [typed(y) for y in x]
    return type(x), x


def assert_same(got, expected):
    assert typed(got) == typed(expected)


def assert_matches_reference(fn, *args):
    """fn(*args) equals what it returns with _linalg.rref replaced by
    reference_rref, in values and in types, or raises the same
    ValueError."""
    with mock.patch.object(_linalg, "rref", reference_rref):
        try:
            expected = fn(*args)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{exc}$"):
                fn(*args)
            return None
    got = fn(*args)
    assert_same(got, expected)
    return got


Q_ENTRIES = st.one_of(st.integers(-3, 3),
                      st.fractions(-5, 5, max_denominator=6))


@st.composite
def echelon_inputs(draw, entries, max_rows=5, max_cols=6):
    """A matrix whose rows past a random rank are random combinations of
    the rows before it, so that it is often rank-deficient, and often
    wide."""
    rows, cols = draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols))
    base = [draw(st.lists(entries, min_size=cols, max_size=cols))
            for _ in range(draw(st.integers(1, rows)))]
    mat = list(base)
    while len(mat) < rows:
        coeffs = draw(st.lists(entries, min_size=len(base),
                               max_size=len(base)))
        mat.append([sum(c * row[j] for c, row in zip(coeffs, base))
                    for j in range(cols)])
    return draw(st.permutations(mat))


def check_rref_nullspace(mat, p=None):
    """rref and nullspace against reference_rref; returns the rref."""
    red = rref(mat, p)
    assert_same(red, reference_rref(mat, p))
    kernel = assert_matches_reference(nullspace, mat, p)
    for v in kernel:
        for row in mat:
            total = sum(a * x for a, x in zip(row, v))
            assert (total % p if p else total) == 0
    return red[0]


@settings(max_examples=150, deadline=None)
@given(echelon_inputs(Q_ENTRIES))
def test_rref_and_nullspace_over_q_match_the_reference(mat):
    red = check_rref_nullspace(mat)
    assert all(type(x) is Fraction for row in red for x in row)


@settings(max_examples=150, deadline=None)
@given(echelon_inputs(st.integers(-9, 9)), st.sampled_from([2, 3, 5, 7]))
def test_rref_and_nullspace_over_f_p_match_the_reference(mat, p):
    red = check_rref_nullspace(mat, p)
    assert all(type(x) is int and 0 <= x < p for row in red for x in row)


@st.composite
def rational_matrices(draw):
    n = draw(st.integers(1, 8))
    entry = st.one_of(st.integers(-3, 3),
                      st.fractions(-20, 20, max_denominator=12))
    return [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
def test_inverse_matches_fraction_oracle(mat):
    try:
        expected = fraction_inverse(mat)
    except ValueError:
        with pytest.raises(ValueError, match="matrix not invertible"):
            inverse(mat)
        return
    got = inverse(mat)
    assert got == expected
    assert all(type(x) is Fraction for row in got for x in row)
    assert mat_mul(mat, got) == identity(len(mat))


@pytest.mark.parametrize("disc", [3, 11])
def test_inverse_of_the_split_isomorphism_matches_fraction_oracle(disc):
    split = split_iso(algebra_for_discriminant(disc), 2)
    assert len(split.phi_matrix) == 25
    assert split.phi_inv == fraction_inverse(split.phi_matrix)


def test_inverse_rejects_singular_matrices():
    for mat in ([[1, 2], [2, 4]], [[0, 0], [0, 1]],
                [[Fraction(1, 2), 1, 0], [1, 2, 0], [0, 0, 3]]):
        with pytest.raises(ValueError, match="^matrix not invertible$"):
            inverse(mat)


def int_kernel(mat):
    """Z-basis of {x integer row vector : x * mat = 0}.

    The rows of hnf([mat | I]) that vanish on the mat block span the kernel
    in their I block.  The HNF is canonical, and so is this basis.
    """
    cols = len(mat[0]) if mat else 0
    aug = [list(row) + [int(i == j) for j in range(len(mat))]
           for i, row in enumerate(mat)]
    return [row[cols:] for row in hnf(aug) if not any(row[:cols])]


def lattice_intersection(basis_a, basis_b):
    """Basis of the intersection of two full lattices given by rational rows."""
    d, rows = integer_rows(basis_a + basis_b)
    a, b = rows[:len(basis_a)], rows[len(basis_a):]
    stacked = a + [[-x for x in row] for row in b]
    out = [[Fraction(sum(k[i] * a[i][j] for i in range(len(a))), d)
            for j in range(len(a[0]))] for k in int_kernel(stacked)]
    return hnf_rational(out)


def test_lattice_intersection():
    a = [[2, 0], [0, 1]]
    b = [[1, 0], [0, 3]]
    inter = lattice_intersection(a, b)
    assert inter == [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]]


def small_int_matrices(max_rows, max_cols):
    return st.integers(1, max_cols).flatmap(lambda cols: st.lists(
        st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
        min_size=1, max_size=max_rows))


@settings(max_examples=150, deadline=None)
@given(small_int_matrices(4, 4), st.sampled_from([2, 3, 5, 7]))
def test_nullspace_mod_p_is_the_whole_kernel(mat, p):
    cols = len(mat[0])
    ker = nullspace(mat, p)
    for v in ker:
        assert all(sum(a * x for a, x in zip(row, v)) % p == 0
                   for row in mat)
    assert len(ker) == cols - len(rref(mat, p)[1])
    # brute force over F_p^cols: the kernel has exactly p^len(ker) vectors
    count = sum(all(sum(a * x for a, x in zip(row, v)) % p == 0
                    for row in mat)
                for v in itertools.product(range(p), repeat=cols))
    assert count == p ** len(ker)


def reference_int_kernel(mat):
    """Kernel of x -> x * mat from an HNF that carries its transform U."""
    m = [list(map(int, row)) for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        u[r], u[pr] = u[pr], u[r]
        for i in range(r + 1, rows):
            while m[i][c] != 0:
                q = m[r][c] // m[i][c]
                m[r] = [m[r][j] - q * m[i][j] for j in range(cols)]
                u[r] = [u[r][j] - q * u[i][j] for j in range(rows)]
                m[r], m[i] = m[i], m[r]
                u[r], u[i] = u[i], u[r]
        if m[r][c] < 0:
            m[r] = [-x for x in m[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = m[i][c] // m[r][c]
            if q:
                m[i] = [m[i][j] - q * m[r][j] for j in range(cols)]
                u[i] = [u[i][j] - q * u[r][j] for j in range(rows)]
        r += 1
        if r == rows:
            break
    ker = [u[i] for i in range(len(m)) if not any(m[i])]
    return hnf(ker) if ker else []


@settings(max_examples=150, deadline=None)
@given(small_int_matrices(6, 4))
def test_int_kernel_matches_transform_oracle(mat):
    assert int_kernel(mat) == reference_int_kernel(mat)


# -- canonical basis: the (den, rows) pair of hnf_lattice --------------------

def canonical_basis(lattice):
    return IntLattice(hnf_lattice(*lattice.basis), lattice.gram)


def test_canonical_basis_identity_fixed():
    lat = z4()
    can = canonical_basis(lat)
    assert can.basis == (1, tuple(map(tuple, identity(4))))
    assert canonical_basis(can).basis == can.basis
    # a common factor of den and the rows is divided out
    assert hnf_lattice(6, [[3 * x for x in row] for row in identity(4)]) == \
        (2, tuple(map(tuple, identity(4))))


def test_canonical_basis_unimodular_invariance():
    rng = random.Random(7)
    for lat in (d4_lattice(), hurwitz_lattice()):
        can0 = canonical_basis(lat).basis
        assert fractions(can0) == hnf_rational(fractions(lat.basis))
        for _ in range(5):
            u = random_unimodular(rng)
            assert canonical_basis(transformed(lat, u)).basis == can0


def test_canonical_basis_d4_vector_sets_agree():
    # oracle: both bases generate identical vector sets up to norm 4,
    # by exhaustive ambient box search
    rng = random.Random(11)
    lat = d4_lattice()
    can = canonical_basis(transformed(lat, random_unimodular(rng)))

    def ambient_set(lattice, bound):
        out = set()
        for v, q in short_vectors(lattice, bound):
            out.add(tuple(lattice.ambient(v)))
        return out

    box = set()
    for x in itertools.product(range(-2, 3), repeat=4):
        if x == (0, 0, 0, 0):
            continue
        if sum(t * t for t in x) <= 4 and sum(x) % 2 == 0:
            box.add(tuple(map(Fraction, x)))
    assert ambient_set(lat, 4) == box
    assert ambient_set(can, 4) == box


def test_rank_deficient_rejected():
    with pytest.raises(LatticeError):
        IntLattice((1, [[1, 0], [2, 0]]), (1, [[2, 0], [0, 2]]))


@pytest.mark.parametrize("rows", [
    # rank 3: the third row is the sum of the first two
    [[1, 0, 2, 0], [0, 3, 1, 1], [1, 3, 3, 1], [0, 0, 0, 5]],
    # non-square
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]],
])
def test_singular_or_non_square_4d_basis_rejected(rows):
    gram = (1, [[2 if i == j else 0 for j in range(4)] for i in range(4)])
    with pytest.raises(LatticeError, match="square and of full rank"):
        IntLattice((1, rows), gram)


# -- short vectors -----------------------------------------------------------

def test_z4_unit_vectors():
    vecs = short_vectors(z4(), 1)
    assert len(vecs) == 8
    assert all(q == 1 for _, q in vecs)


def test_z4_bound_two_counts():
    vecs = short_vectors(z4(), 2)
    assert len(vecs) == 32
    assert sum(1 for _, q in vecs if q == 1) == 8
    assert sum(1 for _, q in vecs if q == 2) == 24


def test_hurwitz_units():
    lat = hurwitz_lattice()
    vecs = short_vectors(lat, 1)
    assert len(vecs) == 24
    assert all(q == 1 for _, q in vecs)
    # oracle: brute-force box search over half-integer ambient coordinates
    count = 0
    for c in itertools.product(range(-2, 3), repeat=4):
        amb = [Fraction(t, 2) for t in c]
        if all(a == 0 for a in amb):
            continue
        ints = all(a.denominator == 1 for a in amb)
        halves = all(a.denominator == 2 for a in amb)
        if (ints or halves) and sum(a * a for a in amb) == 1:
            count += 1
    assert count == 24


def test_short_vectors_prefix_monotone():
    lat = d4_lattice()
    small = {(tuple(v), q) for v, q in short_vectors(lat, 3)}
    big = {(tuple(v), q) for v, q in short_vectors(lat, 6)}
    assert small <= big
    assert len(small) < len(big)


def test_short_vectors_deterministic_order():
    lat = z4()
    vecs = short_vectors(lat, 2)
    assert vecs == sorted(vecs, key=lambda t: t[0])


def test_short_vectors_unimodular_norm_multiset():
    rng = random.Random(3)
    lat = d4_lattice()
    other = transformed(lat, random_unimodular(rng))
    norms0 = sorted(q for _, q in short_vectors(lat, 8))
    norms1 = sorted(q for _, q in short_vectors(other, 8))
    assert norms0 == norms1


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


def fraction_short_vectors(lattice, bound, include_zero=False):
    """Oracle for short_vectors: Fincke-Pohst with every step in Fractions."""
    bound = Fraction(bound)
    g = basis_gram(lattice)
    n = len(g)
    d, u = _ldl([[g[i][j] / 2 for j in range(n)] for i in range(n)])
    out = []
    coords = [0] * n

    def descend(i, remaining):
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
                    out.append((vec, bound - (remaining - used)))
            else:
                descend(i - 1, remaining - used)
        coords[i] = 0

    if n:
        descend(n - 1, bound)
    out.sort(key=lambda t: t[0])
    result = [(list(v), q) for v, q in out]
    if include_zero:
        result.insert(0, ([0] * n, Fraction(0)))
    return result


def small_fractions(lo, hi):
    return st.builds(Fraction, st.integers(lo, hi), st.integers(1, 4))


@st.composite
def lattices_and_bounds(draw):
    """A positive definite rational form q(x) = |L^T x|^2 on Z^4 and a bound.

    L is lower triangular with a positive diagonal.  Half of the bounds are
    q(v) of a small nonzero vector v, so some vector meets them exactly.
    """
    low = [[draw(small_fractions(2, 8)) if i == j
            else draw(small_fractions(-4, 4)) if j < i else Fraction(0)
            for j in range(4)] for i in range(4)]
    gram = [[2 * sum(low[i][k] * low[j][k] for k in range(4))
             for j in range(4)] for i in range(4)]
    lat = IntLattice((1, identity(4)), integer_rows(gram))
    if draw(st.booleans()):
        v = draw(st.lists(st.integers(-1, 1), min_size=4, max_size=4)
                 .filter(any))
        g = basis_gram(lat)
        q = sum(v[i] * g[i][j] * v[j] for i in range(4)
                for j in range(4)) / 2
        assume(q <= 5)
        return lat, q, v
    return lat, draw(st.fractions(0, 5, max_denominator=6)), None


@settings(max_examples=80, deadline=None)
@given(lattices_and_bounds())
def test_short_vectors_match_fraction_oracle(case):
    lat, bound, v = case
    vecs = short_vectors(lat, bound)
    assert vecs == fraction_short_vectors(lat, bound)
    assert short_vectors(lat, bound, include_zero=True) == \
        fraction_short_vectors(lat, bound, include_zero=True)
    if v is not None:
        assert (v, bound) in vecs


def test_non_positive_definite_rejected():
    # the reduction checks the first leading minor and each later one
    for gram in ([[2, 0], [0, -2]], [[-2, 0], [0, 2]], [[2, 3], [3, 2]]):
        lat = IntLattice((1, identity(2)), (1, gram))
        with pytest.raises(LatticeError):
            short_vectors(lat, 2)
        with pytest.raises(LatticeError):
            norm_counts(lat, 2)


# -- the integer setup against its Fraction oracles --------------------------

def check_reduction(lat):
    """lat.reduction: U is an integer matrix of determinant +-1, the cached
    reduced Gram is U M U^T for the integer basis Gram M, and the reduced
    basis is LLL-reduced: |mu_ij| <= 1/2 and the Lovasz condition with
    3/4, read off the Fraction LDL of the reduced Gram."""
    u, r = lat.reduction
    assert all(type(x) is int for row in u for x in row)
    assert abs(det(u)) == 1
    assert r == mat_mul(mat_mul(u, lat.integer_gram[1]), transpose(u))
    d, mu = _ldl(reduced_gram(lat))
    assert all(abs(x) <= Fraction(1, 2) for row in mu for x in row)
    assert all(d[k] >= (Fraction(3, 4) - mu[k - 1][k] ** 2) * d[k - 1]
               for k in range(1, len(d)))


def check_integer_setup(lat, bound):
    """lat's integer basis Gram, reduction, LDL, content, short vectors and
    norm counts against the Fraction oracles, which read only lat.basis,
    lat.gram and the U of lat.reduction."""
    den, rows = integer_rows(basis_gram(lat))
    assert lat.integer_gram == (den, tuple(map(tuple, rows)))
    check_reduction(lat)
    assert lat.integer_ldl == integer_ldl(lat)
    assert lat.content() == lattice_content(lat)
    vecs = fraction_short_vectors(lat, bound)
    assert short_vectors(lat, bound) == vecs
    want = Counter(int(q) for _, q in vecs if q.denominator == 1)
    assert norm_counts(lat, bound) == \
        [1] + [want[n] for n in range(1, math.floor(bound) + 1)]


@settings(max_examples=60, deadline=None)
@given(lattices_and_bounds())
def test_reduction_and_norm_counts_match_fraction_oracles(case):
    # half of the bounds are met exactly by some vector, which must count
    lat, bound, v = case
    check_integer_setup(lat, bound)
    if v is not None and bound.denominator == 1:
        assert norm_counts(lat, bound)[-1] >= 2


@st.composite
def based_lattices(draw):
    """A form of lattices_and_bounds on the basis (D, D I + U) with D > 1
    and U strictly upper triangular, so that the basis Gram carries D^2,
    with a bound and a positive rescaling factor."""
    lat, bound, _ = draw(lattices_and_bounds())
    den = draw(st.integers(2, 4))
    rows = [[den if i == j else draw(st.integers(-3, 3)) if j > i else 0
             for j in range(4)] for i in range(4)]
    factor = draw(st.fractions(Fraction(1, 6), 6, max_denominator=6))
    return IntLattice((den, rows), lat.gram), bound, factor


@settings(max_examples=40, deadline=None)
@given(based_lattices())
def test_integer_setup_and_rescaling_match_fraction_oracles(case):
    lat, bound, factor = case
    check_integer_setup(lat, bound)
    scaled = lat.rescaled(factor)
    assert scaled.basis == lat.basis
    assert fractions(scaled.gram) == [[x * factor for x in row]
                                      for row in fractions(lat.gram)]
    check_integer_setup(scaled, bound)


@pytest.mark.parametrize("n1, n2", [(11, 1), (2, 13), (13, 2), (7, 2)])
def test_connecting_lattices_match_fraction_oracles(n1, n2):
    # connecting_lattice and ClassSet.locate rescale a product lattice
    # whose integer Gram is already cached
    cs = class_set_for(n1, n2)
    alg = cs.order.algebra
    for i in range(cs.size):
        for j in range(cs.size):
            conn = cs.connecting(i, j)
            check_integer_setup(conn, 3)
            assert conn.content() == 1
            prod = times_conj(alg, cs.reps[i], cs.reps[j])
            check_integer_setup(prod, 2 * prod.content())
            check_integer_setup(prod.rescaled(1 / prod.content()), 2)


# -- theta coefficients ------------------------------------------------------

def test_theta_z4():
    assert theta_coeffs(z4(), 2) == {0: 1, 1: 8, 2: 24}


def test_theta_harmonic_weight_kills_zero():
    # x0^2 - x1^2 is harmonic for the standard form; coefficient at 0 must be 0
    w = Poly.monomial((2, 0, 0, 0)) - Poly.monomial((0, 2, 0, 0))
    coeffs = theta_coeffs(z4(), 2, weight=w)
    assert coeffs[0] == 0


def test_theta_weight_matches_vector_sum():
    # integer evaluation over the basis denominator 2 of the Hurwitz order,
    # with mixed degrees and with rational and number-field coefficients,
    # against Poly.eval at every vector (odd exponents would cancel)
    from quatperiods.brandt import NumberFieldElement
    lat = hurwitz_lattice()
    assert lat.basis[0] == 2
    root2 = NumberFieldElement.generator((Fraction(1), Fraction(0),
                                          Fraction(-2)))
    rational = Poly(4, {(4, 0, 0, 0): Fraction(3, 7), (0, 2, 2, 0): -1,
                        (2, 0, 0, 0): Fraction(5, 2)})
    for weight in (rational, rational * (root2 + Fraction(1, 3))):
        expect = {n: Fraction(0) for n in range(4)}
        for v, q in short_vectors(lat, 3, include_zero=True):
            expect[int(q)] += weight.eval(lat.ambient(v))
        assert theta_coeffs(lat, 3, weight=weight) == expect
        assert any(expect.values())


def test_theta_counts_match_short_vectors():
    lat = hurwitz_lattice()
    coeffs = theta_coeffs(lat, 3)
    vecs = short_vectors(lat, 3)
    for n in range(1, 4):
        assert coeffs[n] == sum(1 for _, q in vecs if q == n)
    assert coeffs[0] == 1
    assert all(isinstance(v, int) and v >= 0 for v in coeffs.values())
