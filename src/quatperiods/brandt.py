"""Brandt matrices, Atkin-Lehner involutions, eigenforms, theta lifts.

Conventions: T(p)_{ij} = (1/e_j) #{x in I_i conj(I_j) : q(x) = p} on the
primitively scaled connecting lattices.  This matrix is integral at weight 0,
has row sums p + 1 there, and is self-adjoint for the natural inner product
<phi, psi> = sum_i <<phi_i, psi_i>> / e_i.  Eigenvalues are exact: rational,
or in a real quadratic field stored with its minimal polynomial.

All T(p) for a tuple of primes are built in one pass (Pizer, J. Algebra 64,
1980): each connecting lattice is enumerated once up to the largest p and
its vectors are bucketed by norm.  At weight 0 only the pairs i <= j are
enumerated, by the conjugation symmetry: x -> conj(x) maps I_i conj(I_j)
onto I_j conj(I_i) and keeps norms, so e_j T_ij = e_i T_ji.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from ._linalg import charpoly, mat_mul, mat_vec, nullspace, rref
from ._poly import Poly
from .harmonics import (SplitIso, tau_action, tau_substitution,
                        trace_zero_space)
from .lattice import short_vectors, theta_coeffs
from .orders import (_square_part, norm_one_element, product_basis,
                     two_sided_prime_ideal)
from .quatalg import Quaternion, _is_prime, _prime_factors


class BrandtError(ValueError):
    pass


# ---------------------------------------------------------------------------
# exact quadratic numbers (for eigenvalues in real quadratic fields)
# ---------------------------------------------------------------------------

class QuadExt:
    """a + b sqrt(d) with rational a, b and squarefree integer d > 0."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.d = int(d)

    @classmethod
    def of(cls, x, d):
        if isinstance(x, QuadExt):
            return x
        return cls(x, 0, d)

    def __add__(self, other):
        other = QuadExt.of(other, self.d)
        return QuadExt(self.a + other.a, self.b + other.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-QuadExt.of(other, self.d))

    def __rsub__(self, other):
        return QuadExt.of(other, self.d) - self

    def __mul__(self, other):
        other = QuadExt.of(other, self.d)
        return QuadExt(self.a * other.a + self.d * self.b * other.b,
                       self.a * other.b + self.b * other.a, self.d)

    __rmul__ = __mul__

    def inverse(self):
        n = self.a * self.a - self.d * self.b * self.b
        if n == 0:
            raise ZeroDivisionError("zero quadratic number")
        return QuadExt(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        return self * QuadExt.of(other, self.d).inverse()

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def conjugate(self):
        return QuadExt(self.a, -self.b, self.d)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return (self.a, self.b, self.d) == (other.a, other.b, other.d)

    def __float__(self):
        return float(self.a) + float(self.b) * self.d ** 0.5

    def __repr__(self):
        if self.b == 0:
            return str(self.a)
        return f"({self.a}+{self.b}*sqrt({self.d}))"


# ---------------------------------------------------------------------------
# forms and operators
# ---------------------------------------------------------------------------

@dataclass
class QuatForm:
    """Function on the ideal classes with values in U_nu of the algebra."""
    class_set: object
    weight: int
    values: list          # Poly on the trace-zero space (constants at nu=0)
    label: str = ""
    eigenvalues: dict = None     # p -> eigenvalue (Fraction or QuadExt)
    al_signs: dict = None        # p -> +-1
    essential: bool = None

    def scalar_values(self):
        if self.weight != 0:
            raise BrandtError("scalar values only at weight 0")
        return [v.terms.get((0, 0, 0), Fraction(0)) for v in self.values]

    def scale(self, c):
        return QuatForm(self.class_set, self.weight,
                        [v * c for v in self.values], label=self.label,
                        eigenvalues=self.eigenvalues, al_signs=self.al_signs,
                        essential=self.essential)


def constant_form(class_set, value=1):
    return QuatForm(class_set, 0,
                    [Poly.const(3, value) for _ in range(class_set.size)],
                    label="constant")


def unit_average_form(class_set, nu, rng, span=5):
    """A valid weight-nu form: random values averaged over the unit groups.

    Values of a form must be invariant under tau of the left-order units;
    averaging enforces that (and can come out zero when the invariant
    subspace at this weight is trivial).
    """
    from .harmonics import random_harmonic
    alg = class_set.order.algebra
    sp = trace_zero_space(alg)
    values = []
    for i in range(class_set.size):
        raw = random_harmonic(sp, nu, rng, span)
        lat = class_set.left_orders[i].norm_lattice()
        acc = Poly.zero(3)
        for v, q in short_vectors(lat, 1):
            if q == 1:
                u = Quaternion(alg, *lat.ambient(v))
                acc = acc + tau_action(u, raw)
        values.append(acc * Fraction(1, class_set.unit_counts[i]))
    return QuatForm(class_set, nu, values, label="unit-averaged")


@dataclass
class BrandtOperator:
    """A Hecke operator T(p) or involution w_p on weight-nu forms."""
    class_set: object
    nu: int
    label: str            # "T2", "w11", ...
    matrix: list          # square over Q, size r * dim(U_nu)
    block_dim: int

    def apply(self, form):
        if form.class_set is not self.class_set or form.weight != self.nu:
            raise BrandtError("operator/form mismatch")
        vec = _form_to_vector(form, self.block_dim)
        out = mat_vec(self.matrix, vec)
        return _vector_to_form(self.class_set, self.nu, out, self.block_dim)


def _basis3(class_set, nu):
    return trace_zero_space(class_set.order.algebra).harmonic_basis(nu)


def _form_to_vector(form, block_dim):
    sp = trace_zero_space(form.class_set.order.algebra)
    out = []
    for v in form.values:
        out.extend(sp.coords_in_basis(v, form.weight))
    return out


def _vector_to_form(class_set, nu, vec, block_dim):
    basis = _basis3(class_set, nu)
    values = []
    for i in range(class_set.size):
        p = Poly.zero(3)
        for k, b in enumerate(basis):
            c = vec[i * block_dim + k]
            if c:
                p = p + b * c
        values.append(p)
    return QuatForm(class_set, nu, values)


def _tau_matrix_on_basis(space, basis, x, nu):
    """Matrix of tau(x) on the harmonic basis (columns = images)."""
    sub = tau_substitution(x)
    cols = [space.coords_in_basis(b.subs_linear(sub), nu) for b in basis]
    dim = len(basis)
    return [[cols[j][i] for j in range(dim)] for i in range(dim)]


@lru_cache(maxsize=None)
def brandt_matrix(class_set, p, nu=0):
    """The weight-nu Brandt operator T(p) for good p (p not dividing N)."""
    return brandt_matrices(class_set, (p,), nu)[0]


@lru_cache(maxsize=None)
def brandt_matrices(class_set, primes, nu=0):
    """The weight-nu operators T(p), one per good prime in the tuple primes.

    The one-pass construction of the module docstring: at weight 0 one
    count c of the norm-p vectors of I_i conj(I_j), i <= j, gives both
    T_ij = c / e_j and T_ji = c / e_i; positive weight enumerates every
    ordered pair.  Memoised: callers share the returned operators and must
    not mutate them.
    """
    n = class_set.order.reduced_discriminant()
    for p in primes:
        if n % p == 0:
            raise BrandtError(f"{p} divides the level {n}; not a good prime")
        if not _is_prime(p):
            raise BrandtError(f"{p} is not prime")
    r = class_set.size
    e = class_set.unit_counts
    alg = class_set.order.algebra
    sp = trace_zero_space(alg)
    basis = sp.harmonic_basis(nu)
    dim = len(basis)
    size = r * dim
    mats = {p: [[Fraction(0)] * size for _ in range(size)] for p in primes}
    for i in range(r):
        for j in range(i if nu == 0 else 0, r):
            conn = class_set.connecting(i, j)
            vecs = short_vectors(conn, max(primes))
            if nu == 0:
                for p, c in Counter(q for _, q in vecs if q in mats).items():
                    mats[p][i][j] = Fraction(c, e[j])
                    mats[p][j][i] = Fraction(c, e[i])
                continue
            for v, q in vecs:
                if q in mats:
                    x = Quaternion(alg, *conn.ambient(v))
                    tm = _tau_matrix_on_basis(sp, basis, x, nu)
                    block = mats[q]
                    for a in range(dim):
                        for b in range(dim):
                            block[i * dim + a][j * dim + b] += tm[a][b] / e[j]
    if nu == 0:
        for mat in mats.values():
            for row in mat:
                for x in row:
                    if x.denominator != 1:
                        raise BrandtError("weight-0 Brandt matrix not integral")
    return tuple(BrandtOperator(class_set, nu, f"T{p}", mats[p], dim)
                 for p in primes)


@lru_cache(maxsize=None)
def atkin_lehner(class_set, p, nu=0):
    """The involution w_p for p | N, via the two-sided ideal of norm p."""
    n = class_set.order.reduced_discriminant()
    if n % p != 0:
        raise BrandtError(f"{p} does not divide the level {n}")
    alg = class_set.order.algebra
    pbasis = two_sided_prime_ideal(class_set.order, p)
    r = class_set.size
    perm = []
    twists = []
    for i in range(r):
        moved = product_basis(alg, class_set.reps[i], pbasis)
        for j in range(r):
            twist = norm_one_element(alg, moved, class_set.reps[j])
            if twist is not None:
                break
        else:
            raise BrandtError(f"P * I_{i} at {p} is in no class of the set")
        perm.append(j)
        twists.append(twist)
    sp = trace_zero_space(alg)
    basis = sp.harmonic_basis(nu)
    dim = len(basis)
    size = r * dim
    mat = [[Fraction(0)] * size for _ in range(size)]
    for i in range(r):
        j = perm[i]
        if nu == 0:
            mat[i][j] = Fraction(1)
        else:
            tm = _tau_matrix_on_basis(sp, basis, twists[i], nu)
            for a in range(dim):
                for b in range(dim):
                    mat[i * dim + a][j * dim + b] = tm[a][b]
    return BrandtOperator(class_set, nu, f"w{p}", mat, dim)


def inner_product(phi, psi):
    """Natural inner product sum_i <<phi_i, psi_i>>_0 / e_i."""
    if phi.class_set is not psi.class_set or phi.weight != psi.weight:
        raise BrandtError("forms live on different spaces")
    sp = trace_zero_space(phi.class_set.order.algebra)
    total = Fraction(0)
    for i in range(phi.class_set.size):
        val = sp.inner(phi.values[i], psi.values[i], phi.weight) \
            if phi.weight else \
            phi.values[i].terms.get((0, 0, 0), Fraction(0)) * \
            psi.values[i].terms.get((0, 0, 0), Fraction(0))
        total += Fraction(val, phi.class_set.unit_counts[i]) \
            if isinstance(val, int) else val / phi.class_set.unit_counts[i]
    return total


# ---------------------------------------------------------------------------
# simultaneous eigenforms
# ---------------------------------------------------------------------------

def _good_primes(n, count=8):
    out = []
    p = 2
    while len(out) < count:
        if _is_prime(p) and n % p:
            out.append(p)
        p += 1
    return out


def _char_factors(mat):
    """Irreducible factors over Q of the characteristic polynomial.

    Returns (Fraction coefficients high to low, multiplicity) pairs in
    sympy's factor order, which the eigenform sort relies on.  This is the
    only user of sympy, imported here so that jobs that never factor a
    polynomial do not load it.
    """
    import sympy
    coeffs = charpoly(mat)
    x = sympy.symbols("x")
    poly = sum(sympy.Rational(c.numerator, c.denominator) * x ** (len(coeffs) - 1 - i)
               for i, c in enumerate(coeffs))
    _, factors = sympy.factor_list(sympy.Poly(poly, x))
    return [([Fraction(int(sympy.numer(c)), int(sympy.denom(c)))
              for c in fac.all_coeffs()], mult) for fac, mult in factors]


def _restrict(mat, basis_vectors):
    """Matrix of the operator restricted to the span of independent rows.

    Returns M with image_k = sum_l M[l][k] basis_l, i.e. the restricted
    operator in the coordinates of the given basis (columns = images).
    """
    img = [mat_vec(mat, v) for v in basis_vectors]
    out = [_coords_in_span(row, basis_vectors) for row in img]
    return [list(col) for col in zip(*out)] if out else []


def _coords_in_span(vec, basis_vectors):
    m = [list(col) for col in zip(*basis_vectors)]
    aug = [m[i] + [Fraction(vec[i])] for i in range(len(vec))]
    red, piv = rref(aug)
    ncols = len(basis_vectors)
    coords = [Fraction(0)] * ncols
    for r, pc in enumerate(piv):
        if pc == ncols:
            raise BrandtError("vector not in span")
        coords[pc] = red[r][ncols]
    return coords


@lru_cache(maxsize=None)
def eigenforms(class_set, nu=0, primes=None):
    """Simultaneous eigenbasis of the Brandt operators at weight nu.

    Weight 0: complete decomposition with essential/non-essential labels,
    rational or quadratic eigen-data, primitive integral normalization with
    positive leading coordinate.  Positive weight is supported on maximal
    orders (where the whole space is essential apart from nothing).
    Memoised per (class set, nu, primes) like brandt_matrix: callers share
    the returned list and forms and must not mutate them; primes must be a
    tuple.
    """
    n = class_set.order.reduced_discriminant()
    if primes is None:
        primes = tuple(_good_primes(n))
    ops = list(brandt_matrices(class_set, primes, nu))
    dim_total = class_set.size * ops[0].block_dim

    split_ops = ops + [atkin_lehner(class_set, p, nu)
                       for p in _prime_factors(n)]
    spaces = [[_unit_vector(dim_total, i) for i in range(dim_total)]]
    # split by successive operators (Hecke, then the involutions: old-form
    # classes share all good Hecke eigenvalues and differ only under w_p)
    for op in split_ops:
        new_spaces = []
        for basis in spaces:
            if len(basis) == 1:
                new_spaces.append(basis)
                continue
            sub = _restrict(op.matrix, basis)
            factors = _char_factors(sub)
            if len(factors) == 1 and factors[0][1] == len(basis) and \
                    len(factors[0][0]) == 2:
                new_spaces.append(basis)
                continue
            for fac, mult in factors:
                poly_mat = _apply_poly(sub, fac)
                ker = nullspace(poly_mat)
                vectors = [_combine(basis, k) for k in ker]
                if vectors:
                    new_spaces.append(vectors)
        spaces = new_spaces

    forms = []
    for basis in spaces:
        if len(basis) == 1:
            forms.append(_make_eigenform(class_set, nu, basis[0], primes, ops))
        else:
            sub = _restrict(ops[0].matrix, basis)
            factors = _char_factors(sub)
            if all(len(f) == 3 for f, _ in factors) and len(basis) == 2:
                forms.extend(_quadratic_eigenforms(class_set, nu, basis, sub,
                                                   factors[0][0], primes, ops))
            else:
                # leave as an unresolved block (not expected at desk scale)
                raise BrandtError(
                    f"could not split a {len(basis)}-dim eigenspace")
    forms.sort(key=_eigenform_sort_key)
    return forms


def _unit_vector(n, i):
    v = [Fraction(0)] * n
    v[i] = Fraction(1)
    return v


def _apply_poly(mat, coeffs):
    """f(mat) for f given by its coefficients high to low (Horner)."""
    n = len(mat)
    result = [[Fraction(0)] * n for _ in range(n)]
    for c in coeffs:
        result = mat_mul(result, mat)
        for i in range(n):
            result[i][i] += c
    return result


def _combine(basis, coords):
    n = len(basis[0])
    return [sum(coords[k] * basis[k][i] for k in range(len(basis)))
            for i in range(n)]


def _normalize_primitive(vec):
    from math import gcd, lcm
    den = 1
    for x in vec:
        den = lcm(den, Fraction(x).denominator)
    ints = [int(Fraction(x) * den) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x), 1)
    if lead < 0:
        ints = [-x for x in ints]
    return [Fraction(x) for x in ints]


def _make_eigenform(class_set, nu, vec, primes, ops):
    vec = _normalize_primitive(vec)
    form = _vector_to_form(class_set, nu, vec, ops[0].block_dim)
    eigs = {}
    for p, op in zip(primes, ops):
        img = mat_vec(op.matrix, vec)
        k = next(i for i, x in enumerate(vec) if x)
        eigs[p] = img[k] / vec[k]
        assert all(img[i] == eigs[p] * vec[i] for i in range(len(vec)))
    form.eigenvalues = eigs
    form.al_signs = {}
    n = class_set.order.reduced_discriminant()
    for p in _prime_factors(n):
        w = atkin_lehner(class_set, p, nu)
        img = mat_vec(w.matrix, vec)
        k = next(i for i, x in enumerate(vec) if x)
        sign = img[k] / vec[k]
        if all(img[i] == sign * vec[i] for i in range(len(vec))) and \
                sign in (1, -1):
            form.al_signs[p] = int(sign)
        else:
            form.al_signs[p] = None  # not an AL eigenvector (rare; labeled)
    if nu == 0:
        from .orders import essential_complement
        proj = essential_complement(class_set)
        sval = form.scalar_values()
        image = mat_vec(proj, sval)
        form.essential = (image == sval)
        const = all(v == sval[0] for v in sval)
        form.label = "eisenstein" if const else (
            "cuspidal-essential" if form.essential else "non-essential")
    else:
        form.label = "eigenform"
    return form


def _quadratic_eigenforms(class_set, nu, basis, sub, factor, primes, ops):
    """Conjugate pair of eigenforms for an irreducible quadratic factor.

    factor: coefficients [1, c1, c0] high to low, as from _char_factors.
    """
    c1, c0 = factor[1:]
    disc = c1 * c1 - 4 * c0
    # theta = (-c1 + sqrt(disc)) / 2; work in Q(sqrt(d)) with disc = s^2 d
    num = abs(disc.numerator * disc.denominator)
    sq = _square_part(num)
    d = num // (sq * sq)
    s = Fraction(sq, disc.denominator)
    theta = QuadExt(-c1 / 2, s / 2, d)
    out = []
    for root in (theta, theta.conjugate()):
        mat = [[QuadExt.of(sub[i][j], d) for j in range(len(sub))]
               for i in range(len(sub))]
        for i in range(len(sub)):
            mat[i][i] = mat[i][i] - root
        coords = nullspace(mat)[0]
        vec = [sum((coords[k] * QuadExt.of(basis[k][i], d)
                    for k in range(len(basis))), QuadExt(0, 0, d))
               for i in range(len(basis[0]))]
        form = QuatForm(class_set, nu, None, label="quadratic-eigenform")
        form.vector = vec
        form.field_disc = d
        eigs = {}
        for p, op in zip(primes, ops):
            img = mat_vec(op.matrix, vec)
            k = next(i for i, v in enumerate(vec) if not v.is_zero())
            eigs[p] = img[k] / vec[k]
        form.eigenvalues = eigs
        out.append(form)
    return out


def _eigenform_sort_key(form):
    order = {"eisenstein": 0, "cuspidal-essential": 1, "non-essential": 2,
             "eigenform": 3, "quadratic-eigenform": 4}
    eig = []
    if form.eigenvalues:
        for p in sorted(form.eigenvalues):
            v = form.eigenvalues[p]
            eig.append(float(v))
    return (order.get(form.label, 9), eig)


# ---------------------------------------------------------------------------
# theta lift (Eichler correspondence, degree 1)
# ---------------------------------------------------------------------------

def eichler_theta(form, prec):
    """q-expansion coefficients a_1..a_prec (and a_0) of the theta lift.

    h(z) = sum_{ij} (1/e_i e_j) sum_{x in I_ij} (phi_i x phi_j)(x) q^{n(x)}
    with the tensor value realized through the split isomorphism at nu > 0.
    """
    if prec < 1:
        raise BrandtError("prec must be >= 1")
    cs = form.class_set
    alg = cs.order.algebra
    nu = form.weight
    coeffs = {n: Fraction(0) for n in range(prec + 1)}
    split = SplitIso(alg, nu) if nu else None
    for i in range(cs.size):
        # at weight 0 the terms (i, j) and (j, i) are equal: conj maps
        # I_i conj(I_j) onto I_j conj(I_i) and keeps norms
        for j in range(i if nu == 0 else 0, cs.size):
            w = Fraction(1 if i == j or nu else 2,
                         cs.unit_counts[i] * cs.unit_counts[j])
            conn = cs.connecting(i, j)
            if nu == 0:
                fi = form.values[i].terms.get((0, 0, 0), Fraction(0))
                fj = form.values[j].terms.get((0, 0, 0), Fraction(0))
                if fi and fj:
                    th = theta_coeffs(conn, prec)
                    for n, c in th.items():
                        coeffs[n] += w * fi * fj * c
            else:
                poly4 = split.apply(form.values[i], form.values[j])
                if poly4.is_zero():
                    continue
                for v, q in short_vectors(conn, prec, include_zero=True):
                    if q.denominator == 1 and q <= prec:
                        coeffs[int(q)] += w * poly4.eval(conn.ambient(v))
    return coeffs
