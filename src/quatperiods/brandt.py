"""Brandt matrices, Atkin-Lehner involutions, eigenforms, theta lifts.

Conventions: T(p)_{ij} = (1/e_j) #{x in I_i conj(I_j) : q(x) = p} on the
primitively scaled connecting lattices.  This matrix is integral at weight 0,
stored as ints there with at most p + 1 nonzero entries per row (row sums
p + 1), and self-adjoint for the natural inner product
<phi, psi> = sum_i <<phi_i, psi_i>> / e_i.  Eigenvalues are exact: one
eigenform stands for each Galois orbit, with its eigenvalues and values in
its Hecke field, a number field Q[x]/(f) (Q itself for a rational form).

All T(p) for a tuple of primes are built in one pass (Pizer, J. Algebra 64,
1980): each connecting lattice is enumerated once up to the largest p.  At
weight 0 that enumeration only counts its vectors per norm
(lattice.norm_counts), and only the pairs i <= j are enumerated, by the
conjugation symmetry: x -> conj(x) maps I_i conj(I_j) onto I_j conj(I_i)
and keeps norms, so e_j T_ij = e_i T_ji.  At positive weight, where every
ordered pair is enumerated, tau(-x) = tau(x) is added twice for one x of
each pair +-x.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from ._factor import _bezout, _divmod, _mul, _trim, factor
from ._linalg import (charpoly, content, identity, mat_mul, mat_vec,
                      nullspace, rref, transpose, vec_mat)
from ._poly import Poly
from .harmonics import (linear_combination, random_harmonic, split_iso,
                        tau_action, tau_substitution, trace_zero_space)
from .lattice import norm_counts, short_vectors, theta_coeffs
from .orders import essential_complement, product_basis, two_sided_prime_ideal
from .quatalg import _is_prime, _prime_factors, good_primes


class BrandtError(ValueError):
    pass


# ---------------------------------------------------------------------------
# exact number fields (the Hecke fields of eigenforms)
# ---------------------------------------------------------------------------

class NumberFieldElement:
    """An element of K = Q[x]/(f), f irreducible and monic of degree d >= 2.

    Stored as its d rational coordinates on the power basis 1, x, ...,
    x^(d-1) (low to high), with f as its coefficients high to low: an
    irreducible factor of a characteristic polynomial, from _factor.factor.
    The arithmetic is _factor's on coefficient lists low to high, with f
    reversed once when the element is made: a product is the remainder of
    the polynomial product by f, and a / b is a times the s of 1 = s b + t f
    from the extended Euclidean algorithm.  An int or a Fraction may stand
    on either side of + and *, and on the right of - and /: that is all an
    eigenvector's Krylov sum, its normalization, the eigenvalues and the
    Poly values of a form ask of K.  It has a numerator and a denominator
    like a Fraction, so lattice.integer_terms clears it too.
    """

    __slots__ = ("coeffs", "modulus", "_low", "_inv")

    def __init__(self, coeffs, modulus):
        self.coeffs = tuple(coeffs)
        self.modulus = modulus
        self._low = modulus[::-1]
        self._inv = None

    @classmethod
    def generator(cls, modulus):
        """x mod f, a root of f."""
        return cls([Fraction(int(k == 1)) for k in range(len(modulus) - 1)],
                   modulus)

    def _lift(self, other):
        if isinstance(other, NumberFieldElement):
            return other
        zeros = [Fraction(0)] * (len(self.coeffs) - 1)
        return NumberFieldElement([Fraction(other)] + zeros, self.modulus)

    def _reduce(self, poly):
        """The element poly(x) mod f, for a coefficient list low to high."""
        rem = _divmod(poly, self._low)[1]
        zeros = [Fraction(0)] * (len(self.coeffs) - len(rem))
        return NumberFieldElement(rem + zeros, self.modulus)

    def __add__(self, other):
        other = self._lift(other)
        return NumberFieldElement(
            [a + b for a, b in zip(self.coeffs, other.coeffs)], self.modulus)

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if not isinstance(other, NumberFieldElement):
            return NumberFieldElement([a * other for a in self.coeffs],
                                      self.modulus)
        return self._reduce(_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    @property
    def denominator(self):
        """Least common denominator of the coordinates, as for a Fraction."""
        return math.lcm(*(a.denominator for a in self.coeffs))

    @property
    def numerator(self):
        """self * denominator, with integral coordinates, as for a Fraction."""
        return self * self.denominator

    def _inverse(self):
        """1 / self, kept once found: _normalize divides a whole vector by
        its lead entry."""
        if self._inv is None:
            if not self:
                raise ZeroDivisionError("division by zero in a number field")
            # f is irreducible, so a nonzero element is prime to it
            self._inv = self._reduce(
                _bezout(_trim(list(self.coeffs)), self._low)[0])
        return self._inv

    def __truediv__(self, other):
        if not isinstance(other, NumberFieldElement):
            return self * (1 / Fraction(other))
        return self * other._inverse()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, NumberFieldElement)):
            return not self - other
        return NotImplemented

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        return poly_text(self.coeffs[::-1])


def poly_text(coeffs):
    """Text of a polynomial in x from its coefficients high to low:
    (1, -1/2, 3) gives x^2 - 1/2*x + 3."""
    terms = []
    for e, c in enumerate(reversed(coeffs)):
        if c:
            mono = "" if e == 0 else "x" if e == 1 else f"x^{e}"
            factor = "" if mono and abs(c) == 1 else \
                str(abs(c)) + "*" * bool(mono)
            terms.append(("- " if c < 0 else "+ ") + factor + mono)
    text = " ".join(reversed(terms)) or "+ 0"
    return text[2:] if text[0] == "+" else "-" + text[2:]


# ---------------------------------------------------------------------------
# forms and operators
# ---------------------------------------------------------------------------

class QuatForm:
    """Function on the ideal classes with values in U_nu of the algebra.

    An eigenform's values and eigenvalues lie in its Hecke field Q[x]/(f):
    Fractions when f has degree 1 (field None), NumberFieldElements else.
    """

    def __init__(self, class_set, weight, values, label=""):
        self.class_set = class_set
        self.weight = weight
        self.values = values  # Polys on the trace-zero space, constant at nu=0
        self.label = label
        self.eigenvalues = None   # p -> eigenvalue in the Hecke field
        self.al_signs = None      # p -> +-1
        self.essential = None
        self.field = None         # f, high to low, if its degree is >= 2

    def scalar_values(self):
        if self.weight != 0:
            raise BrandtError("scalar values only at weight 0")
        return [v.terms.get((0, 0, 0), Fraction(0)) for v in self.values]


def constant_form(class_set, value=1):
    return QuatForm(class_set, 0,
                    [Poly.const(3, value) for _ in range(class_set.size)],
                    label="constant")


def unit_average_form(class_set, nu, rng):
    """A valid weight-nu form: random values averaged over the unit groups.

    Values of a form must be invariant under tau of the left-order units;
    averaging enforces that (and can come out zero when the invariant
    subspace at this weight is trivial).
    """
    alg = class_set.order.algebra
    sp = trace_zero_space(alg)
    values = []
    for i in range(class_set.size):
        raw = random_harmonic(sp, nu, rng)
        lat = class_set.left_orders[i].norm_lattice()
        acc = Poly.zero(3)
        for v, q in short_vectors(lat, 1):
            if q == 1:
                acc = acc + tau_action(alg, lat.integer_ambient(v), raw)
        values.append(acc * Fraction(1, class_set.unit_counts[i]))
    return QuatForm(class_set, nu, values, label="unit-averaged")


class BrandtOperator(namedtuple("BrandtOperator",
                                "class_set nu label matrix block_dim")):
    """A Hecke operator T(p) or involution w_p on weight-nu forms.

    label is "T2", "w11", ...; matrix is square, of size r * dim(U_nu),
    with blocks of size block_dim: ints at weight 0, Fractions above.
    """
    __slots__ = ()


def _vector_to_form(class_set, nu, vec, block_dim):
    """The form with coordinates vec, whose entries may lie in a number
    field: each value sums its basis polynomials' terms times vec's."""
    basis = trace_zero_space(class_set.order.algebra).harmonic_basis(nu)
    return QuatForm(class_set, nu, [
        linear_combination(3, basis, vec[i * block_dim:(i + 1) * block_dim])
        for i in range(class_set.size)])


def _tau_matrix_on_basis(alg, x, nu):
    """Matrix of tau(x) on the weight-nu harmonic basis (columns = images),
    for the quaternion with coordinate tuple x."""
    space = trace_zero_space(alg)
    sub = tau_substitution(alg, x)
    return transpose([space.coords_in_basis(b.subs_linear(sub), nu)
                      for b in space.harmonic_basis(nu)])


@lru_cache(maxsize=None)
def brandt_matrix(class_set, p, nu=0):
    """The weight-nu Brandt operator T(p) for good p (p not dividing N)."""
    return brandt_matrices(class_set, (p,), nu)[0]


@lru_cache(maxsize=None)
def brandt_matrices(class_set, primes, nu=0):
    """The weight-nu operators T(p), one per good prime in the tuple primes.

    The one-pass construction of the module docstring: at weight 0 one
    count c of the norm-p vectors of I_i conj(I_j), i <= j, gives both
    T_ij = c // e_j and T_ji = c // e_i, and a remainder raises; positive
    weight enumerates every ordered pair.  Memoised: callers share the
    returned operators and must not mutate them, and pass nu positionally,
    since lru_cache keys (cs, primes) and (cs, primes, 0) apart.
    """
    n = class_set.order.level
    for p in primes:
        if n % p == 0:
            raise BrandtError(f"{p} divides the level {n}; not a good prime")
        if not _is_prime(p):
            raise BrandtError(f"{p} is not prime")
    if not primes:
        return ()
    r = class_set.size
    e = class_set.unit_counts
    alg = class_set.order.algebra
    dim = len(trace_zero_space(alg).harmonic_basis(nu))
    size = r * dim
    mats = {p: [[Fraction(0)] * size for _ in range(size)] for p in primes}
    for i in range(r):
        for j in range(i if nu == 0 else 0, r):
            conn = class_set.connecting(i, j)
            if nu == 0:
                counts = norm_counts(conn, max(primes))
                for p in primes:
                    if counts[p] % e[j] or counts[p] % e[i]:
                        raise BrandtError("weight-0 Brandt matrix not integral")
                    mats[p][i][j], mats[p][j][i] = \
                        counts[p] // e[j], counts[p] // e[i]
                continue
            for v, q in short_vectors(conn, max(primes)):
                # tau(-x) = tau(x): one x of each pair +-x, whose first
                # nonzero coordinate is positive, counts twice
                if q in mats and next(filter(None, v)) > 0:
                    tm = _tau_matrix_on_basis(alg, conn.integer_ambient(v),
                                              nu)
                    block = mats[q]
                    for a in range(dim):
                        for b in range(dim):
                            block[i * dim + a][j * dim + b] += \
                                2 * tm[a][b] / e[j]
    return tuple(BrandtOperator(class_set, nu, f"T{p}", mats[p], dim)
                 for p in primes)


@lru_cache(maxsize=None)
def atkin_lehner(class_set, p, nu=0):
    """The involution w_p for p | N, via the two-sided ideal P of norm p:
    ClassSet.locate puts I_i * P in a class j, with a twist q, and w_p
    maps class i to j through tau(q).  Memoised like brandt_matrices, so
    callers pass nu positionally."""
    n = class_set.order.level
    if n % p != 0:
        raise BrandtError(f"{p} does not divide the level {n}")
    alg = class_set.order.algebra
    pbasis = two_sided_prime_ideal(class_set.order, p)
    r = class_set.size
    found = [class_set.locate(product_basis(alg, rep, pbasis))
             for rep in class_set.reps]
    if None in found:
        raise BrandtError(f"P * I_{found.index(None)} at {p} is in no class "
                          "of the set")
    perm, twists = zip(*found)
    dim = len(trace_zero_space(alg).harmonic_basis(nu))
    size = r * dim
    mat = [[Fraction(0) if nu else 0] * size for _ in range(size)]
    for i in range(r):
        j = perm[i]
        if nu == 0:
            mat[i][j] = 1
        else:
            tm = _tau_matrix_on_basis(alg, twists[i], nu)
            for a in range(dim):
                for b in range(dim):
                    mat[i * dim + a][j * dim + b] = tm[a][b]
    return BrandtOperator(class_set, nu, f"w{p}", mat, dim)


def inner_product(phi, psi):
    """Natural inner product sum_i <<phi_i, psi_i>>_0 / e_i."""
    if phi.class_set is not psi.class_set or phi.weight != psi.weight:
        raise BrandtError("forms live on different spaces")
    sp = trace_zero_space(phi.class_set.order.algebra)
    vals = [sp.inner(a, b, phi.weight) for a, b in zip(phi.values, psi.values)]
    return sum((val / e for val, e in zip(vals, phi.class_set.unit_counts)),
               Fraction(0))


# ---------------------------------------------------------------------------
# simultaneous eigenforms
# ---------------------------------------------------------------------------

def _restrict(mat, basis_vectors):
    """Matrix of the operator restricted to the span of independent rows.

    Returns M with image_k = sum_l M[l][k] basis_l, i.e. the restricted
    operator in the coordinates of the given basis (columns = images): the
    right block of rref([B | mat B]) for the columns B of the basis.
    """
    d = len(basis_vectors)
    images = [mat_vec(mat, v) for v in basis_vectors]
    red, piv = rref([list(row) for row in zip(*basis_vectors, *images)])
    if piv != list(range(d)):
        raise BrandtError("the span is not invariant under the operator")
    return [row[d:] for row in red[:d]]


@lru_cache(maxsize=None)
def eigenforms(class_set, nu=0):
    """Simultaneous eigenforms of the Brandt operators T(p) for the first 8
    good p at weight nu, one per Galois orbit.

    One pass of _orbits splits the space by the characteristic polynomials
    of the T(p), then of the involutions w_p (old-form classes share all
    good Hecke eigenvalues and differ only under w_p), down to Galois
    orbits; _make_eigenform builds each orbit's form over its Hecke field,
    its vector a combination of Krylov vectors over Q.
    Weight 0 adds the labels: a non-constant form is essential iff it is
    orthogonal to every pullback of orders.essential_complement.  At nu > 0
    it decomposes the whole direct sum of U_nu over the classes, which is
    the space of forms only where every unit group is +-1: at disc 7 and
    nu = 2 it returns 4 forms spanning 5 dimensions against
    dim S_6^new(Gamma_0(7)) = 3, and at disc 2, 3 and 5 it raises
    BrandtError (ROADMAP item 4(a)).
    Memoised per (class set, nu) like brandt_matrix: callers share the
    returned list and forms and must not mutate them.
    """
    n = class_set.order.level
    primes = tuple(good_primes(n, 8))
    ops = brandt_matrices(class_set, primes, nu)
    split_ops = ops + tuple(atkin_lehner(class_set, p, nu)
                            for p in _prime_factors(n))
    forms = [_make_eigenform(class_set, nu, *orbit, primes, ops)
             for orbit in _orbits(identity(class_set.size * ops[0].block_dim),
                                  split_ops)]
    forms.sort(key=_eigenform_sort_key)
    return forms


def kernel_eigenform(class_set, eigenvalues, signs):
    """The weight-0 form, without label, with T(p) eigenvalue eigenvalues[p]
    and w_q sign signs[q]: the nullspace of the stacked integer matrices
    T(p) - a_p I and w_q - sigma_q I, if it has dimension 1."""
    primes, bad = tuple(sorted(eigenvalues)), sorted(signs)
    ops = brandt_matrices(class_set, primes, 0) + tuple(
        atkin_lehner(class_set, q, 0) for q in bad)
    shifts = [eigenvalues[p] for p in primes] + [signs[q] for q in bad]
    kernel = nullspace([row for op, lam in zip(ops, shifts)
                        for row in _apply_poly(op.matrix, (1, -lam))])
    if len(kernel) != 1:
        raise BrandtError("no eigenform has these eigenvalues and signs"
                          if not kernel else "eigenform ambiguity, a "
                          f"{len(kernel)}-dim space of forms has them")
    form = _vector_to_form(class_set, 0, _normalize(kernel[0]), 1)
    form.eigenvalues, form.al_signs = dict(eigenvalues), dict(signs)
    return form


def _orbits(basis, ops, path=()):
    """The Galois orbits in the span of basis, as (basis, op, f) triples.

    Each operator in turn is restricted to the span and its characteristic
    polynomial factored once; each factor's kernel is a piece, split further
    by the remaining operators, and path holds the (operator, factor) pairs
    that cut out the span.  A span is one orbit as soon as a factor f on its
    path has degree equal to its dimension: that operator acts on it
    irreducibly, so no commuting operator splits it.  The first such
    operator, op, gives the Hecke field Q[x]/(f).
    """
    for op, fac in path:
        if len(fac) - 1 == len(basis):
            yield basis, op, fac
            return
    if not ops:
        raise BrandtError(f"a {len(basis)}-dim common eigenspace of the Hecke "
                          "and Atkin-Lehner operators is not one Galois orbit")
    sub = _restrict(ops[0].matrix, basis)
    factors = factor(charpoly(sub))
    for fac in factors:
        piece = basis if len(factors) == 1 else \
            [vec_mat(k, basis) for k in nullspace(_apply_poly(sub, fac))]
        yield from _orbits(piece, ops[1:], path + ((ops[0], fac),))


def _apply_poly(mat, coeffs):
    """f(mat) for a monic f given by its coefficients high to low: Horner
    from mat + c_1 I, so a degree-d f costs d - 1 matrix products."""
    result = [[x + coeffs[1] if i == j else x for j, x in enumerate(row)]
              for i, row in enumerate(mat)]
    for c in coeffs[2:]:
        result = mat_mul(result, mat)
        for i in range(len(mat)):
            result[i][i] += c
    return result


def _coords(x):
    """The rational coordinates of a Hecke field element."""
    return x.coeffs if isinstance(x, NumberFieldElement) else (x,)


def _normalize(vec):
    """vec scaled so that its first nonzero entry is a positive rational and
    the rational coordinates of its entries are coprime integers: for a
    rational vector, the primitive integral one with positive lead."""
    lead = next(x for x in vec if x)
    vec = [x / lead for x in vec]
    scale = content([c for x in vec for c in _coords(x)])
    return [x / scale for x in vec]


def _eigenvalue(op, vec):
    """The eigenvalue of the operator op at its _normalized eigenvector vec,
    whose rational entries are integers: op acts on them as ints."""
    img = mat_vec(op.matrix, [x.numerator for x in vec])
    k = next(i for i, x in enumerate(vec) if x)
    lam = img[k] / vec[k]
    if any(y != lam * x for x, y in zip(vec, img)):
        raise BrandtError(f"an orbit's eigenvector is not one of {op.label}")
    return lam


def _make_eigenform(class_set, nu, basis, op, fac, primes, ops):
    """The eigenform of the orbit spanned by basis, on which op acts with
    irreducible characteristic polynomial f = x^d + f_(d-1) x^(d-1) + ...
    + f_0 (fac, high to low).  Its vector is v = sum_(k<d) q_k(theta) M^k w
    over K = Q[x]/(f), for theta = x, M = op.matrix, w = basis[0],
    q_(d-1) = 1 and q_(k-1) = theta q_k + f_k: (M - theta) v is
    f(M) w - f(theta) w = 0, as f(M) kills the orbit, and v != 0, as the
    M^k w are independent for an irreducible f.  That is d - 1 rational
    products by M and no elimination over K; for a linear f, v = w."""
    field = fac if len(fac) > 2 else None
    theta = NumberFieldElement.generator(field) if field else None
    krylov = [basis[0]]
    for _ in fac[2:]:
        krylov.append(mat_vec(op.matrix, krylov[-1]))
    vec, q = krylov.pop(), 1
    for c, u in zip(fac[1:-1], reversed(krylov)):
        q = q * theta + c
        vec = [a + q * b for a, b in zip(vec, u)]
    vec = _normalize(vec)
    form = _vector_to_form(class_set, nu, vec, ops[0].block_dim)
    form.field = field
    form.eigenvalues = {p: _eigenvalue(t, vec) for p, t in zip(primes, ops)}
    # w_p commutes with the operator that acts on the orbit irreducibly, so
    # it acts by an involution of the Hecke field: +1 or -1
    form.al_signs = {}
    for p in _prime_factors(class_set.order.level):
        sign = _eigenvalue(atkin_lehner(class_set, p, nu), vec)
        if sign not in (1, -1):
            raise BrandtError(f"w{p} acts on an orbit by {sign}, not by +-1")
        form.al_signs[p] = 1 if sign == 1 else -1
    if nu == 0:
        sval = form.scalar_values()
        e = class_set.unit_counts
        form.essential = all(
            sum(s * Fraction(u_i, e_i) for s, u_i, e_i in zip(sval, u, e)) == 0
            for u in essential_complement(class_set))
        const = all(v == sval[0] for v in sval)
        form.label = "eisenstein" if const else (
            "cuspidal-essential" if form.essential else "non-essential")
    else:
        form.label = "eigenform"
    return form


def _eigenform_sort_key(form):
    """Label, field degree, the eigenvalues' exact coordinates, then the
    Atkin-Lehner signs, +1 first: exact, so that no float picks an embedding
    of an irrational Hecke field, and total, since old-form copies differ
    only in their signs.  A rational eigenvalue is padded to the field
    degree, so a Fraction and a field element of one value tie."""
    order = {"eisenstein": 0, "cuspidal-essential": 1, "non-essential": 2,
             "eigenform": 3}
    degree = len(form.field) - 1 if form.field else 1
    coords = [_coords(form.eigenvalues[p]) for p in sorted(form.eigenvalues)]
    return (order[form.label], degree,
            [c + (0,) * (degree - len(c)) for c in coords],
            [-form.al_signs[p] for p in sorted(form.al_signs)])


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
    if nu:
        split = split_iso(alg, nu)
    else:
        values = form.scalar_values()
    for i in range(cs.size):
        # at weight 0 the terms (i, j) and (j, i) are equal: conj maps
        # I_i conj(I_j) onto I_j conj(I_i) and keeps norms
        for j in range(i if nu == 0 else 0, cs.size):
            w = Fraction(1 if i == j or nu else 2,
                         cs.unit_counts[i] * cs.unit_counts[j])
            conn = cs.connecting(i, j)
            if nu == 0:
                fi, fj = values[i], values[j]
                if fi and fj:
                    th = theta_coeffs(conn, prec)
                    for n, c in th.items():
                        coeffs[n] += w * fi * fj * c
            else:
                poly4 = split.apply(form.values[i], form.values[j])
                if poly4.is_zero():
                    continue
                for n, c in theta_coeffs(conn, prec, weight=poly4).items():
                    coeffs[n] += w * c
    return coeffs
