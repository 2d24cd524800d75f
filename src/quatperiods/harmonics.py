"""Harmonic polynomial spaces, Gegenbauer kernels, invariant trilinear forms.

Spaces are parameterized by an exact rational Gram matrix A with
q(x) = x^T A x, so the whole machinery runs in the rational coordinates of a
given algebra (trace-zero 3-space or full 4-space) as well as in standard
coordinates.  Kernels are invariant expressions in q and the pairing
<x,y> = x^T A y, hence exact everywhere; inner products are Fischer pairings
rescaled so the kernels reproduce.

The invariant trilinear couplings are built from iterated Laplacians of
products: T(P,Q,R) = <<Lap^k(P*Q), R>>.  No harmonic projection is needed,
since R is harmonic and multiplication by q is the Fischer adjoint of the
Laplacian: the non-harmonic part q*g of Lap^k(P*Q) pairs with R to
<g, Lap R> = 0.  They are nonzero exactly on balanced triples with even
degree sum, and unique up to scalar.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import chain
from math import comb, factorial
from operator import mul

from ._linalg import frac_mat, identity, inverse, nullspace, transpose
from ._poly import Poly, apply_diff_operator, fischer_pairing
from .quatalg import quaternion_norm, quaternion_product


class HarmonicsError(ValueError):
    pass


def _monomials(nvars, degree):
    """All exponent tuples of the given total degree, sorted."""
    if nvars == 1:
        return [(degree,)]
    out = []
    for first in range(degree, -1, -1):
        for rest in _monomials(nvars - 1, degree - first):
            out.append((first,) + rest)
    return sorted(out)


class HarmonicSpace:
    """Polynomials on an n-space with quadratic form q(x) = x^T A x."""

    def __init__(self, gram):
        self.gram = frac_mat(gram)
        self.dim = len(self.gram)
        self.gram_inv = inverse(self.gram)

    # -- basic objects -------------------------------------------------------
    @cached_property
    def q_poly(self):
        n = self.dim
        return Poly(n, ((tuple(int(k == i) + int(k == j) for k in range(n)), g)
                        for i, row in enumerate(self.gram)
                        for j, g in enumerate(row)))

    def laplacian(self, p):
        return p.laplacian(self.gram_inv)

    def fischer(self, p, q):
        return fischer_pairing(p, q, self.gram_inv)

    # -- harmonic basis ------------------------------------------------------
    @lru_cache(maxsize=None)
    def harmonic_basis(self, degree):
        """Canonical basis of harmonic polynomials of the given degree."""
        monos = _monomials(self.dim, degree)
        if degree < 2:
            return [Poly.monomial(m) for m in monos]
        lower = _monomials(self.dim, degree - 2)
        rows = []
        for m in monos:
            lap = self.laplacian(Poly.monomial(m))
            rows.append([lap.terms.get(lm, Fraction(0)) for lm in lower])
        # kernel of mono-coeff vector -> laplacian coeffs
        ker = nullspace([list(col) for col in zip(*rows)])
        return [Poly(self.dim, zip(monos, v)) for v in ker]

    @lru_cache(maxsize=None)
    def free_monomials(self, degree):
        """The free monomial of each basis polynomial, in basis order.

        harmonic_basis is a nullspace in rref form, so each basis polynomial
        has coefficient 1 at its own free monomial, 0 at the other basis
        polynomials' free monomials, and no term after it in monomial order.
        """
        return [max(b.terms) for b in self.harmonic_basis(degree)]

    def coords_in_basis(self, p, degree):
        """Coordinates of a harmonic polynomial in the canonical basis.

        Read off, not solved: the coordinates are p's coefficients at the
        free monomials of the basis.  That holds when p is harmonic and
        homogeneous of the given degree; otherwise the read-off would return
        raw coefficients, so the sum of the basis polynomials with these
        coordinates is rebuilt and HarmonicsError raised unless it is p.
        """
        basis = self.harmonic_basis(degree)
        coords = [p.terms.get(m, Fraction(0))
                  for m in self.free_monomials(degree)]
        if linear_combination(self.dim, basis, coords) != p:
            raise HarmonicsError(
                f"not a harmonic polynomial of degree {degree}")
        return coords

    # -- kernels -------------------------------------------------------------
    @lru_cache(maxsize=None)
    def kernel_bipoly(self, degree):
        """Zonal reproducing kernel K(x, y) as a polynomial in 2*dim vars.

        Built once per degree: callers share it and must not mutate it.
        """
        n = self.dim
        qx = self.q_poly.embed(2 * n)
        qy = self.q_poly.embed(2 * n, n)
        # <x, y> = (q(x + y) - q(x) - q(y)) / 2
        plus = [[int(j in (i, n + i)) for j in range(2 * n)] for i in range(n)]
        pair = (self.q_poly.subs_linear(plus) - qx - qy) * Fraction(1, 2)
        return _kernel_from_invariants(n, degree, pair, qx, qy)

    def kernel_at(self, degree, point):
        """K(x, point) as a polynomial in x (dim vars)."""
        n = self.dim
        assigned = self.kernel_bipoly(degree).eval_partial(
            {n + i: x for i, x in enumerate(point)})
        return Poly(n, ((m[:n], c) for m, c in assigned.terms.items()))

    @lru_cache(maxsize=None)
    def kernel_normalization(self, degree):
        """c with <K(.,y), Q>_Fischer = c * Q(y) for harmonic Q.

        Asserts consistency over the whole basis at two generic points,
        which is the reproducing-kernel property itself.
        """
        basis = self.harmonic_basis(degree)
        pts = ([Fraction(k + 1, 1) for k in range(self.dim)],
               [Fraction(2 * k + 1, 2) for k in range(self.dim)])
        c = None
        for pt in pts:
            ker = self.kernel_at(degree, pt)
            for b in basis:
                val = b.eval(pt)
                if val == 0:
                    continue
                ratio = self.fischer(ker, b) / val
                if c is None:
                    c = ratio
                elif c != ratio:
                    raise HarmonicsError(
                        "kernel fails the reproducing property")
        if c is None or c == 0:
            raise HarmonicsError("degenerate kernel normalization")
        return c

    def inner(self, p, q, degree):
        """Invariant inner product of harmonic polynomials of that degree,
        normalized so the kernel reproduces."""
        return self.fischer(p, q) / self.kernel_normalization(degree)


def _kernel_from_invariants(dim, degree, pair, qx, qy):
    """Zonal harmonic kernel written in <x,y>, q(x), q(y)."""
    if dim == 3:
        # solid Legendre: sum_j (-1)^j C(nu,j) C(2nu-2j,nu) <x,y>^{nu-2j} (qq')^j
        coeffs = [Fraction((-1) ** j * comb(degree, j)
                           * comb(2 * degree - 2 * j, degree))
                  for j in range(degree // 2 + 1)]
    elif dim == 4:
        # 2^a sum_j (-1)^j ((a-j)!/(j!(a-2j)!)) (qq')^j tr(x conj(y))^{a-2j},
        # with tr(x conj(y)) = 2 <x,y>
        coeffs = [Fraction((-1) ** j * factorial(degree - j) * 2 ** degree,
                           factorial(j) * factorial(degree - 2 * j))
                  * Fraction(2) ** (degree - 2 * j)
                  for j in range(degree // 2 + 1)]
    else:
        raise HarmonicsError(f"no kernel for dimension {dim}")
    return Poly(pair.nvars, chain.from_iterable(
        (pair ** (degree - 2 * j) * (qx * qy) ** j * c).terms.items()
        for j, c in enumerate(coeffs)))


# ---------------------------------------------------------------------------
# standard spaces and algebra-attached spaces
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def standard_space(dim):
    return HarmonicSpace(identity(dim))


@lru_cache(maxsize=None)
def trace_zero_space(alg):
    """The norm form on span(i, j, k): the i, j, k block of norm_gram."""
    den, g = alg.norm_gram()
    return HarmonicSpace([[Fraction(x, 2 * den) for x in row[1:]]
                          for row in g[1:]])


@lru_cache(maxsize=None)
def full_space(alg):
    den, g = alg.norm_gram()
    return HarmonicSpace([[Fraction(x, 2 * den) for x in row] for row in g])


# ---------------------------------------------------------------------------
# tau action (conjugation on the trace-zero space)
# ---------------------------------------------------------------------------

def tau_substitution(alg, y):
    """The linear substitution of tau_action(alg, y, .): column t holds the
    coordinates on i, j, k of y^{-1} e_t y = conj(y) e_t y / n(y), for
    e_t = i, j, k.

    y is a coordinate tuple.  Since tau(c y) = tau(y), callers pass integer
    coordinates where they have them (a lattice vector's integer_ambient):
    the products then run in ints, with one division by n(y) per entry.
    """
    a, b = alg.a, alg.b
    n = quaternion_norm(a, b, y)
    if not n:
        raise HarmonicsError("tau action needs nonzero y")
    conj = (y[0], -y[1], -y[2], -y[3])
    cols = []
    for t in range(1, 4):
        e = tuple(int(k == t) for k in range(4))
        w, *img = quaternion_product(a, b, quaternion_product(a, b, conj, e),
                                     y)
        if w:
            raise HarmonicsError("conjugation left the trace-zero space")
        cols.append([Fraction(x, n) for x in img])
    return transpose(cols)


def tau_action(alg, y, p):
    """(tau(y) P)(x) = P(y^{-1} x y) on trace-zero polynomials.

    Group action: tau(y1 y2) = tau(y1) o tau(y2); harmonicity and degree are
    preserved because conjugation is an isometry of the norm form.
    """
    return p.subs_linear(tau_substitution(alg, y))


# ---------------------------------------------------------------------------
# invariant trilinear forms
# ---------------------------------------------------------------------------

def balanced(a, b, c):
    return abs(a - b) <= c <= a + b


def _cross_bilinear(space, p, q):
    """SO(q)-equivariant epsilon coupling: eps(x, A^{-1} grad p, A^{-1} grad q).

    Used for balanced triples with odd degree sum, where the invariant
    coupling is the pseudo-scalar one and cannot be realized by plain
    Laplacian contraction of products.
    """
    n = space.dim
    ginv = space.gram_inv
    raised_p = [linear_combination(n, [p.diff(j) for j in range(n)], ginv[b])
                for b in range(n)]
    raised_q = [linear_combination(n, [q.diff(j) for j in range(n)], ginv[c])
                for c in range(n)]
    eps = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
           (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}
    return Poly(n, chain.from_iterable(
        (Poly.variable(n, a) * raised_p[b] * raised_q[c] * sign).terms.items()
        for (a, b, c), sign in eps.items()))


class TrilinearForm(namedtuple("TrilinearForm", "space degrees zero reason",
                               defaults=("",))):
    """Invariant coupling on H_a x H_b x H_c for one 3-space."""
    __slots__ = ()

    def value(self, p, q, r):
        """The coupling of p, q and r, for r harmonic of degree c."""
        a, b, c = self.degrees
        if self.zero:
            return Fraction(0)
        if (a + b + c) % 2:
            prod = _cross_bilinear(self.space, p, q)
            k = (a + b - 1 - c) // 2
        else:
            prod = p * q
            k = (a + b - c) // 2
        for _ in range(k):
            prod = self.space.laplacian(prod)
        return self.space.inner(prod, r, c)

    def tensor(self):
        """Full coupling tensor on the canonical bases: its nonzero entries."""
        if self.zero:
            return {}
        ba, bb, bc = (self.space.harmonic_basis(d) for d in self.degrees)
        out = {}
        for ia, pa in enumerate(ba):
            for ib, pb in enumerate(bb):
                for ic, pc in enumerate(bc):
                    v = self.value(pa, pb, pc)
                    if v:
                        out[(ia, ib, ic)] = v
        return out

    def nonzero_witness(self):
        """A basis triple with nonzero value, or None."""
        if self.zero:
            return None
        a, b, c = self.degrees
        for ia, pa in enumerate(self.space.harmonic_basis(a)):
            for ib, pb in enumerate(self.space.harmonic_basis(b)):
                for ic, pc in enumerate(self.space.harmonic_basis(c)):
                    if self.value(pa, pb, pc):
                        return (ia, ib, ic)
        return None


def trilinear_form(nu, beta1p, beta2p, space):
    """Invariant trilinear form on U_nu x U_{beta1p/2} x U_{beta2p/2}.

    beta1p, beta2p must be even.  The form is nonzero iff the half-degree
    triple is balanced (triangle inequalities) with even sum; otherwise the
    zero form is returned, tagged with the reason.
    """
    if beta1p % 2 or beta2p % 2 or beta1p < 0 or beta2p < 0:
        raise HarmonicsError("beta degrees must be even and nonnegative")
    a, b, c = nu, beta1p // 2, beta2p // 2
    if not balanced(a, b, c):
        return TrilinearForm(space, (a, b, c), True, reason="unbalanced")
    if (a + b + c) % 2:
        return TrilinearForm(space, (a, b, c), True, reason="parity")
    return TrilinearForm(space, (a, b, c), False)


def invariant_coupling(nu, beta1p, beta2p, space):
    """SO(3)-invariant coupling for every balanced triple (internal).

    Unlike trilinear_form this also realizes the pseudo-scalar coupling on
    balanced triples with odd degree sum (epsilon contraction); those arise
    for coefficient polynomials when nu1 - nu2 is odd.
    """
    form = trilinear_form(nu, beta1p, beta2p, space)
    if form.reason == "parity":
        return TrilinearForm(form.space, form.degrees, False)
    return form


# ---------------------------------------------------------------------------
# tensor split U_{2m}(4-space) = U_m x U_m (3-space pairs)
# ---------------------------------------------------------------------------

class SplitIso:
    """The equivariant isomorphism U_m x U_m -> U_{2m}(full space).

    Phi(P x Q)(x) pairs P(u) Q(v), u and v trace zero, against w^m for the
    invariant kernel w(x; u, v) = tr(u x v conj(x)) = u^T M(x) v.  By the
    reproducing property, pairing P(u) with (u^T a)^m gives m! P(A^{-1} a),
    A the Gram matrix of the 3-space; so Phi(P x Q) pairs m! P(A^{-1} M(x) v)
    with Q(v), and w^m is never expanded.  The images are harmonic in x: they
    have type (m, m) under the two similitude slots, and the degree-2m
    polynomials on the 4-space are the sum of q^{m-k} H_{2k}, H_{2k} of type
    (k, k), so only H_{2m} has that type (coords_in_basis checks it on every
    build).  Indices: u is the left similitude slot, v the right.
    """

    def __init__(self, alg, m):
        self.alg = alg
        self.m = m
        self.space3 = trace_zero_space(alg)
        self.space4 = full_space(alg)
        b3 = self.space3.harmonic_basis(m)
        gram_inv = self.space3.gram_inv
        self.pairs = [(r, s) for r in range(len(b3)) for s in range(len(b3))]
        a = _similitude_vector(alg, gram_inv)
        # P(u) paired with w^m leaves x:0-3 and v:4-6; pairing Q(v) leaves x
        raised = [_compose(b * factorial(m), a) for b in b3]
        mat = [self.space4.coords_in_basis(
            _pair_block(raised[r], b3[s], 4, gram_inv), 2 * m)
            for r, s in self.pairs]
        self.phi_matrix = mat              # rows indexed by (r,s) pairs
        self.phi_inv = inverse(mat)        # columns map basis4 -> pair coords

    def apply(self, p3_left, p3_right):
        """Phi(P x Q) as a harmonic polynomial on the full space."""
        coords_l = self.space3.coords_in_basis(p3_left, self.m)
        coords_r = self.space3.coords_in_basis(p3_right, self.m)
        b4 = self.space4.harmonic_basis(2 * self.m)
        return Poly(4, ((mono, x * (c * coef))
                        for row, (r, s) in zip(self.phi_matrix, self.pairs)
                        for c in (coords_l[r] * coords_r[s],) if c
                        for bt, coef in zip(b4, row) if coef
                        for mono, x in bt.terms.items()))


def _similitude_vector(alg, gram_inv):
    """A^{-1} M(x) v for w(x; u, v) = tr(u x v conj(x)) = u^T M(x) v.

    One Poly per u-slot in the vars x:0-3, v:4-6.  M(x) is read off the
    terms of w, each of which must have degree 1 in u and in v.
    """
    var = [Poly.variable(10, i) for i in range(10)]  # x:0-3, u:4-6, v:7-9
    zero = Poly.zero(10)
    prod = quaternion_product(alg.a, alg.b, [zero] + var[4:7], var[:4])
    prod = quaternion_product(alg.a, alg.b, prod, [zero] + var[7:])
    prod = quaternion_product(alg.a, alg.b, prod,
                              [var[0], -var[1], -var[2], -var[3]])
    rows = [[], [], []]
    for mono, c in (prod[0] * 2).terms.items():  # reduced trace
        if sum(mono[4:7]) != 1 or sum(mono[7:]) != 1:
            raise HarmonicsError("tr(u x v conj(x)) is not bilinear in u, v")
        i = mono[4:7].index(1)
        for k, row in enumerate(rows):
            row.append((mono[:4] + mono[7:], gram_inv[k][i] * c))
    return [Poly(7, row) for row in rows]


def _compose(p, images):
    """p with the polynomials images substituted for its variables."""
    return Poly(images[0].nvars, chain.from_iterable(
        reduce(mul, (img ** e for img, e in zip(images, mono) if e),
               Poly.const(images[0].nvars, c)).terms.items()
        for mono, c in p.terms.items()))


def linear_combination(nvars, basis, coords):
    """sum_i coords[i] * basis[i], built as one Poly in nvars variables."""
    return Poly(nvars, ((mono, x * c) for b, c in zip(basis, coords) if c
                        for mono, x in b.terms.items()))


@lru_cache(maxsize=None)
def split_iso(alg, m):
    """The SplitIso of (alg, m), built once per process."""
    return SplitIso(alg, m)


def _pair_block(big, small, offset, gram_inv):
    """Fischer-pair small against the block of small.nvars vars at offset.

    The result is a Poly in the other variables of big, in their order.
    """
    n = big.nvars
    k = small.nvars
    coeff = [[Fraction(0)] * n for _ in range(n)]
    for i in range(k):
        for j in range(k):
            coeff[offset + i][offset + j] = gram_inv[i][j]
    applied = apply_diff_operator(small.embed(n, offset), big, coeff)
    return Poly(n - k, ((mono[:offset] + mono[offset + k:], c)
                        for mono, c in applied.terms.items()
                        if not any(mono[offset:offset + k])))


# ---------------------------------------------------------------------------
# coefficient polynomials c_{alpha1 alpha2}
# ---------------------------------------------------------------------------

def c_coeff(q_bipoly, alpha1, alpha2, nu1, nu2, alg):
    """Coefficient polynomial c_{a1,a2}((x1,x2), Q) with normalization 1.

    q_bipoly: polynomial in 6 vars (s:0-2, t:3-5), bihomogeneous of degrees
    (nu1, nu2) and harmonic in each block, representing an element of
    U_{nu1} x U_{nu2} on the trace-zero space of alg.

    Output: Poly in 8 vars (x1:0-3, x2:4-7), harmonic of degree
    alpha_i + nu1 - nu2 in x_i.  Raises on parity violation.
    """
    if alpha1 + alpha2 != 2 * nu2:
        raise HarmonicsError("alpha1 + alpha2 must equal 2*nu2")
    a1p = alpha1 + nu1 - nu2
    a2p = alpha2 + nu1 - nu2
    if a1p % 2 or a2p % 2:
        raise HarmonicsError("alpha' degrees must be even (parity gate)")
    if a1p < 0 or a2p < 0:
        raise HarmonicsError("negative harmonic degree")
    m1, m2 = a1p // 2, a2p // 2
    space3 = trace_zero_space(alg)

    t1 = invariant_coupling(nu1, a1p, a2p, space3)
    t2 = invariant_coupling(nu2, a1p, a2p, space3)
    if t1.zero or t2.zero:
        return Poly.zero(8)

    # Q coordinates on basis(nu1) x basis(nu2)
    q_coords = _bipoly_coords(q_bipoly, space3, nu1, nu2)

    splits = (split_iso(alg, m1), split_iso(alg, m2))
    # the x1 components on vars 0-3, the x2 components on vars 4-7
    kers = ([d.embed(8) for d in _kernel_split_components(alg, m1)],
            [d.embed(8, 4) for d in _kernel_split_components(alg, m2)])

    ten1 = t1.tensor()
    ten2 = t2.tensor()
    if not ten1 or not ten2:
        return Poly.zero(8)

    terms = []
    for (ia, ib), qc in q_coords.items():
        for (r1, s1), d1 in zip(splits[0].pairs, kers[0]):
            if d1.is_zero():
                continue
            for (r2, s2), d2 in zip(splits[1].pairs, kers[1]):
                v1 = ten1.get((ia, r1, r2))
                if not v1:
                    continue
                v2 = ten2.get((ib, s1, s2))
                if not v2 or d2.is_zero():
                    continue
                terms.extend((d1 * d2 * (qc * v1 * v2)).terms.items())
    return Poly(8, terms)


@lru_cache(maxsize=None)
def _kernel_split_components(alg, m):
    """Split components of the 4-space kernel G^{(2m)}(x, .).

    Returns, for each (r, s) pair index of split_iso(alg, m), the
    x-polynomial coefficient (a Poly in the 4 vars of x).  Built once per
    (alg, m): callers share the list and must not mutate it.
    """
    space4 = full_space(alg)
    split = split_iso(alg, m)
    alpha = 2 * m
    bip = space4.kernel_bipoly(alpha)  # vars x:0-3, y:4-7
    # harmonic in y: coordinate t is the x-part at the free monomial t
    slot = {f: t for t, f in enumerate(space4.free_monomials(alpha))}
    coords = [[] for _ in slot]
    for mono, c in bip.terms.items():
        if mono[4:] in slot:
            coords[slot[mono[4:]]].append((mono[:4], c))
    # pair coordinate k: sum_t coords[t] * phi_inv[t][k]
    return [Poly(4, ((mono, c * row[k])
                     for group, row in zip(coords, split.phi_inv) if row[k]
                     for mono, c in group))
            for k in range(len(split.pairs))]


def _bipoly_coords(q_bipoly, space3, nu1, nu2):
    """Coordinates of a (nu1, nu2)-bipoly on basis x basis of the 3-space.

    Read off at the pairs of free monomials, as in coords_in_basis, and
    checked the same way: HarmonicsError unless the bipolynomial rebuilt from
    them is q_bipoly, so an input not harmonic in each block is refused.
    """
    b1 = space3.harmonic_basis(nu1)
    b2 = space3.harmonic_basis(nu2)
    terms = q_bipoly.terms
    out = {(ia, ib): terms[f1 + f2]
           for ia, f1 in enumerate(space3.free_monomials(nu1))
           for ib, f2 in enumerate(space3.free_monomials(nu2))
           if f1 + f2 in terms}
    rebuilt = linear_combination(6, [b1[ia].embed(6) * b2[ib].embed(6, 3)
                                     for ia, ib in out], list(out.values()))
    if rebuilt != q_bipoly:
        raise HarmonicsError(
            f"not a harmonic bipolynomial of degrees ({nu1}, {nu2})")
    return out


def random_harmonic(space, degree, rng):
    """Deterministic pseudo-random harmonic polynomial, with coordinates in
    -5..5 on the harmonic basis."""
    basis = space.harmonic_basis(degree)
    coords = [Fraction(rng.randint(-5, 5)) for _ in basis]
    return linear_combination(space.dim, basis, coords)
