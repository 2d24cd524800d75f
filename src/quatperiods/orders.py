"""Eichler orders, right ideal class sets, two-sided ideals, essential part.

Ideals and orders are stored as row-basis matrices in the coordinates
1, i, j, k of the ambient algebra.  Class sets are computed by p-neighbor
traversal seeded at the order itself, with the Eichler mass formula as the
termination certificate (the mass formula is imported as a standard fact;
it is not proved in this package).

At p | N both the two-sided ideal of norm p and the index-p superorders come
from one 4 x 4 kernel mod p: the trace Gram of the order reduced mod p has
kernel P/pO with P = O & pO^#, the dual O^# taken under the reduced-trace
form.  Every kernel mod p here is _linalg.nullspace over F_p.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from ._linalg import (det, frac_mat, hnf_rational, identity, inverse,
                      lattice_index, lattice_intersection, mat_mul, nullspace,
                      transpose, vec_mat)
from .lattice import IntLattice, short_vectors
from .quatalg import (Quaternion, _is_squarefree, _prime_factors,
                      algebra_for_discriminant, good_primes)


class OrderError(ValueError):
    pass


# ---------------------------------------------------------------------------
# orders
# ---------------------------------------------------------------------------

def _basis_quaternions(alg, basis):
    return [Quaternion(alg, *row) for row in basis]


def _span_contains(basis_inv, vec):
    coords = vec_mat([Fraction(x) for x in vec], basis_inv)
    return all(c.denominator == 1 for c in coords)


def _is_order(alg, basis):
    """Check: full rank, contains 1, closed under multiplication."""
    if det(basis) == 0:
        return False
    binv = inverse(basis)
    if not _span_contains(binv, [1, 0, 0, 0]):
        return False
    qs = _basis_quaternions(alg, basis)
    for x in qs:
        for y in qs:
            if not _span_contains(binv, (x * y).coords()):
                return False
    return True


class EichlerOrder:
    """An order in a definite quaternion algebra, of squarefree level N."""

    def __init__(self, algebra, basis):
        self.algebra = algebra
        self.basis = hnf_rational(basis)
        if not _is_order(algebra, self.basis):
            raise OrderError("basis does not span an order")
        self._inv = inverse(self.basis)

    # -- lattice views -------------------------------------------------------
    def norm_lattice(self):
        return IntLattice(self.basis, self.algebra.norm_gram())

    def basis_quaternions(self):
        return _basis_quaternions(self.algebra, self.basis)

    def contains(self, q):
        return _span_contains(self._inv, q.coords())

    def coords_of(self, q):
        return vec_mat(q.coords(), self._inv)

    def element_from_coords(self, coords):
        amb = vec_mat([Fraction(c) for c in coords], self.basis)
        return Quaternion(self.algebra, *amb)

    def reduced_discriminant(self):
        g = self.norm_lattice().basis_gram()
        d = det(g)
        if d.denominator != 1:
            raise OrderError("trace form determinant is not integral")
        r = math.isqrt(d.numerator)
        if r * r != d.numerator:
            raise OrderError("trace form determinant is not a perfect square")
        return r

    @property
    def level(self):
        return self.reduced_discriminant()

    def unit_count(self):
        return len(short_vectors(self.norm_lattice(), 1))

    def key(self):
        return tuple(tuple(row) for row in self.basis)

    def to_json(self):
        return {
            "algebra": self.algebra.to_json(),
            "basis": [[str(x) for x in row] for row in self.basis],
            "level": self.level,
        }

    def __eq__(self, other):
        return isinstance(other, EichlerOrder) and \
            self.algebra == other.algebra and self.basis == other.basis

    def __hash__(self):
        return hash((self.algebra, self.key()))

    def __repr__(self):
        return f"EichlerOrder(disc {self.algebra.discriminant}, level {self.level})"


def _enlarge_once(order, p):
    """Find a superorder of index p inside (1/p) * order, or None."""
    alg = order.algebra
    basis = order.basis
    qs = order.basis_quaternions()
    single = []
    for c in _nonzero_tuples(p, 4):
        v = sum((qi * Fraction(ci) for qi, ci in zip(qs, c)),
                Quaternion(alg, 0, 0, 0, 0)) * Fraction(1, p)
        if v.trace().denominator != 1 or v.norm().denominator != 1:
            continue
        if order.contains(v):
            continue
        single.append(v)
        cand = hnf_rational(basis + [v.coords()])
        if len(cand) == 4 and _is_order(alg, cand):
            return cand
    # rare fallback: an index-p^2 step generated by two integral candidates
    for ii in range(len(single)):
        for jj in range(ii + 1, len(single)):
            cand = hnf_rational(basis + [single[ii].coords(),
                                         single[jj].coords()])
            if len(cand) == 4 and _is_order(alg, cand):
                return cand
    return None


def _nonzero_tuples(p, n):
    total = p ** n
    for idx in range(1, total):
        t = []
        v = idx
        for _ in range(n):
            t.append(v % p)
            v //= p
        yield tuple(t)


@lru_cache(maxsize=None)
def maximal_order(algebra):
    """A maximal order, found by saturating Z<1,i,j,k> prime by prime."""
    order = EichlerOrder(algebra, identity(4))
    target = algebra.discriminant
    d = order.reduced_discriminant()
    while d != target:
        excess = d // target
        p = _prime_factors(excess)[0]
        bigger = _enlarge_once(order, p)
        if bigger is None:
            raise OrderError(f"cannot enlarge order at p={p}")
        order = EichlerOrder(algebra, bigger)
        d = order.reduced_discriminant()
    return order


def _sqrt_mod_p(a, p):
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, tt = 0, t
        while tt != 1:
            tt = tt * tt % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _find_idempotent(order, p):
    """A nontrivial idempotent of order/p*order (requires p unramified)."""
    one_red = [int(v) % p for v in order.coords_of(order.algebra.one())]
    for c in _nonzero_tuples(p, 4):
        x = order.element_from_coords(list(c))
        if p == 2:
            diff = order.coords_of(x * x - x)
            if all(int(v) % 2 == 0 for v in diff):
                red = [ci % 2 for ci in c]
                if any(red) and red != one_red:
                    return x
            continue
        tr, nm = int(x.trace()), int(x.norm())
        disc = (tr * tr - 4 * nm) % p
        if disc == 0:
            continue
        root = _sqrt_mod_p(disc, p)
        if root is None:
            continue
        inv2 = pow(2, -1, p)
        lam = (tr + root) * inv2 % p
        mu = (tr - root) * inv2 % p
        if lam == mu:
            continue
        dinv = pow((lam - mu) % p, -1, p)
        e_coords = [((ci - mu * oc) * dinv) % p
                    for ci, oc in zip(c, one_red)]
        e = order.element_from_coords(e_coords)
        diff = order.coords_of(e * e - e)
        if all(int(v) % p == 0 for v in diff):
            if any(e_coords) and e_coords != one_red:
                return e
    raise OrderError(f"no idempotent found mod {p}")


def eichler_order(maximal, n2):
    """Eichler order of level disc * n2 inside a maximal order.

    n2 must be squarefree and coprime to the discriminant.  At each p | n2
    the result is the preimage of upper triangular matrices under a splitting
    order/p ~ M_2(F_p).
    """
    n2 = int(n2)
    alg = maximal.algebra
    if n2 < 1 or not _is_squarefree(n2):
        raise OrderError("level factor must be squarefree")
    if math.gcd(n2, alg.discriminant) != 1:
        raise OrderError("level factor must be coprime to the discriminant")
    order = maximal
    for p in _prime_factors(n2):
        e = _find_idempotent(order, p)
        f = alg.one() - e
        # matrix of z -> (1-e) z e on order coordinates, mod p
        rows_map = []
        for bq in order.basis_quaternions():
            w = order.coords_of(f * bq * e)
            rows_map.append([int(v) % p for v in w])
        kernel = nullspace(transpose(rows_map), p)
        if len(kernel) != 3:
            raise OrderError(f"unexpected kernel dimension at p={p}")
        sub = [order.element_from_coords(k).coords() for k in kernel]
        sub += [[p * x for x in row] for row in order.basis]
        new_basis = hnf_rational(sub)
        new_order = EichlerOrder(alg, new_basis)
        if new_order.reduced_discriminant() != p * order.reduced_discriminant():
            raise OrderError(f"suborder at {p} has wrong discriminant")
        order = new_order
    return order


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------

def conj_basis(alg, basis):
    return [Quaternion(alg, *row).conj().coords() for row in basis]


def product_basis(alg, basis_a, basis_b):
    rows = []
    for ra in basis_a:
        qa = Quaternion(alg, *ra)
        for rb in basis_b:
            rows.append((qa * Quaternion(alg, *rb)).coords())
    return hnf_rational(rows)


def left_order_basis(alg, basis):
    """Basis of {x in D : x * I <= I} for the lattice I."""
    binv = inverse(frac_mat(basis))
    inter = None
    for row in basis:
        # condition: coords(x * b) integral, i.e. x in Z^4 * (M_b * binv)^{-1}
        mb = right_mul_matrix_of(alg, row)
        cond = mat_mul(mb, binv)
        latt = inverse(cond)  # rows span {x : x * cond in Z^4}
        inter = latt if inter is None else lattice_intersection(inter, latt)
    return hnf_rational(inter)


def right_mul_matrix_of(alg, row):
    """Matrix M with coords(x * b) = coords(x) * M for b with given coords."""
    b = Quaternion(alg, *row)
    rows = []
    for e in (alg.one(),) + alg.gens():
        rows.append((e * b).coords())
    return frac_mat(rows)


# ---------------------------------------------------------------------------
# class sets
# ---------------------------------------------------------------------------

def _square_part(n):
    """Largest s with s^2 | n, for a positive integer n."""
    s = 1
    for p in _prime_factors(n):
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        s *= p ** (v // 2)
    return s


def eichler_mass(n1, n2):
    """Mass of an Eichler order of level n1*n2 (standard fact, used as a
    termination certificate and test oracle)."""
    m = Fraction(1, 24)
    for p in _prime_factors(n1):
        m *= (p - 1)
    for p in _prime_factors(n2):
        m *= (p + 1)
    return m


class ClassSet:
    """Right ideal classes of an Eichler order.

    reps[0] is the order itself.  connecting(i, j) is the primitively scaled
    lattice I_i * conj(I_j); its norm form counts Brandt matrix entries.
    """

    def __init__(self, order, reps, left_orders, unit_counts):
        self.order = order
        self.reps = reps
        self.left_orders = left_orders
        self.unit_counts = unit_counts
        self._connecting = {}

    @property
    def size(self):
        return len(self.reps)

    def mass(self):
        return sum(Fraction(1, e) for e in self.unit_counts)

    def connecting(self, i, j):
        """Primitively scaled I_i * conj(I_j) with its norm form.

        The square part of the content is divided out of the basis and the
        rest out of the form, so the scaled norm form is integral primitive
        and connecting(i, i) is literally the left order.
        """
        if (i, j) not in self._connecting:
            alg = self.order.algebra
            prod = product_basis(alg, self.reps[i],
                                 conj_basis(alg, self.reps[j]))
            lat = IntLattice(prod, alg.norm_gram())
            c = lat.content()
            s = Fraction(_square_part(c.numerator), _square_part(c.denominator))
            m = c / (s * s)
            basis = [[x / s for x in row] for row in lat.basis]
            self._connecting[(i, j)] = IntLattice(
                basis, lat.gram).rescaled(Fraction(1, m))
        return self._connecting[(i, j)]

    def to_json(self):
        return {
            "order": self.order.to_json(),
            "class_number": self.size,
            "unit_counts": self.unit_counts,
            "mass": str(self.mass()),
            "reps": [[[str(x) for x in row] for row in rep]
                     for rep in self.reps],
        }


def _neighbors(alg, ideal_basis, left_ord, p):
    """The p+1 neighbor ideals u*I + p*I for rank-1 u in the left order."""
    found = {}
    qs = left_ord.basis_quaternions()
    for c in _nonzero_tuples(p, 4):
        u = sum((qi * Fraction(ci) for qi, ci in zip(qs, c)),
                Quaternion(alg, 0, 0, 0, 0))
        if u.norm() % p != 0:
            continue
        rows = [(u * Quaternion(alg, *row)).coords() for row in ideal_basis]
        rows += [[p * x for x in row] for row in ideal_basis]
        nb = hnf_rational(rows)
        if lattice_index(frac_mat(ideal_basis), nb) != p * p:
            continue
        key = tuple(tuple(x for x in row) for row in nb)
        if key not in found:
            found[key] = nb
            if len(found) == p + 1:
                break
    return [found[k] for k in sorted(found)]


def norm_one_element(alg, basis_a, basis_b):
    """First element of norm 1 in I * conj(J) rescaled by its content, or None.

    The content of the product lattice is n(I)n(J); such an element q exists
    iff I ~ J, and then I = q * J up to units.
    """
    prod = product_basis(alg, basis_a, conj_basis(alg, basis_b))
    lat = IntLattice(prod, alg.norm_gram())
    scaled = lat.rescaled(Fraction(1, lat.content()))
    for v, q in short_vectors(scaled, 1):
        if q == 1:
            return Quaternion(alg, *scaled.ambient(v))
    return None


def ideals_equivalent(alg, basis_a, basis_b):
    """Right ideal equivalence I ~ J: the rescaled I * conj(J) represents 1."""
    return norm_one_element(alg, basis_a, basis_b) is not None


def right_ideal_classes(order):
    """Complete, duplicate-free right ideal class set via p-neighbors.

    Deterministic: BFS from the order, neighbors in canonical order, and the
    Eichler mass certifies completeness.
    """
    alg = order.algebra
    n = order.reduced_discriminant()
    n1 = alg.discriminant
    n2 = n // n1
    target = eichler_mass(n1, n2)
    p = good_primes(n, 1)[0]

    reps = [order.basis]
    left_orders = [order]
    unit_counts = [order.unit_count()]
    acc = Fraction(1, unit_counts[0])
    frontier = 0
    while acc < target and frontier < len(reps):
        basis = reps[frontier]
        lord = left_orders[frontier]
        for nb in _neighbors(alg, basis, lord, p):
            if acc >= target:
                break
            if any(ideals_equivalent(alg, nb, r) for r in reps):
                continue
            lo = EichlerOrder(alg, left_order_basis(alg, nb))
            reps.append(nb)
            left_orders.append(lo)
            unit_counts.append(lo.unit_count())
            acc += Fraction(1, unit_counts[-1])
        frontier += 1
    if acc != target:
        raise OrderError(
            f"class set incomplete: mass {acc} != {target} (disc {n1}, level {n})")
    return ClassSet(order, reps, left_orders, unit_counts)


@lru_cache(maxsize=None)
def class_set_for(n1, n2=1):
    """Class set of an Eichler order of level n1*n2 in the disc-n1 algebra."""
    alg = algebra_for_discriminant(n1)
    maximal = maximal_order(alg)
    order = maximal if n2 == 1 else eichler_order(maximal, n2)
    return right_ideal_classes(order)


# ---------------------------------------------------------------------------
# two-sided ideals (Atkin-Lehner support)
# ---------------------------------------------------------------------------

def _dual_kernel_mod_p(order, p):
    """O-coordinates mod p of (O & pO^#)/pO: the kernel of the trace Gram mod p.

    x = c * basis lies in pO^# iff tr(x conj(y)) is divisible by p for every
    y in O, i.e. iff c * G = 0 mod p for the Gram G of the order's basis.
    """
    gram = order.norm_lattice().basis_gram()
    return nullspace(transpose([[int(x) for x in row] for row in gram]), p)


@lru_cache(maxsize=None)
def two_sided_prime_ideal(order, p):
    """The unique two-sided ideal P of reduced norm p (p | level), P^2 = pR.

    P = O & pO^#, where O^# is the dual of O under the reduced-trace form.
    O^# is the inverse of the different, and at p | N the different is the
    unique two-sided ideal of norm p (the ramified prime for p | N1, the
    Atkin-Lehner ideal O(0 1; p 0) for p | N2), whose square is pO; so
    pO^# = P locally at p (Voight, Quaternion Algebras, GTM 288: the
    discriminant and different, and Eichler orders).  P/pO is the kernel of
    the trace Gram mod p; both certificates below are checked anyway.
    """
    if order.reduced_discriminant() % p != 0:
        raise OrderError(f"{p} does not divide the level")
    rows = [order.element_from_coords(k).coords()
            for k in _dual_kernel_mod_p(order, p)]
    basis = hnf_rational(rows + [[p * x for x in row] for row in order.basis])
    if lattice_index(order.basis, basis) != p * p:
        raise OrderError(f"two-sided ideal at {p} does not have index {p}^2")
    bq = _basis_quaternions(order.algebra, basis)
    for x in bq:
        for y in bq:
            if any((c / p).denominator != 1 for c in order.coords_of(x * y)):
                raise OrderError(f"two-sided ideal at {p}: P*P is not in pR")
    return basis


# ---------------------------------------------------------------------------
# essential part
# ---------------------------------------------------------------------------

def superorders_at(order, p):
    """All superorders of index p (level N/p) containing the order, p | N.

    A superorder O' of index p satisfies pO' <= O and O' <= O'^# <= O^#, so
    O' <= (1/p)O & O^# = (1/p)P with P = O & pO^# (see two_sided_prime_ideal),
    and O'/O is a line in (1/p)P/O, the p-part of O^#/O.  That space is P/pO
    scaled by 1/p and is 2-dimensional over F_p, so its p+1 lines, lifted as
    v = lift(line)/p, hold every candidate (Voight, Quaternion Algebras,
    GTM 288: the discriminant and different, and Eichler orders).  For
    p | N1 the order is maximal at p and the list is empty.
    """
    alg = order.algebra
    kernel = _dual_kernel_mod_p(order, p)
    if len(kernel) != 2:
        raise OrderError(f"p-part of O^#/O at {p} is not 2-dimensional")
    k1, k2 = kernel
    lines = [[(a + t * b) % p for a, b in zip(k1, k2)] for t in range(p)]
    lines.append(k2)
    found = {}
    for c in lines:
        v = order.element_from_coords(c) * Fraction(1, p)
        if v.trace().denominator != 1 or v.norm().denominator != 1:
            continue
        cand = hnf_rational(order.basis + [v.coords()])
        if _is_order(alg, cand):
            key = tuple(tuple(x for x in row) for row in cand)
            found[key] = cand
    return [EichlerOrder(alg, found[k]) for k in sorted(found)]


def class_map_to_superorder(class_set, super_cs):
    """Map on class indices [I] -> [I * R'] into a superorder's class set."""
    alg = class_set.order.algebra
    out = []
    for rep in class_set.reps:
        ext = product_basis(alg, rep, super_cs.order.basis)
        j = next(i for i, r in enumerate(super_cs.reps)
                 if ideals_equivalent(alg, ext, r))
        out.append(j)
    return out


@lru_cache(maxsize=None)
def essential_complement(class_set):
    """Projector (as an exact matrix) onto the essential part at weight 0.

    Pullbacks come from all index-p superorders (p | N2); for a maximal order
    the non-essential space is spanned by the constant function.  Memoised per
    class set: callers share the returned matrix and must not mutate it.
    """
    r = class_set.size
    n1 = class_set.order.algebra.discriminant
    n2 = class_set.order.reduced_discriminant() // n1
    vectors = [[Fraction(1)] * r]  # constants always pull back
    for p in _prime_factors(n2):
        for sup in superorders_at(class_set.order, p):
            sup_cs = right_ideal_classes(sup)
            cmap = class_map_to_superorder(class_set, sup_cs)
            for k in range(sup_cs.size):
                vectors.append([Fraction(1 if cmap[i] == k else 0)
                                for i in range(r)])
    # orthogonal projector onto complement w.r.t. <u, v> = sum u_i v_i / e_i
    weights = [Fraction(1, e) for e in class_set.unit_counts]

    def wdot(u, v):
        return sum(u[i] * v[i] * weights[i] for i in range(r))

    # Gram-Schmidt the pullback span, then subtract
    ortho = []
    for v in vectors:
        w = list(v)
        for u in ortho:
            c = wdot(w, u) / wdot(u, u)
            w = [w[i] - c * u[i] for i in range(r)]
        if any(w):
            ortho.append(w)
    proj = [[Fraction(int(i == j)) for j in range(r)] for i in range(r)]
    for u in ortho:
        uu = wdot(u, u)
        for i in range(r):
            for j in range(r):
                proj[i][j] -= u[i] * u[j] * weights[j] / uu
    return proj
