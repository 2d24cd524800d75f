"""Eichler orders, right ideal class sets, two-sided ideals, essential part.

Ideals and orders are stored as one canonical pair (den, rows) of
_linalg.hnf_lattice: integer HNF rows over one denominator, in the
coordinates 1, i, j, k of an algebra with integer a, b.  A row is den
times the coordinates of a quaternion, so products of rows go through
quatalg.quaternion_product and norms through quatalg.quaternion_norm, both
in integers.  Membership and coordinates
back-substitute down the HNF, and an index is a ratio of HNF diagonals.
Class sets are computed by p-neighbor traversal seeded at the order itself,
with the Eichler mass formula as the termination certificate (the mass
formula is imported as a standard fact; it is not proved in this package).
Every class search, in this module and in brandt, asks ClassSet.locate:
I ~ J iff I*conj(J), rescaled by its content, has an element of norm 1.

Superorders, two-sided ideals, left orders and the order test all come
from two primitives: the kernel mod p of an order's trace Gram, and the
product I*J of two lattices (product_basis, scaled by connecting_lattice).
They rest on three facts from Voight, Quaternion Algebras, GTM 288:
- an index-p superorder O' of O satisfies pO' <= O and O' <= O'^# <= O^#,
  the dual taken under the reduced-trace form, so O' = O + Zv with
  v = lift(c)/p for a line c of the trace-Gram kernel mod p, which is
  (O & pO^#)/pO (the chapters on discriminants and the different);
- a full lattice L is an order iff 1 is in L and L*L = L: an order is a
  lattice that is a subring, and 1 in L makes L <= L*L (the chapter on
  orders);
- for a locally principal right ideal I of an Eichler order,
  I*conj(I) = n(I) O_l(I), so the left order is I*conj(I) / n(I) (the
  chapter on quaternion ideals and invertibility).
Every kernel mod p here is _linalg.nullspace over F_p.

The essential part is given by what it is orthogonal to: essential_complement
lists the constants and the pullbacks of functions on the class sets of the
index-p superorders, and a weight-0 form is essential iff it is orthogonal
to each of them under sum_i u_i v_i / e_i (brandt._make_eigenform).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from ._linalg import hnf_lattice, hnf_solve, nullspace, reduced_pair, vec_mat
from .lattice import IntLattice, norm_counts, short_vectors
from .quatalg import (_is_squarefree, _prime_factors, _square_part,
                      algebra_for_discriminant, good_primes,
                      quaternion_norm, quaternion_product)


class OrderError(ValueError):
    pass


# ---------------------------------------------------------------------------
# orders
# ---------------------------------------------------------------------------

def _coords(basis, d, num):
    """Integer coordinates in basis = (den, rows) of the element num / d,
    or None if it is not in the lattice."""
    den, rows = basis
    t = [x * den for x in num]
    if any(x % d for x in t):
        return None
    return hnf_solve(rows, [x // d for x in t])


def _covolume(basis):
    """Covolume of a rank-4 lattice (den, rows) in the coordinates 1, i, j, k:
    the product of the HNF diagonal over den^4."""
    den, rows = basis
    return Fraction(math.prod(row[i] for i, row in enumerate(rows)), den ** 4)


def _in_rational_order(bases):
    """Rank-4 bases (den, rows) in the lexicographic order of their rational
    rows rows / den, compared over one common denominator."""
    bases = list(bases)
    m = math.lcm(*(den for den, _ in bases))
    return sorted(bases, key=lambda b: [x * (m // b[0])
                                        for row in b[1] for x in row])


def _basis_json(basis):
    den, rows = basis
    return [[str(Fraction(x, den)) for x in row] for row in rows]


def _is_order(alg, basis):
    """Whether the lattice of a canonical basis is an order: rank 4, 1 in L
    and L*L = L."""
    return len(basis[1]) == 4 and \
        _coords(basis, 1, (1, 0, 0, 0)) is not None and \
        product_basis(alg, basis, basis) == basis


class EichlerOrder:
    """An order in a definite quaternion algebra, of squarefree level N.

    basis is the canonical (den, rows) of _linalg.hnf_lattice.  The level is
    the reduced discriminant, the square root of the determinant of the
    trace form: 4|ab| times the covolume of the basis.
    """

    def __init__(self, algebra, basis):
        self.algebra = algebra
        self.basis = hnf_lattice(*basis)
        if not _is_order(algebra, self.basis):
            raise OrderError("basis does not span an order")
        level = 4 * abs(algebra.a * algebra.b) * _covolume(self.basis)
        if level.denominator != 1:
            raise OrderError("reduced discriminant is not an integer")
        self.level = level.numerator

    def norm_lattice(self):
        return IntLattice(self.basis, self.algebra.norm_gram())

    def unit_count(self):
        return norm_counts(self.norm_lattice(), 1)[1]

    def to_json(self):
        return {
            "algebra": self.algebra.to_json(),
            "basis": _basis_json(self.basis),
            "level": self.level,
        }

    def __eq__(self, other):
        return isinstance(other, EichlerOrder) and \
            self.algebra == other.algebra and self.basis == other.basis

    def __hash__(self):
        return hash((self.algebra, self.basis))

    def __repr__(self):
        return f"EichlerOrder(disc {self.algebra.discriminant}, level {self.level})"


def _superorder_bases(order, p, kernel):
    """Canonical bases of the index-p superorders O + Zv, v = lift(c)/p, for
    the lines c of the span of kernel mod p (see _dual_kernel_mod_p).

    O + Zv depends only on the line of c, and a nonzero c puts v outside O.
    Each line is tried once, as its vector whose last nonzero coordinate is
    1, in increasing order of sum c_i p^i: the order in which a walk over
    (Z/p)^4 first meets it, so the first basis yielded is that walk's.
    """
    den, rows = order.basis
    alg = order.algebra
    span = {tuple(sum(t * k[i] for t, k in zip(ts, kernel)) % p
                  for i in range(4))
            for ts in itertools.product(range(p), repeat=len(kernel))}
    lines = [c for c in span if any(c) and [x for x in c if x][-1] == 1]
    p_rows = [[p * x for x in row] for row in rows]
    for c in sorted(lines, key=lambda c: c[::-1]):
        y = vec_mat(c, rows)                    # v = y / (p den)
        if 2 * y[0] % (p * den) or \
                quaternion_norm(alg.a, alg.b, y) % (p * den) ** 2:
            continue                            # trace or norm not integral
        cand = hnf_lattice(p * den, p_rows + [y])
        if _is_order(alg, cand):
            yield cand


def _nonzero_tuples(p, n):
    """The nonzero c in (Z/p)^n in increasing order of sum c_i p^i."""
    return (t[::-1] for t in itertools.product(range(p), repeat=n) if any(t))


@lru_cache(maxsize=None)
def maximal_order(algebra):
    """A maximal order, found by saturating Z<1,i,j,k> prime by prime."""
    order = EichlerOrder(algebra, (1, [[int(i == j) for j in range(4)]
                                       for i in range(4)]))
    target = algebra.discriminant
    while order.level != target:
        p = _prime_factors(order.level // target)[0]
        kernel = _dual_kernel_mod_p(order, p)
        bigger = next(_superorder_bases(order, p, kernel), None)
        if bigger is None:
            raise OrderError(f"cannot enlarge order at p={p}")
        order = EichlerOrder(algebra, bigger)
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
    """Order coordinates of a nontrivial idempotent of order/p*order
    (requires p unramified)."""
    den, rows = order.basis
    a, b = order.algebra.a, order.algebra.b
    one_red = [v % p for v in _coords(order.basis, 1, (1, 0, 0, 0))]

    def idempotent(c):
        # x = y / den, so x*x - x = (y*y - den y) / den^2
        y = vec_mat(c, rows)
        diff = _coords(order.basis, den * den,
                       [s - den * t for s, t in
                        zip(quaternion_product(a, b, y, y), y)])
        return all(v % p == 0 for v in diff)

    for c in _nonzero_tuples(p, 4):
        if p == 2:
            if list(c) != one_red and idempotent(c):
                return list(c)
            continue
        y = vec_mat(c, rows)
        tr, nm = 2 * y[0] // den, quaternion_norm(a, b, y) // (den * den)
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
        if any(e_coords) and e_coords != one_red and idempotent(e_coords):
            return e_coords
    raise OrderError(f"no idempotent found mod {p}")


def eichler_order(maximal, n2):
    """Eichler order of level disc * n2 inside a maximal order.

    n2 must be squarefree and coprime to the discriminant.  At each p | n2
    the result is Z + eO + pO for an idempotent e of O/p ~ M_2(F_p): its
    image mod p is F_p + e M_2(F_p), the upper triangular matrices when e
    is diag(1, 0).
    """
    n2 = int(n2)
    alg = maximal.algebra
    if n2 < 1 or not _is_squarefree(n2):
        raise OrderError("level factor must be squarefree")
    if math.gcd(n2, alg.discriminant) != 1:
        raise OrderError("level factor must be coprime to the discriminant")
    a, b = alg.a, alg.b
    order = maximal
    for p in _prime_factors(n2):
        den, rows = order.basis
        e = vec_mat(_find_idempotent(order, p), rows)   # e / den
        sub = [[den * den, 0, 0, 0]]
        sub += [quaternion_product(a, b, e, row) for row in rows]
        sub += [[p * den * x for x in row] for row in rows]
        new_order = EichlerOrder(alg, (den * den, sub))
        if new_order.level != p * order.level:
            raise OrderError(f"suborder at {p} has wrong discriminant")
        order = new_order
    return order


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------

def product_basis(alg, basis_a, basis_b):
    """Canonical basis of I*J: the products of the rows over den_I den_J."""
    (da, ra), (db, rb) = basis_a, basis_b
    return hnf_lattice(da * db, [quaternion_product(alg.a, alg.b, x, y)
                                 for x in ra for y in rb])


def times_conj(alg, basis_a, basis_b):
    """I * conj(J) with the norm form; conj flips the signs of i, j, k."""
    den, rows = basis_b
    conj = (den, [(w, -x, -y, -z) for w, x, y, z in rows])
    return IntLattice(product_basis(alg, basis_a, conj), alg.norm_gram())


def connecting_lattice(alg, basis_a, basis_b):
    """Primitively scaled I * conj(J) with its norm form.

    The square part of the content is divided out of the basis and the rest
    out of the form, so the scaled norm form is integral primitive.  For
    J = I the content is n(I)^2 and the lattice is the left order of I.
    """
    lat = times_conj(alg, basis_a, basis_b)
    c = lat.content()
    sn, sd = _square_part(c.numerator), _square_part(c.denominator)
    den, rows = lat.basis
    # sd times an HNF is an HNF: only the gcd is left to divide out
    basis = reduced_pair(den * sn, [[x * sd for x in row] for row in rows])
    return IntLattice(basis, lat.gram).rescaled(
        Fraction(c.denominator // (sd * sd), c.numerator // (sn * sn)))


# ---------------------------------------------------------------------------
# class sets
# ---------------------------------------------------------------------------

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
    """Right ideal classes of an Eichler order: the one place that stores
    them and tells which of them an ideal is in (locate).

    ClassSet(order) starts empty and add appends a class; reps[0] is the
    order itself once right_ideal_classes has run.  connecting(i, j) is the
    primitively scaled lattice I_i * conj(I_j); its norm form counts Brandt
    matrix entries.  connecting holds the lattices already built, keyed by
    (i, j).
    """

    def __init__(self, order):
        self.order = order
        self.reps = []
        self.left_orders = []
        self.unit_counts = []
        self._connecting = {}

    @property
    def size(self):
        return len(self.reps)

    def mass(self):
        return sum(Fraction(1, e) for e in self.unit_counts)

    def add(self, basis):
        """Append the class of the right ideal basis, with its left order,
        read off connecting(i, i), and that order's unit count."""
        self.reps.append(basis)
        i = self.size - 1
        left = EichlerOrder(self.order.algebra, self.connecting(i, i).basis)
        self.left_orders.append(left)
        self.unit_counts.append(left.unit_count())

    def locate(self, basis):
        """(j, q) for the first class I_j that holds the right ideal I of
        basis, or None.

        I * conj(I_j), its norm form divided by its content n(I) n(I_j), has
        an element of norm 1 iff I ~ I_j, and then q I_j = n(I_j) I for each
        such element q.  q is the first one in short_vectors' order, as a
        tuple of Fraction coordinates.
        """
        alg = self.order.algebra
        for j, rep in enumerate(self.reps):
            lat = times_conj(alg, basis, rep)
            scaled = lat.rescaled(1 / lat.content())
            for v, q in short_vectors(scaled, 1):
                if q == 1:
                    return j, tuple(scaled.ambient(v))
        return None

    def connecting(self, i, j):
        """connecting_lattice of I_i and I_j; connecting(i, i) is the left
        order of I_i."""
        if (i, j) not in self._connecting:
            self._connecting[(i, j)] = connecting_lattice(
                self.order.algebra, self.reps[i], self.reps[j])
        return self._connecting[(i, j)]

    def to_json(self):
        return {
            "order": self.order.to_json(),
            "class_number": self.size,
            "unit_counts": self.unit_counts,
            "mass": str(self.mass()),
            "reps": [_basis_json(rep) for rep in self.reps],
        }


def _neighbors(alg, ideal_basis, left_ord, p):
    """The p+1 neighbor ideals u*I + p*I for rank-1 u in the left order,
    in the order of their rational rows."""
    a, b = alg.a, alg.b
    den, rows = ideal_basis
    lden, lrows = left_ord.basis
    p_rows = [[p * lden * x for x in row] for row in rows]
    found = set()
    for c in _nonzero_tuples(p, 4):
        u = vec_mat(c, lrows)                   # u / lden, of integral norm
        if quaternion_norm(a, b, u) % (p * lden * lden):
            continue
        nb = hnf_lattice(lden * den, [quaternion_product(a, b, u, row)
                                      for row in rows] + p_rows)
        if _covolume(nb) == p * p * _covolume(ideal_basis):
            found.add(nb)
            if len(found) == p + 1:
                break
    return _in_rational_order(found)


def right_ideal_classes(order):
    """Complete, duplicate-free right ideal class set via p-neighbors.

    Deterministic: BFS from the order, neighbors in canonical order, each
    added when ClassSet.locate finds it in no class yet; the Eichler mass
    certifies completeness.
    """
    alg = order.algebra
    n = order.level
    n1 = alg.discriminant
    target = eichler_mass(n1, n // n1)
    p = good_primes(n, 1)[0]

    class_set = ClassSet(order)
    class_set.add(order.basis)
    mass = class_set.mass()
    frontier = 0
    while mass < target and frontier < class_set.size:
        for nb in _neighbors(alg, class_set.reps[frontier],
                             class_set.left_orders[frontier], p):
            if class_set.locate(nb) is None:
                class_set.add(nb)
                mass = class_set.mass()
                if mass >= target:
                    break
        frontier += 1
    if mass != target:
        raise OrderError(f"class set incomplete: mass {mass} != {target} "
                         f"(disc {n1}, level {n})")
    return class_set


@lru_cache(maxsize=None)
def class_set_for(n1, n2=1):
    """Class set of an Eichler order of level n1*n2 in the disc-n1 algebra.
    Memoised, and callers pass n2, since lru_cache keys (n1,) and (n1, 1)
    apart."""
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
    y in O, i.e. iff c * G = 0 mod p for the Gram G of the order's basis;
    G is symmetric, so that is the kernel of G itself.
    """
    den, gram = order.norm_lattice().integer_gram
    if den != 1:
        raise OrderError("the trace form is not integral on the order")
    return nullspace(gram, p)


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
    if order.level % p != 0:
        raise OrderError(f"{p} does not divide the level")
    den, rows = order.basis
    p_rows = [[p * x for x in row] for row in rows]
    basis = hnf_lattice(den, [vec_mat(k, rows)
                              for k in _dual_kernel_mod_p(order, p)] + p_rows)
    if _covolume(basis) != p * p * _covolume(order.basis):
        raise OrderError(f"two-sided ideal at {p} does not have index {p}^2")
    if product_basis(order.algebra, basis, basis) != hnf_lattice(den, p_rows):
        raise OrderError(f"two-sided ideal at {p}: P*P is not pR")
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
    kernel = _dual_kernel_mod_p(order, p)
    if len(kernel) != 2:
        raise OrderError(f"p-part of O^#/O at {p} is not 2-dimensional")
    return [EichlerOrder(order.algebra, basis) for basis in
            _in_rational_order(_superorder_bases(order, p, kernel))]


@lru_cache(maxsize=None)
def essential_complement(class_set):
    """The pullbacks whose complement is the essential part at weight 0.

    Returns integer vectors on the classes: the constant vector, then the
    indicator of each class of each index-p superorder R' (p | N2), pulled
    back by the class map [I] -> [I * R'], which the superorder's
    ClassSet.locate reads off; an I * R' in none of its classes raises
    OrderError.  The essential part is their orthogonal complement for
    <u, v> = sum_i u_i v_i / e_i; for a maximal order that is the complement
    of the constants.  Memoised per class set: callers share the returned
    vectors and must not mutate them.
    """
    alg = class_set.order.algebra
    r = class_set.size
    n1 = alg.discriminant
    n2 = class_set.order.level // n1
    vectors = [[1] * r]  # constants always pull back
    for p in _prime_factors(n2):
        for sup in superorders_at(class_set.order, p):
            sup_cs = right_ideal_classes(sup)
            found = [sup_cs.locate(product_basis(alg, rep, sup.basis))
                     for rep in class_set.reps]
            if None in found:
                raise OrderError(f"I_{found.index(None)} * R' at {p} is in "
                                 "no class of the superorder")
            vectors.extend([int(j == k) for j, _ in found]
                           for k in range(sup_cs.size))
    return vectors
