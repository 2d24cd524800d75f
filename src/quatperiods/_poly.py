"""Sparse multivariate polynomials over an exact field.

Monomials are exponent tuples.  An int coefficient becomes a Fraction, and
any other exact field element (a Fraction, a brandt.NumberFieldElement) is
kept as it is.  The constructor
is the one way to build a polynomial: it adds up repeated monomials and drops
zero sums.  This is deliberately small: just the operations the harmonic
polynomials need (products, derivatives, linear substitution, Laplacians with
respect to an arbitrary Gram matrix, Fischer pairing).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from operator import add


class Poly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=()):
        """terms: a dict or (monomial, coefficient) pairs."""
        self.nvars = nvars
        acc = {}
        for mono, c in terms.items() if isinstance(terms, dict) else terms:
            mono = tuple(mono)
            if mono in acc:
                c = acc[mono] + c
            acc[mono] = c
        self.terms = {m: Fraction(c) if isinstance(c, int) else c
                      for m, c in acc.items() if c}

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def const(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars, i):
        return cls(nvars, {tuple(int(k == i) for k in range(nvars)): 1})

    @classmethod
    def monomial(cls, exps, c=1):
        return cls(len(exps), {tuple(exps): c})

    def embed(self, nvars, offset=0):
        """self in nvars variables, its own at offset, offset + 1, ..."""
        head = (0,) * offset
        tail = (0,) * (nvars - offset - self.nvars)
        return Poly(nvars, ((head + m + tail, c)
                            for m, c in self.terms.items()))

    # -- basic ring ops ----------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.nvars, other)
        return Poly(self.nvars, chain(self.terms.items(),
                                      other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly(self.nvars, ((m, c * other)
                                     for m, c in self.terms.items()))
        return Poly(self.nvars, ((tuple(map(add, m1, m2)), c1 * c2)
                                 for m1, c1 in self.terms.items()
                                 for m2, c2 in other.terms.items()))

    __rmul__ = __mul__

    def __pow__(self, k):
        """self ** k from the top bit of k down: floor(log2 k) squares and
        popcount(k) - 1 products with self."""
        if type(k) is not int or k < 0:
            raise ValueError(f"exponent must be a nonnegative int, not {k!r}")
        result = self if k else Poly.const(self.nvars, 1)
        for bit in bin(k)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.nvars, other)
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def is_zero(self):
        return not self.terms

    # -- calculus ----------------------------------------------------------
    def diff(self, i):
        return Poly(self.nvars, ((m[:i] + (m[i] - 1,) + m[i + 1:], c * m[i])
                                 for m, c in self.terms.items() if m[i]))

    def laplacian(self, gram_inv):
        """Sum_{ij} gram_inv[i][j] d_i d_j applied to self."""
        return Poly(self.nvars, ((m, c * g)
                                 for i, row in enumerate(gram_inv)
                                 for di in (self.diff(i),)
                                 for j, g in enumerate(row) if g
                                 for m, c in di.diff(j).terms.items()))

    def eval(self, point):
        total = Fraction(0)
        for m, c in self.terms.items():
            for x, e in zip(point, m):
                if e:
                    c = c * x ** e
            total += c
        return total

    def eval_partial(self, assignments):
        """Substitute values for some variables (dict index -> value)."""
        out = []
        for m, c in self.terms.items():
            mm = list(m)
            for i, val in assignments.items():
                if m[i]:
                    c = c * val ** m[i]
                mm[i] = 0
            out.append((mm, c))
        return Poly(self.nvars, out)

    def subs_linear(self, mat):
        """Substitute x_i -> sum_j mat[i][j] * y_j; output in len(mat[0]) vars."""
        nout = len(mat[0])
        images = [Poly(nout, ((tuple(int(j == k) for k in range(nout)), x)
                              for j, x in enumerate(row)))
                  for row in mat]
        powers = {}

        def image(m, c):
            term = Poly.const(nout, c)
            for i, e in enumerate(m):
                if e:
                    if (i, e) not in powers:
                        powers[i, e] = images[i] ** e
                    term = term * powers[i, e]
            return term.terms.items()

        return Poly(nout, chain.from_iterable(
            image(m, c) for m, c in self.terms.items()))

    def total_degree(self):
        return max((sum(m) for m in self.terms), default=0)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m, c in sorted(self.terms.items()):
            mono = "*".join(f"x{i}^{e}" for i, e in enumerate(m) if e)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)

    def serialize(self):
        """Sorted monomial -> coefficient map with string keys and values."""
        return {",".join(map(str, m)): str(c)
                for m, c in sorted(self.terms.items())}


def apply_diff_operator(op, target, coeff_matrix):
    """Apply op(D) to target where x_i in op acts as D_i = sum_j M[i][j] d_j,
    M = coeff_matrix.  Returns a Poly.
    """
    n = target.nvars
    out = []
    for m, c in op.terms.items():
        cur = target
        for i, e in enumerate(m):
            for _ in range(e):
                if cur.is_zero():
                    break
                cur = Poly(n, ((mono, x * g)
                               for j, g in enumerate(coeff_matrix[i]) if g
                               for mono, x in cur.diff(j).terms.items()))
        out.extend((mono, x * c) for mono, x in cur.terms.items())
    return Poly(n, out)


def fischer_pairing(p, q, gram_inv):
    """Apolar pairing <p, q> = p(A^{-1} d) q evaluated at 0.

    Invariant under linear changes of variable that carry the quadratic form
    along; positive definite on real polynomials for SPD Gram.
    """
    applied = apply_diff_operator(p, q, gram_inv)
    return applied.terms.get(tuple([0] * q.nvars), Fraction(0))
