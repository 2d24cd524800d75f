"""Sparse multivariate polynomials over Q.

Monomials are exponent tuples, coefficients Fraction.  This is deliberately
small: just the operations the harmonic-polynomial and differential-operator
machinery needs (products, derivatives, linear substitution, Laplacians with
respect to an arbitrary Gram matrix, Fischer pairing).
"""

from __future__ import annotations

from fractions import Fraction


class Poly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                c = Fraction(c)
                if c != 0:
                    self.terms[tuple(mono)] = c

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def const(cls, nvars, c):
        c = Fraction(c)
        if c == 0:
            return cls(nvars)
        return cls(nvars, {tuple([0] * nvars): c})

    @classmethod
    def variable(cls, nvars, i, c=1):
        mono = [0] * nvars
        mono[i] = 1
        return cls(nvars, {tuple(mono): Fraction(c)})

    @classmethod
    def monomial(cls, exps, c=1):
        return cls(len(exps), {tuple(exps): Fraction(c)})

    # -- basic ring ops ----------------------------------------------------
    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        p = Poly(self.nvars)
        p.terms = out
        return p

    __radd__ = __add__

    def __neg__(self):
        p = Poly(self.nvars)
        p.terms = {m: -c for m, c in self.terms.items()}
        return p

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            p = Poly(self.nvars)
            if c:
                p.terms = {m: cc * c for m, cc in self.terms.items()}
            return p
        out = {}
        n = self.nvars
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(m1[i] + m2[i] for i in range(n))
                s = out.get(m, Fraction(0)) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        p = Poly(n)
        p.terms = out
        return p

    __rmul__ = __mul__

    def __pow__(self, k):
        result = Poly.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def is_zero(self):
        return not self.terms

    # -- calculus ----------------------------------------------------------
    def diff(self, i):
        out = {}
        for m, c in self.terms.items():
            if m[i]:
                mm = list(m)
                mm[i] -= 1
                out[tuple(mm)] = c * m[i]
        p = Poly(self.nvars)
        p.terms = out
        return p

    def laplacian(self, gram_inv):
        """Sum_{ij} gram_inv[i][j] d_i d_j applied to self."""
        n = self.nvars
        out = Poly.zero(n)
        for i in range(len(gram_inv)):
            di = self.diff(i)
            for j in range(len(gram_inv)):
                g = gram_inv[i][j]
                if g:
                    out = out + di.diff(j) * g
        return out

    def eval(self, point):
        total = Fraction(0)
        for m, c in self.terms.items():
            v = c
            for i, e in enumerate(m):
                if e:
                    v *= Fraction(point[i]) ** e
            total += v
        return total

    def eval_partial(self, assignments):
        """Substitute values for some variables (dict index -> value)."""
        out = Poly.zero(self.nvars)
        for m, c in self.terms.items():
            v = c
            mm = list(m)
            for i, val in assignments.items():
                if m[i]:
                    v *= Fraction(val) ** m[i]
                mm[i] = 0
            out = out + Poly(self.nvars, {tuple(mm): v})
        return out

    def subs_linear(self, mat):
        """Substitute x_i -> sum_j mat[i][j] * y_j; output in len(mat[0]) vars."""
        nout = len(mat[0])
        images = [Poly(nout, {tuple(int(j == k) for k in range(nout)): mat[i][j]
                              for j in range(nout) if mat[i][j] != 0})
                  for i in range(self.nvars)]
        out = Poly.zero(nout)
        cache = {}
        for m, c in self.terms.items():
            term = Poly.const(nout, c)
            for i, e in enumerate(m):
                if e:
                    key = (i, e)
                    if key not in cache:
                        cache[key] = images[i] ** e
                    term = term * cache[key]
            out = out + term
        return out

    def total_degree(self):
        return max((sum(m) for m in self.terms), default=0)

    def homogeneous_component(self, d):
        p = Poly(self.nvars)
        p.terms = {m: c for m, c in self.terms.items() if sum(m) == d}
        return p

    def coefficient_of(self, var_indices, exps):
        """Coefficient of prod(x_i^e) over var_indices; a Poly in all vars."""
        out = {}
        for m, c in self.terms.items():
            if all(m[v] == e for v, e in zip(var_indices, exps)):
                mm = list(m)
                for v in var_indices:
                    mm[v] = 0
                out[tuple(mm)] = out.get(tuple(mm), Fraction(0)) + c
        p = Poly(self.nvars)
        p.terms = {m: c for m, c in out.items() if c}
        return p

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


def apply_diff_operator(op, target, coeff_matrix=None):
    """Apply op(D) to target where x_i in op acts as D_i = sum_j M[i][j] d_j.

    With coeff_matrix None, D_i = d_i.  Returns a Poly.
    """
    n = target.nvars
    out = Poly.zero(n)
    for m, c in op.terms.items():
        cur = target
        for i, e in enumerate(m):
            for _ in range(e):
                if cur.is_zero():
                    break
                if coeff_matrix is None:
                    cur = cur.diff(i)
                else:
                    acc = Poly.zero(n)
                    for j, g in enumerate(coeff_matrix[i]):
                        if g:
                            acc = acc + cur.diff(j) * g
                    cur = acc
        out = out + cur * c
    return out


def fischer_pairing(p, q, gram_inv=None):
    """Apolar pairing <p, q> = p(A^{-1} d) q evaluated at 0.

    Invariant under linear changes of variable that carry the quadratic form
    along; positive definite on real polynomials for SPD Gram.
    """
    applied = apply_diff_operator(p, q, gram_inv)
    return applied.terms.get(tuple([0] * q.nvars), Fraction(0))
