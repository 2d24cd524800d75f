"""Atkin-Lehner vanishing gates and trilinear period sums.

The finite sums S_i = sum_j T_i(phi_i(y_j), psi1(y_j), psi2(y_j)) are the
quantities the main theorem relates to central triple-product L-values.  The
displayed sums carry no 1/e_j weights, so "unweighted" is the default
convention here, with the mass-weighted variant (which is the one the
theta-pairing derivation actually produces, and which the degenerate
Eisenstein case needs for its vanishing statement) exposed as a flag; reports
carry both.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .harmonics import trace_zero_space, trilinear_form
from .quatalg import _prime_factors


class PeriodError(ValueError):
    pass


class SignData(namedtuple("SignData", "level eps_h eps_f1 eps_f2")):
    """Atkin-Lehner signs of the quadruple (h1, h2, f1, f2) at p | N; eps_h
    is shared by h1 and h2."""
    __slots__ = ()

    @classmethod
    def from_records(cls, h1, h2, f1, f2):
        if not (h1.level == h2.level == f1.level == f2.level):
            raise PeriodError("quadruple must share one squarefree level")
        if h1.al_signs != h2.al_signs:
            raise PeriodError(
                "h1, h2 must share their Atkin-Lehner eigenvalues")
        return cls(h1.level, dict(h1.al_signs), dict(f1.al_signs),
                   dict(f2.al_signs))

    def product_at(self, p):
        return self.eps_h[p] * self.eps_f1[p] * self.eps_f2[p]

    def global_product(self):
        out = 1
        for p in _prime_factors(self.level):
            out *= self.product_at(p)
        return out


def sign_gate(signs, n1):
    """True iff eps'_p eps1_p eps2_p = -1 exactly for the p | n1."""
    if signs.level % n1:
        raise PeriodError(f"{n1} does not divide the level {signs.level}")
    if len(_prime_factors(n1)) % 2 == 0:
        raise PeriodError(f"{n1} has an even number of prime factors")
    for p in _prime_factors(signs.level):
        want = -1 if n1 % p == 0 else 1
        if signs.product_at(p) != want:
            return False
    return True


def select_algebra(signs):
    """The unique admissible discriminant N1 | N, or a rejection reason.

    Returns (n1, None) on success and (None, reason) otherwise.
    """
    if signs.global_product() == 1:
        return None, "sign +1 => central value zero"
    n1 = 1
    for p in _prime_factors(signs.level):
        if signs.product_at(p) == -1:
            n1 *= p
    # global product -1 forces an odd number of -1 primes
    passers = [d for d in _divisors_odd_omega(signs.level)
               if sign_gate(signs, d)]
    if passers != [n1]:
        raise PeriodError(f"gate inconsistency: passers {passers}")
    return n1, None


def _divisors_odd_omega(n):
    primes = _prime_factors(n)
    out = []
    for mask in range(1, 1 << len(primes)):
        if bin(mask).count("1") % 2 == 1:
            d = 1
            for k, p in enumerate(primes):
                if mask >> k & 1:
                    d *= p
            out.append(d)
    return sorted(out)


class PeriodReport(namedtuple(
        "PeriodReport", "discriminant level weights s1 s2 product "
        "squared_proxy vanishing reason weighting conventions")):
    """The period sums of one quadruple; weights holds nu1, nu2, alpha1,
    alpha2, k1 and k2."""
    __slots__ = ()

    def to_json(self):
        return {
            "discriminant": self.discriminant,
            "level": self.level,
            "weights": self.weights,
            "S1": str(self.s1),
            "S2": str(self.s2),
            "product": str(self.product),
            "squared_proxy": str(self.squared_proxy),
            "vanishing": self.vanishing,
            "reason": self.reason,
            "weighting": self.weighting,
            "conventions": {k: [str(a), str(b)]
                            for k, (a, b) in self.conventions.items()},
        }


def _zero_report(cs, weights, reason, weighting):
    return PeriodReport(cs.order.algebra.discriminant,
                        cs.order.level, weights,
                        Fraction(0), Fraction(0), Fraction(0), Fraction(0),
                        True, reason, weighting, {})


def period_sums(phi1, phi2, psi1, psi2, alpha1, alpha2,
                weighting="unweighted", signs=None):
    """The two trilinear period sums and their product.

    S_i = sum_j w_j T_i(phi_i(y_j) x psi1(y_j) x psi2(y_j)), with w_j = 1
    (unweighted, as displayed) or 1/e_j (mass convention).  When sign data is
    supplied and the gate fails for the ambient algebra, the zero report is
    returned without enumeration ("sign-gate").
    """
    cs = phi1.class_set
    for f in (phi2, psi1, psi2):
        if f.class_set is not cs:
            raise PeriodError("all four forms must share one class set")
    nu1, nu2 = phi1.weight, phi2.weight
    a1p = alpha1 + nu1 - nu2
    a2p = alpha2 + nu1 - nu2
    weights = {"nu1": nu1, "nu2": nu2, "alpha1": alpha1, "alpha2": alpha2,
               "k1": a1p + 2, "k2": a2p + 2}
    n1 = cs.order.algebra.discriminant

    if signs is not None:
        if not sign_gate(signs, n1):
            return _zero_report(cs, weights, "sign-gate", weighting)

    if alpha1 + alpha2 != 2 * nu2 or a1p < 0 or a2p < 0 or \
            a1p % 2 or a2p % 2:
        return _zero_report(cs, weights, "weight-gate", weighting)
    if psi1.weight != a1p // 2 or psi2.weight != a2p // 2:
        return _zero_report(cs, weights, "weight-gate", weighting)

    sp = trace_zero_space(cs.order.algebra)
    t1 = trilinear_form(nu1, a1p, a2p, sp)
    t2 = trilinear_form(nu2, a1p, a2p, sp)
    if t1.zero or t2.zero:
        return _zero_report(cs, weights, "weight-gate", weighting)

    both = {}
    for mode in ("unweighted", "mass"):
        s1 = Fraction(0)
        s2 = Fraction(0)
        for j in range(cs.size):
            w = Fraction(1) if mode == "unweighted" \
                else Fraction(1, cs.unit_counts[j])
            s1 += w * t1.value(phi1.values[j], psi1.values[j], psi2.values[j])
            s2 += w * t2.value(phi2.values[j], psi1.values[j], psi2.values[j])
        both[mode] = (s1, s2)
    s1, s2 = both[weighting]
    product = s1 * s2
    return PeriodReport(
        n1, cs.order.level, weights, s1, s2, product,
        product ** 2, product == 0,
        "numeric-zero" if product == 0 else "", weighting, both)


def degenerate_eisenstein(phi1, psi1, psi2):
    """Corollary-a specialization: phi2 = mass^{-1} * constant.

    With nu2 = 0 the indices are alpha1 = alpha2 = 0 and the psi weights must
    both be nu1 / 2.  The sums use the mass convention: the theta-pairing
    derivation puts 1/e_j inside the sums, and only that convention produces
    the exact vanishing for distinct psi eigenforms that the corollary states
    (the unweighted values are still reported).
    """
    from .brandt import constant_form
    cs = phi1.class_set
    if psi1.weight != psi2.weight:
        raise PeriodError("psi forms must have equal weight")
    mass = sum(Fraction(1, e) for e in cs.unit_counts)
    phi2 = constant_form(cs, 1 / mass)
    return period_sums(phi1, phi2, psi1, psi2, 0, 0, weighting="mass")

