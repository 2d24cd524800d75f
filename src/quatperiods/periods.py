"""Atkin-Lehner vanishing gates, trilinear period sums and the pipeline from
a newform quadruple to its period report and L-value cross-check.

The finite sums S_i = sum_j T_i(phi_i(y_j), psi1(y_j), psi2(y_j)) are the
quantities the main theorem relates to central triple-product L-values.  The
displayed sums carry no 1/e_j weights, so "unweighted" is the default
convention here, with the mass-weighted variant (which is the one the
theta-pairing derivation actually produces, and which the degenerate
Eisenstein case needs for its vanishing statement) exposed as a flag; reports
carry both.

The pipeline, quadruple_report, takes four newform records of one
squarefree level N from their Atkin-Lehner signs to the discriminant N1 | N
the gate admits (or the vanishing certificate), one Hecke kernel per
distinct label on the Eichler order of level N there, and their period
sums; ratio_quantity sets those against the triple central values and Sym^2
Petersson proxies.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import combinations
from operator import mul

from .brandt import (BrandtError, constant_form, inner_product,
                     kernel_eigenform)
from .harmonics import trace_zero_space, trilinear_form
from .lseries import petersson_norm_proxy, triple_central_value
from .orders import class_set_for
from .quatalg import _prime_factors, primes_up_to

CONVENTION_VERSION = "qp-v1"


class PeriodError(ValueError):
    pass


class SignData(namedtuple("SignData", "level eps_h eps_f1 eps_f2")):
    """Atkin-Lehner signs of the quadruple (h1, h2, f1, f2) at p | N; eps_h
    is shared by h1 and h2."""
    __slots__ = ()

    @classmethod
    def from_records(cls, h1, h2, f1, f2):
        for r in (h2, f1, f2):
            if r.level != h1.level:
                raise PeriodError(
                    f"{r.label} has level {r.level}, not {h1.level}")
        if h1.al_signs != h2.al_signs:
            raise PeriodError(
                "h1, h2 must share their Atkin-Lehner eigenvalues")
        return cls(h1.level, dict(h1.al_signs), dict(f1.al_signs),
                   dict(f2.al_signs))

    def product_at(self, p):
        return self.eps_h[p] * self.eps_f1[p] * self.eps_f2[p]

    def global_product(self):
        return math.prod(self.product_at(p)
                         for p in _prime_factors(self.level))


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
    n1 = math.prod(p for p in _prime_factors(signs.level)
                   if signs.product_at(p) == -1)
    # global product -1 forces an odd number of -1 primes
    passers = [d for d in _divisors_odd_omega(signs.level)
               if sign_gate(signs, d)]
    if passers != [n1]:
        raise PeriodError(f"gate inconsistency: passers {passers}")
    return n1, None


def _divisors_odd_omega(n):
    primes = _prime_factors(n)
    return sorted(math.prod(c) for k in range(1, len(primes) + 1, 2)
                  for c in combinations(primes, k))


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

    values = [[t.value(*v) for v in zip(phi.values, psi1.values, psi2.values)]
              for t, phi in ((t1, phi1), (t2, phi2))]
    mass = [Fraction(1, e) for e in cs.unit_counts]
    both = {"unweighted": tuple(sum(v, Fraction(0)) for v in values),
            "mass": tuple(sum(map(mul, mass, v), Fraction(0)) for v in values)}
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
    cs = phi1.class_set
    if psi1.weight != psi2.weight:
        raise PeriodError("psi forms must have equal weight")
    mass = sum(Fraction(1, e) for e in cs.unit_counts)
    phi2 = constant_form(cs, 1 / mass)
    return period_sums(phi1, phi2, psi1, psi2, 0, 0, weighting="mass")


def match_eigenform(class_set, record, bound=50):
    """The kernel_eigenform of a weight-2 newform: its a_p at good p <= bound
    and the w_q signs eps_q = -a_q at q | M and -eps_q at q | D, where
    Jacquet-Langlands flips them."""
    level = class_set.order.level
    if record.level != level:
        raise PeriodError(f"{record.label} has level {record.level}, "
                          f"but the class set has level {level}")
    disc = class_set.order.algebra.discriminant
    eigenvalues = {p: record.a(p) for p in primes_up_to(bound) if level % p}
    signs = {q: record.a(q) if disc % q == 0 else -record.a(q)
             for q in _prime_factors(level)}
    try:
        return kernel_eigenform(class_set, eigenvalues, signs)
    except BrandtError as exc:
        raise PeriodError(f"{record.label}: {exc}") from None


def quadruple_gate(h1, h2, f1, f2):
    """Sign data of a quadruple, its table by prime, the selected
    discriminant (None if the period vanishes) and the rejection reason."""
    signs = SignData.from_records(h1, h2, f1, f2)
    n1, reason = select_algebra(signs)
    table = {str(p): signs.product_at(p) for p in _prime_factors(signs.level)}
    return signs, table, n1, reason


def quadruple_report(h1, h2, f1, f2, weighting="unweighted", lvalue=False,
                     terms=None):
    """Records -> sign table -> algebra -> one Hecke kernel per label ->
    period report, plus the L-value cross-check when lvalue is set; terms is
    the series length of every central value (None: from its conductor)."""
    records = (h1, h2, f1, f2)
    signs, table, n1, reason = quadruple_gate(*records)
    result = {
        "labels": {key: r.label
                   for key, r in zip(("h1", "h2", "f1", "f2"), records)},
        "level": signs.level,
        "sign_table": table,
        "convention": CONVENTION_VERSION,
        "weighting": weighting,
        "selected_disc": n1,
    }
    if n1 is None:
        result["vanishing_certificate"] = reason
        return result
    cs = class_set_for(n1, signs.level // n1)
    # one Hecke kernel per distinct label: (h, h; f, f) solves two
    by_label = {r.label: r for r in records}
    matched = {label: match_eigenform(cs, r) for label, r in by_label.items()}
    forms = [matched[r.label] for r in records]
    report = period_sums(*forms, 0, 0, weighting=weighting, signs=signs)
    result["period"] = report.to_json()
    if lvalue:
        result["lvalue_cross_check"] = ratio_quantity(records, forms, report,
                                                      terms=terms)
    return result


def ratio_quantity(records, forms, report, terms=None):
    """Ratio diagnostic for the central-value proportionality.

    Computes (S1 S2)^2 <h1,h1> <h2,h2> <f1,f1>^2 <f2,f2>^2 /
    (Lambda(h1,f1,f2;1/2) Lambda(h2,f1,f2;1/2)) with the S sums in the mass
    convention, read from the report of the quadruple's forms, and all four
    quaternionic forms normalized to unit natural norm (equivalently: theta
    lifts with first coefficient one; the two normalizations coincide).
    The <f_i> factors follow the period formula, which carries them
    explicitly; Petersson norms are symmetric-square proxies, so a fixed
    level-weight constant is left over and cancels when two quadruples are
    compared.
    """
    h1, h2, f1, f2 = records
    s1, s2 = report.conventions["mass"]
    # each form's norm and Sym^2 proxy enters the ratio to these powers
    powers = (1, 1, 2, 2)
    normalized = (s1 * s2) ** 2 / math.prod(
        inner_product(f, f) ** k for f, k in zip(forms, powers))
    lam1 = triple_central_value(h1, f1, f2, terms=terms)
    lam2 = lam1 if h2.label == h1.label \
        else triple_central_value(h2, f1, f2, terms=terms)
    # equal labels share one proxy, their powers adding up
    by_label, power_of = {}, Counter()
    for r, k in zip(records, powers):
        by_label[r.label] = r
        power_of[r.label] += k
    pets = {label: petersson_norm_proxy(r, terms=terms)
            for label, r in by_label.items()}
    value = None
    rel_err = float("inf")
    if lam1.lam and lam2.lam:
        value = float(normalized) / (lam1.lam * lam2.lam) \
            * math.prod(pets[label].lam ** power
                        for label, power in power_of.items())
        # each factor's relative error times its power in the ratio
        rel_err = sum(abs(cv.error / cv.value) for cv in (lam1, lam2)) \
            + sum(power * abs(pets[label].error / pets[label].value)
                  for label, power in power_of.items())
    # each Lambda(1/2) with its own error; cv.error belongs to L(1/2)
    return {
        "normalized_period_sq": str(normalized),
        "lambda_h1": {"value": lam1.lam, "error": lam1.lam_error},
        "lambda_h2": {"value": lam2.lam, "error": lam2.lam_error},
        "petersson": {k: v.lam for k, v in pets.items()},
        "ratio": value,
        "relative_error": rel_err,
    }
