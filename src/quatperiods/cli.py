"""Command line interface and end-to-end pipeline.

Subcommands: classset, brandt, eigen, theta, yoshida, restrict, diffop, gate,
period, euler, lvalue, verify.  Outputs are deterministic JSON (sorted keys,
no timestamps).  Exit codes: 0 success, 2 validation error, 3 math-invariant
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import newformdata
from .brandt import (atkin_lehner, brandt_matrix, constant_form,
                     eichler_theta, eigenforms, inner_product,
                     unit_average_form)
from .lseries import (central_value, ingest, petersson_norm_proxy,
                      resolve_label, sym2_factor, sym2_gamma_shifts,
                      sym2_conductor, triple_conductor, triple_factor,
                      triple_factor_steinberg, triple_gamma_shifts,
                      good_factor, LSeriesError)
from .orders import class_set_for, eichler_mass
from .periods import (PeriodError, SignData, period_sums, select_algebra,
                      sign_gate)
from .quatalg import _is_prime, _is_squarefree, _prime_factors
from .yoshida import HalfIntMatrix, diagonal_restriction, yoshida_lift
from .diffop import apply_to_table, projection_poly

CONVENTION_VERSION = "qp-v1"


class ValidationError(ValueError):
    pass


@dataclass
class JobConfig:
    command: str
    level: int = None
    disc: int = None
    nu1: int = 0
    nu2: int = 0
    alpha1: int = 0
    alpha2: int = 0
    gamma: int = 0
    prec: int = 6
    bits: int = 100
    pmax: int = 0
    newforms: str = ""
    out: str = ""
    seed: int = 0
    weighting: str = "unweighted"
    labels: dict = field(default_factory=dict)
    p: int = 0
    extras: dict = field(default_factory=dict)

    def validate(self):
        if self.level is not None and (
                self.level < 1 or not _is_squarefree(self.level)):
            raise ValidationError(
                f"level {self.level} is not a positive squarefree integer")
        if self.prec < 0 or self.bits <= 0:
            raise ValidationError("precisions must be positive")
        if self.weighting not in ("unweighted", "mass"):
            raise ValidationError(f"unknown weighting {self.weighting}")
        if self.command == "theta" and self.prec < 1:
            raise ValidationError("theta needs --prec >= 1")
        if self.command == "brandt":
            if not _is_prime(self.p):
                raise ValidationError(f"--p {self.p} is not prime")
            level = self.level or self.disc
            if level and level % self.p == 0:
                raise ValidationError(
                    f"--p {self.p} divides the level; Brandt operators need "
                    "a good prime")


def _records(config):
    path = config.newforms or newformdata.default_data_path()
    return ingest(path)


def match_eigenform(class_set, record, bound=50):
    """The weight-0 eigenform matching a newform's a_p for good p <= bound."""
    primes = [p for p in range(2, bound + 1)
              if _is_prime(p) and record.level % p]
    forms = eigenforms(class_set, 0, primes=tuple(primes))
    hits = []
    for f in forms:
        if f.label == "eisenstein" or f.eigenvalues is None:
            continue
        try:
            if all(f.eigenvalues[p] == record.a(p) for p in primes):
                hits.append(f)
        except (KeyError, LSeriesError):
            continue
    if len(hits) != 1:
        labels = [f.label for f in hits]
        raise ValidationError(
            f"{record.label}: eigenform match ambiguity, candidates {labels}")
    return hits[0]


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def run_pipeline(config):
    """Newform labels -> sign table -> algebra -> period report (+ L-values)."""
    records = _records(config)
    lab = config.labels
    h1 = resolve_label(records, lab["h1"])
    h2 = resolve_label(records, lab["h2"])
    f1 = resolve_label(records, lab["f1"])
    f2 = resolve_label(records, lab["f2"])
    level = config.level or h1.level
    for r in (h1, h2, f1, f2):
        if r.level != level:
            raise ValidationError(f"{r.label} has level {r.level}, not {level}")
    signs = SignData.from_records(h1, h2, f1, f2)
    n1, reason = select_algebra(signs)
    result = {
        "labels": dict(lab),
        "level": level,
        "sign_table": {str(p): signs.product_at(p)
                       for p in _prime_factors(level)},
        "convention": CONVENTION_VERSION,
        "weighting": config.weighting,
    }
    if n1 is None:
        result["vanishing_certificate"] = reason
        result["selected_disc"] = None
        return result
    result["selected_disc"] = n1
    cs = class_set_for(n1, level // n1)
    phi1 = match_eigenform(cs, h1)
    phi2 = match_eigenform(cs, h2)
    psi1 = match_eigenform(cs, f1)
    psi2 = match_eigenform(cs, f2)
    report = period_sums(phi1, phi2, psi1, psi2, 0, 0,
                         weighting=config.weighting, signs=signs)
    result["period"] = report.to_json()
    if config.extras.get("lvalue"):
        result["lvalue_cross_check"] = ratio_quantity(
            records, h1, h2, f1, f2, cs, phi1, phi2, psi1, psi2,
            bits=config.bits, terms=config.pmax or None)
    return result


def _triple_lambda(h, f1, f2, bits=100, terms=None):
    """Completed central value of L(h, f1, f2; s) with documented bad data."""
    level = h.level
    cond = triple_conductor(level)
    if terms is None:
        import math as _m
        terms = int(3 * _m.sqrt(cond)) + 50
    pmax = max(terms, 100)
    factors = {}
    p = 2
    while p <= pmax:
        if _is_prime(p):
            if level % p == 0:
                factors[p] = triple_factor_steinberg(h, f1, f2, p)
            else:
                factors[p] = triple_factor(h, f1, f2, p)
        p += 1
    sign = 1
    for p in _prime_factors(level):
        sign *= -h.a(p) * -f1.a(p) * -f2.a(p)
    sign = -sign
    return central_value(factors, triple_gamma_shifts(), cond, sign,
                         bits=bits, terms=terms)


def ratio_quantity(records, h1, h2, f1, f2, cs, phi1, phi2, psi1, psi2,
                   bits=100, terms=None):
    """Ratio diagnostic for the central-value proportionality.

    Computes (S1 S2)^2 <h1,h1> <h2,h2> <f1,f1>^2 <f2,f2>^2 /
    (Lambda(h1,f1,f2;1/2) Lambda(h2,f1,f2;1/2)) with the S sums in the mass
    convention and all four quaternionic forms normalized to unit natural
    norm (equivalently: theta lifts with first coefficient one; the two
    normalizations coincide).  The <f_i> factors follow the period formula,
    which carries them explicitly; Petersson norms are symmetric-square
    proxies, so a fixed level-weight constant is left over and cancels when
    two quadruples are compared.
    """
    rep = period_sums(phi1, phi2, psi1, psi2, 0, 0, weighting="mass")
    norms = [inner_product(f, f) for f in (phi1, phi2, psi1, psi2)]
    s_sq = (rep.s1 * rep.s2) ** 2
    normalized = s_sq / (norms[0] * norms[1] * norms[2] ** 2 * norms[3] ** 2)
    lam1 = _triple_lambda(h1, f1, f2, bits=bits, terms=terms)
    lam2 = _triple_lambda(h2, f1, f2, bits=bits, terms=terms)
    pets = {r.label: petersson_norm_proxy(r, bits=bits)
            for r in {h1.label: h1, h2.label: h2,
                      f1.label: f1, f2.label: f2}.values()}
    value = None
    if lam1.lam and lam2.lam:
        value = float(normalized) \
            * pets[h1.label].lam * pets[h2.label].lam \
            * pets[f1.label].lam ** 2 * pets[f2.label].lam ** 2 \
            / (lam1.lam * lam2.lam)
    rel_err = abs(lam1.error / lam1.lam) + abs(lam2.error / lam2.lam) \
        if lam1.lam and lam2.lam else float("inf")
    return {
        "normalized_period_sq": str(normalized),
        "lambda_h1": {"value": lam1.lam, "error": lam1.error},
        "lambda_h2": {"value": lam2.lam, "error": lam2.error},
        "petersson": {k: v.lam for k, v in pets.items()},
        "ratio": value,
        "relative_error": rel_err,
    }


# ---------------------------------------------------------------------------
# verify battery
# ---------------------------------------------------------------------------

def verify(config):
    """Cross-module invariant battery; returns (rows, ok)."""
    rows = []

    def check(name, fn):
        try:
            ok = bool(fn())
            rows.append((name, "pass" if ok else "FAIL"))
            return ok
        except Exception as exc:  # noqa: BLE001 - report, then fail
            rows.append((name, f"ERROR {exc}"))
            return False

    ok = True

    def masses():
        for n1 in (2, 3, 5, 7, 11, 13):
            if class_set_for(n1).mass() != eichler_mass(n1, 1):
                return False
        return class_set_for(2, 11).mass() == eichler_mass(2, 11)
    ok &= check("mass formulas", masses)

    def level11():
        cs = class_set_for(11)
        forms = eigenforms(cs)
        cusp = next(f for f in forms if f.label == "cuspidal-essential")
        return sorted(cs.unit_counts) == [4, 6] and \
            cusp.scalar_values() == [2, -3] and cusp.eigenvalues[2] == -2
    ok &= check("level 11 ground truth", level11)

    def theta_match():
        records = _records(config)
        h = resolve_label(records, "11a")
        cs = class_set_for(11)
        cusp = next(f for f in eigenforms(cs)
                    if f.label == "cuspidal-essential")
        th = eichler_theta(cusp, 20)
        ratio = th[1]
        return all(th[n] == ratio * h.a(n) for n in (2, 3, 5, 7, 11, 13, 17, 19))
    ok &= check("theta lift matches 11a", theta_match)

    def kernels():
        from .harmonics import standard_space
        sp = standard_space(4)
        pt = [Fraction(1), Fraction(-2), Fraction(1), Fraction(3)]
        for alpha in range(5):
            ker = sp.kernel_at(alpha, pt)
            for b in sp.harmonic_basis(alpha):
                if sp.inner(ker, b, alpha) != b.eval(pt):
                    return False
        return True
    ok &= check("reproducing kernels", kernels)

    def balance():
        from .harmonics import balanced, standard_space, trilinear_form
        sp = standard_space(3)
        for nu in range(4):
            for b1 in range(0, 7, 2):
                for b2 in range(0, 7, 2):
                    t = trilinear_form(nu, b1, b2, sp)
                    want = balanced(nu, b1 // 2, b2 // 2) and \
                        (nu + b1 // 2 + b2 // 2) % 2 == 0
                    if t.zero == want:
                        return False
                    if want and t.nonzero_witness() is None:
                        return False
        return True
    ok &= check("trilinear balance scan", balance)

    def yoshida_checks():
        cs = class_set_for(11)
        forms = eigenforms(cs)
        cusp = next(f for f in forms if f.label == "cuspidal-essential")
        table = yoshida_lift(cusp, cusp, 4)
        if HalfIntMatrix(0, 0, 0) in table.coeffs:
            return False
        from .yoshida import unimodular_check
        return unimodular_check(table, [[1, 1], [0, 1]], HalfIntMatrix(1, 1, 1))
    ok &= check("yoshida lift basics", yoshida_checks)

    def gates():
        import itertools
        for level, primes in ((14, (2, 7)), (15, (3, 5))):
            for pattern in itertools.product((1, -1), repeat=6):
                sd = SignData(level, dict(zip(primes, pattern[:2])),
                              dict(zip(primes, pattern[2:4])),
                              dict(zip(primes, pattern[4:])))
                passers = [d for d in (primes[0], primes[1])
                           if sign_gate(sd, d)]
                if len(passers) > 1:
                    return False
        return True
    ok &= check("sign gates", gates)

    def diffops():
        for (k, a, b, r) in ((2, 0, 0, 2), (3, 1, 0, 1), (4, 2, 1, 2)):
            op = projection_poly(k, a, b, r)
            fact = 1
            for t in range(1, r + 1):
                fact *= t
            if op.z12_test() != fact:
                return False
        return True
    ok &= check("differential operators", diffops)

    def euler():
        from .lseries import NewformRecord, spin_split_check, \
            sym2_identity_check
        import random
        rng = random.Random(config.seed or 11)
        for _ in range(25):
            p = rng.choice([3, 5, 7])
            r1 = NewformRecord("r1", 1, 2, {p: rng.randint(-3, 3)}, {})
            r2 = NewformRecord("r2", 1, 2, {p: rng.randint(-3, 3)}, {})
            if not (spin_split_check(r1, r2, p) and
                    sym2_identity_check(r1, r2, p)):
                return False
        return True
    ok &= check("euler factor identities", euler)

    return rows, ok


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="quatperiods",
        description="Brandt matrices, Yoshida lifts and period sums on "
                    "definite quaternion algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--level", type=int)
        p.add_argument("--disc", type=int)
        p.add_argument("--nu1", type=int, default=0)
        p.add_argument("--nu2", type=int, default=0)
        p.add_argument("--alpha1", type=int, default=0)
        p.add_argument("--alpha2", type=int, default=0)
        p.add_argument("--gamma", type=int, default=0)
        p.add_argument("--prec", type=int, default=6)
        p.add_argument("--bits", type=int, default=100)
        p.add_argument("--pmax", type=int, default=0)
        p.add_argument("--newforms", default="")
        p.add_argument("--out", default="")
        p.add_argument("--seed", type=int, default=0)

    for name in ("classset", "brandt", "eigen", "theta", "yoshida",
                 "restrict", "diffop", "gate", "period", "euler", "lvalue",
                 "verify"):
        p = sub.add_parser(name)
        common(p)
        if name == "brandt":
            p.add_argument("--p", type=int, required=True)
        if name in ("theta",):
            p.add_argument("--match", default="",
                           help="newform label to select the eigenform")
            p.add_argument("--eisenstein", action="store_true")
        if name in ("gate", "period", "lvalue"):
            p.add_argument("--h1", default="")
            p.add_argument("--h2", default="")
            p.add_argument("--f1", default="")
            p.add_argument("--f2", default="")
        if name == "period":
            p.add_argument("--weighting", default="unweighted",
                           choices=("unweighted", "mass"))
            p.add_argument("--lvalue", action="store_true")
        if name == "euler":
            p.add_argument("--p", type=int, required=True)
            p.add_argument("--h1", default="")
            p.add_argument("--f1", default="")
            p.add_argument("--f2", default="")
            p.add_argument("--sym2", default="")
        if name == "lvalue":
            p.add_argument("--sym2", default="")
        if name == "diffop":
            p.add_argument("--k", type=int, default=2)
            p.add_argument("--a", type=int, default=0)
            p.add_argument("--b", type=int, default=0)
            p.add_argument("--r", type=int, default=0)
            p.add_argument("--T", default="",
                           help="index n1,m2,n2 for Q(T)")
    return parser


def _config_from_args(args):
    labels = {}
    for key in ("h1", "h2", "f1", "f2"):
        if getattr(args, key, ""):
            labels[key] = getattr(args, key)
    cfg = JobConfig(
        command=args.command, level=args.level, disc=args.disc,
        nu1=args.nu1, nu2=args.nu2, alpha1=args.alpha1, alpha2=args.alpha2,
        gamma=args.gamma, prec=args.prec, bits=args.bits, pmax=args.pmax,
        newforms=args.newforms, out=args.out,
        seed=args.seed, labels=labels,
        weighting=getattr(args, "weighting", "unweighted"),
        p=getattr(args, "p", 0))
    for key in ("match", "eisenstein", "sym2", "k", "a", "b", "r", "T",
                "lvalue"):
        if hasattr(args, key):
            cfg.extras[key] = getattr(args, key)
    cfg.validate()
    return cfg


def _emit(config, payload):
    text = json.dumps(payload, sort_keys=True, indent=1)
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _select_class_set(config):
    if config.disc is None:
        raise ValidationError("--disc is required")
    n1 = config.disc
    if n1 < 2 or not _is_squarefree(n1) or len(_prime_factors(n1)) % 2 == 0:
        raise ValidationError(
            f"--disc {n1} is not a product of an odd number of distinct "
            "primes, so no definite quaternion algebra has it")
    level = config.level or n1
    if level % n1:
        raise ValidationError("--level must be a multiple of --disc")
    return class_set_for(n1, level // n1)


def _pick_form(config, cs):
    if config.extras.get("eisenstein"):
        return next(f for f in eigenforms(cs) if f.label == "eisenstein")
    label = config.extras.get("match")
    if label:
        records = _records(config)
        return match_eigenform(cs, resolve_label(records, label))
    forms = [f for f in eigenforms(cs) if f.label == "cuspidal-essential"]
    if len(forms) != 1:
        raise ValidationError(
            "ambiguous eigenform; use --match LABEL or --eisenstein")
    return forms[0]


def dispatch(config):
    if config.command == "classset":
        cs = _select_class_set(config)
        return cs.to_json()
    if config.command == "brandt":
        cs = _select_class_set(config)
        op = brandt_matrix(cs, config.p, config.nu1)
        return {"label": op.label, "nu": op.nu,
                "convention": "integral, row sums p+1 at nu=0",
                "matrix": [[str(x) for x in row] for row in op.matrix]}
    if config.command == "eigen":
        cs = _select_class_set(config)
        out = []
        for f in eigenforms(cs):
            out.append({
                "label": f.label,
                "values": [str(v) for v in f.scalar_values()]
                if f.weight == 0 and f.values is not None else "non-scalar",
                "eigenvalues": {str(p): str(v)
                                for p, v in sorted(f.eigenvalues.items())},
                "al_signs": {str(p): v
                             for p, v in sorted((f.al_signs or {}).items())},
                "essential": f.essential,
            })
        return {"class_number": cs.size, "forms": out}
    if config.command == "theta":
        cs = _select_class_set(config)
        form = _pick_form(config, cs)
        th = eichler_theta(form, config.prec)
        return {"coefficients": {str(n): str(v) for n, v in th.items()}}
    if config.command == "yoshida":
        cs = _select_class_set(config)
        if config.nu1 or config.nu2:
            import random
            rng = random.Random(config.seed or 1)
            phi1 = unit_average_form(cs, config.nu1, rng)
            phi2 = unit_average_form(cs, config.nu2, rng)
        else:
            form = _pick_form(config, cs)
            phi1 = phi2 = form
        table = yoshida_lift(phi1, phi2, config.prec)
        return table.to_json()
    if config.command == "restrict":
        cs = _select_class_set(config)
        form = _pick_form(config, cs)
        table = yoshida_lift(form, form, config.prec)
        if config.gamma:
            op = projection_poly(2, config.alpha1, config.alpha2,
                                 config.gamma)
            data = apply_to_table(op, table, config.alpha1, config.alpha2)
        else:
            data = diagonal_restriction(table, config.alpha1, config.alpha2)
        return {"coefficients": {f"{k[0]},{k[1]}": str(v)
                                 for k, v in sorted(data.items())}}
    if config.command == "diffop":
        k = config.extras.get("k", 2)
        a = config.extras.get("a", 0)
        b = config.extras.get("b", 0)
        r = config.extras.get("r", 0)
        op = projection_poly(k, a, b, r)
        payload = {"k": k, "a": a, "b": b, "r": r,
                   "normalization": op.normalization,
                   "p": {f"{i},{j},{kk}": str(c)
                         for (i, j, kk), c in sorted(op.poly.items())}}
        t_arg = config.extras.get("T")
        if t_arg:
            n1, m2, n2 = (int(x) for x in t_arg.split(","))
            q = op.q_poly(HalfIntMatrix(n1, m2, n2))
            payload["Q"] = q.serialize()
        return payload
    if config.command == "gate":
        records = _records(config)
        lab = config.labels
        signs = SignData.from_records(
            resolve_label(records, lab["h1"]),
            resolve_label(records, lab["h2"]),
            resolve_label(records, lab["f1"]),
            resolve_label(records, lab["f2"]))
        n1, reason = select_algebra(signs)
        return {"level": signs.level,
                "sign_table": {str(p): signs.product_at(p)
                               for p in _prime_factors(signs.level)},
                "selected_disc": n1,
                "rejection": reason}
    if config.command == "period":
        return run_pipeline(config)
    if config.command == "euler":
        records = _records(config)
        if config.extras.get("sym2"):
            rec = resolve_label(records, config.extras["sym2"])
            f = sym2_factor(rec, config.p)
            return {"type": "sym2", "p": config.p,
                    "coeffs": [str(c) for c in f.coeffs],
                    "shift": str(f.shift)}
        lab = config.labels
        h = resolve_label(records, lab["h1"])
        f1 = resolve_label(records, lab["f1"])
        f2 = resolve_label(records, lab["f2"])
        if h.level % config.p == 0:
            fac = triple_factor_steinberg(h, f1, f2, config.p)
        else:
            fac = triple_factor(h, f1, f2, config.p)
        return {"type": "triple", "p": config.p,
                "coeffs": [str(c) for c in fac.coeffs],
                "shift": str(fac.shift)}
    if config.command == "lvalue":
        records = _records(config)
        if config.extras.get("sym2"):
            rec = resolve_label(records, config.extras["sym2"])
            cv = petersson_norm_proxy(rec, bits=config.bits,
                                      terms=config.pmax or None)
            return {"type": "sym2-edge", "value": cv.value,
                    "lambda": cv.lam, "error": cv.error, "terms": cv.terms}
        lab = config.labels
        h = resolve_label(records, lab["h1"])
        f1 = resolve_label(records, lab["f1"])
        f2 = resolve_label(records, lab["f2"])
        cv = _triple_lambda(h, f1, f2, bits=config.bits,
                            terms=config.pmax or None)
        return {"type": "triple-central", "value": cv.value,
                "lambda": cv.lam, "error": cv.error, "terms": cv.terms}
    if config.command == "verify":
        rows, ok = verify(config)
        for name, status in rows:
            print(f"{status:>6}  {name}")
        payload = {"checks": {name: status for name, status in rows},
                   "ok": ok}
        if config.out:
            _emit(config, payload)
        if not ok:
            sys.exit(3)
        return None
    raise ValidationError(f"unknown command {config.command}")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        payload = dispatch(config)
    except (ValidationError, PeriodError, LSeriesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    if payload is not None:
        _emit(config, payload)
    return 0


if __name__ == "__main__":
    main()
