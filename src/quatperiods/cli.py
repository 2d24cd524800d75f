"""Command line layer: parse, call, print, map errors to exit codes.

Subcommands: classset, brandt, eigen, theta, yoshida, restrict, diffop, gate,
period, euler, lvalue, verify.  Each takes only the flags its handler reads;
the parsed arguments are the whole configuration.  A handler resolves
newform labels and calls the package; the pipeline from a quadruple to its
period report lives in `periods`, the central values in `lseries`.  Outputs
are deterministic JSON (sorted keys, no timestamps).  Exit codes: 0 success,
2 invalid input (one `error: ...` line on stderr), 3 math-invariant failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import newformdata
from .brandt import (brandt_matrix, constant_form, eichler_theta, eigenforms,
                     poly_text, unit_average_form)
from .lseries import (ingest, petersson_norm_proxy, resolve_label,
                      sym2_factor, triple_central_value, triple_factor_at,
                      LSeriesError)
from .orders import class_set_for, eichler_mass
from .periods import (PeriodError, SignData, degenerate_eisenstein,
                      match_eigenform, period_sums, quadruple_gate,
                      quadruple_report, sign_gate)
from .quatalg import _is_prime, _is_squarefree, _prime_factors
from .yoshida import HalfIntMatrix, diagonal_restriction, yoshida_lift
from .diffop import apply_to_table, projection_poly

QUADRUPLE = ("h1", "h2", "f1", "f2")
TRIPLE = ("h1", "f1", "f2")


class ValidationError(ValueError):
    pass


def _newforms(args, *labels):
    """The records of the given labels, in order; of the newform file only
    their rows are parsed."""
    records = ingest(args.newforms or newformdata.default_data_path(),
                     set(labels))
    return [resolve_label(records, label) for label in labels]


# ---------------------------------------------------------------------------
# verify battery
# ---------------------------------------------------------------------------

def run_verify(args):
    """Cross-module invariant battery; prints one row per check and exits 3
    if any check fails."""
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
        h, = _newforms(args, "11a")
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
            if projection_poly(k, a, b, r).z12_test() != math.factorial(r):
                return False
        return True
    ok &= check("differential operators", diffops)

    def corollaries():
        # (a) phi2 constant: vanishes for distinct psi, S2 = 6 for psi = e;
        # (b) phi1 = phi2 = e: S1 = S2, so the product is a square
        cs = class_set_for(11)
        e = _cusp_form(cs)
        klingen = period_sums(e, e, e, e, 0, 0)
        return degenerate_eisenstein(e, e, constant_form(cs)).vanishing and \
            degenerate_eisenstein(e, e, e).s2 == 6 and \
            klingen.s1 == klingen.s2 and klingen.product == 361
    ok &= check("paper corollaries (a), (b)", corollaries)

    def paper_constant():
        # ratio * sqrt(N) = 4^omega(N) at N = 11, within its reported error
        cross = quadruple_report(*_newforms(args, *["11a"] * 4), lvalue=True,
                                 terms=2000)["lvalue_cross_check"]
        err = cross["relative_error"]
        return err <= 1e-5 and \
            abs(cross["ratio"] * math.sqrt(11) / 4 - 1) <= 3 * err
    ok &= check("paper constant at 11a^4", paper_constant)

    def euler():
        from .lseries import NewformRecord, spin_split_check, \
            sym2_identity_check
        import random
        rng = random.Random(args.seed or 11)
        for _ in range(25):
            p = rng.choice([3, 5, 7])
            r1 = NewformRecord("r1", 1, 2, {p: rng.randint(-3, 3)}, {})
            r2 = NewformRecord("r2", 1, 2, {p: rng.randint(-3, 3)}, {})
            if not (spin_split_check(r1, r2, p) and
                    sym2_identity_check(r1, r2, p)):
                return False
        return True
    ok &= check("euler factor identities", euler)

    for name, status in rows:
        print(f"{status:>6}  {name}")
    if args.out:
        _emit(args.out, {"checks": {name: status for name, status in rows},
                         "ok": ok})
    if not ok:
        sys.exit(3)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _class_set(args):
    level = args.level or args.disc
    if level % args.disc:
        raise ValidationError("--level must be a multiple of --disc")
    return class_set_for(args.disc, level // args.disc)


def _cusp_form(cs, hint="this command needs exactly one"):
    forms = [f for f in eigenforms(cs)
             if f.label == "cuspidal-essential" and not f.field]
    if len(forms) != 1:
        raise ValidationError(
            f"{len(forms)} rational essential cusp forms on this class set; "
            + hint)
    return forms[0]


def run_classset(args):
    return _class_set(args).to_json()


def run_brandt(args):
    cs = _class_set(args)
    if cs.order.level % args.p == 0:
        raise ValidationError(
            f"--p {args.p} divides the level; Brandt operators need "
            "a good prime")
    op = brandt_matrix(cs, args.p, args.nu1)
    return {"label": op.label, "nu": op.nu,
            "convention": "integral, row sums p+1 at nu=0",
            "matrix": [[str(x) for x in row] for row in op.matrix]}


def run_eigen(args):
    cs = _class_set(args)
    out = []
    for f in eigenforms(cs):
        out.append({
            "label": f.label,
            "values": [str(v) for v in f.scalar_values()],
            "eigenvalues": {str(p): str(v)
                            for p, v in sorted(f.eigenvalues.items())},
            "al_signs": {str(p): v for p, v in sorted(f.al_signs.items())},
            "essential": f.essential,
        })
        if f.field:
            out[-1]["field"] = poly_text(f.field)
    return {"class_number": cs.size, "forms": out}


def run_theta(args):
    cs = _class_set(args)
    if args.eisenstein:
        form = next(f for f in eigenforms(cs) if f.label == "eisenstein")
    elif args.match:
        form = match_eigenform(cs, *_newforms(args, args.match))
    else:
        form = _cusp_form(cs, "select one with --match LABEL")
    th = eichler_theta(form, args.prec)
    return {"coefficients": {str(n): str(v) for n, v in th.items()}}


def run_yoshida(args):
    if args.nu1 < args.nu2 or (args.nu1 - args.nu2) % 2:
        raise ValidationError("yoshida needs --nu1 >= --nu2 with an even "
                              "difference")
    cs = _class_set(args)
    if args.nu1 or args.nu2:
        import random
        rng = random.Random(args.seed or 1)
        phi1 = unit_average_form(cs, args.nu1, rng)
        phi2 = unit_average_form(cs, args.nu2, rng)
    else:
        phi1 = phi2 = _cusp_form(cs)
    return yoshida_lift(phi1, phi2, args.prec).to_json()


def run_restrict(args):
    """Restriction of the weight-0 lift; alpha1 + alpha2 = 2 nu2 = 0."""
    form = _cusp_form(_class_set(args))
    table = yoshida_lift(form, form, args.prec)
    if args.gamma:
        data = apply_to_table(projection_poly(2, 0, 0, args.gamma), table,
                              0, 0)
    else:
        data = diagonal_restriction(table, 0, 0)
    return {"coefficients": {f"{k[0]},{k[1]}": str(v)
                             for k, v in sorted(data.items())}}


def run_diffop(args):
    op = projection_poly(args.k, args.a, args.b, args.r)
    payload = {"k": args.k, "a": args.a, "b": args.b, "r": args.r,
               "normalization": op.normalization,
               "p": {f"{i},{j},{kk}": str(c)
                     for (i, j, kk), c in sorted(op.poly.items())}}
    if args.T is not None:
        payload["Q"] = op.q_poly(args.T).serialize()
    return payload


def run_gate(args):
    signs, table, n1, reason = quadruple_gate(
        *_newforms(args, *(getattr(args, key) for key in QUADRUPLE)))
    return {"level": signs.level, "sign_table": table,
            "selected_disc": n1, "rejection": reason}


def run_pipeline(args):
    """The period report of the quadruple named by the label flags."""
    return quadruple_report(
        *_newforms(args, *(getattr(args, key) for key in QUADRUPLE)),
        weighting=args.weighting, lvalue=args.lvalue,
        terms=args.pmax or None)


def _series(args):
    """The newform named by --sym2, or the triple named by --h1, --f1 and
    --f2; naming both is a contradiction."""
    given = [f"--{key}" for key in TRIPLE if getattr(args, key)]
    if args.sym2:
        if given:
            raise ValidationError("--sym2 excludes " + ", ".join(given))
        return _newforms(args, args.sym2)
    missing = [f"--{key}" for key in TRIPLE if not getattr(args, key)]
    if missing:
        raise ValidationError(f"{args.command} needs " + ", ".join(missing))
    triple = _newforms(args, *(getattr(args, key) for key in TRIPLE))
    if len({r.level for r in triple}) > 1:
        raise ValidationError(
            "the triple mixes levels "
            + ", ".join(f"{r.label} (level {r.level})" for r in triple))
    return triple


def run_euler(args):
    records = _series(args)
    if args.sym2:
        fac = sym2_factor(*records, args.p)
    else:
        fac = triple_factor_at(*records, args.p)
    return {"type": "sym2" if args.sym2 else "triple", "p": args.p,
            "coeffs": [str(c) for c in fac.coeffs], "shift": str(fac.shift)}


def run_lvalue(args):
    records, terms = _series(args), args.pmax or None
    if args.sym2:
        cv = petersson_norm_proxy(*records, terms=terms)
    else:
        cv = triple_central_value(*records, terms=terms)
    return {"type": "sym2-edge" if args.sym2 else "triple-central",
            "value": cv.value, "lambda": cv.lam, "error": cv.error,
            "terms": cv.terms}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one `error: ...` line and exit 2, the
    same form as the checks that need more than one flag."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        sys.exit(2)


def _int_type(test, what):
    """argparse type: an integer n with test(n), described as `what`."""
    def parse(text):
        try:
            n = int(text)
        except ValueError:
            n = None
        if n is None or not test(n):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return n
    return parse


NONNEG = _int_type(lambda n: n >= 0, "a nonnegative integer")
POSITIVE = _int_type(lambda n: n >= 1, "a positive integer")
PRIME = _int_type(_is_prime, "a prime")
LEVEL = _int_type(lambda n: n >= 1 and _is_squarefree(n),
                  "a positive squarefree integer")
DISC = _int_type(
    lambda n: n >= 2 and _is_squarefree(n) and len(_prime_factors(n)) % 2,
    "a product of an odd number of distinct primes, so no definite "
    "quaternion algebra has it as discriminant")


def _index(text):
    """argparse type: the index n1,m2,n2 of a half-integral matrix."""
    try:
        n1, m2, n2 = (int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an index n1,m2,n2 of three integers") from None
    return HalfIntMatrix(n1, m2, n2)


def build_parser():
    parser = _Parser(
        prog="quatperiods",
        description="Brandt matrices, Yoshida lifts and period sums on "
                    "definite quaternion algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, run, *groups):
        p = sub.add_parser(name)
        p.set_defaults(run=run)
        p.add_argument("--out", default="",
                       help="write the JSON to this file, not to stdout")
        for group in groups:
            group(p)
        return p

    def class_set(p):
        p.add_argument("--disc", type=DISC, required=True)
        p.add_argument("--level", type=LEVEL,
                       help="a multiple of --disc (default: --disc)")

    def newforms(p):
        p.add_argument("--newforms", default="",
                       help="newform data file (default: the shipped one)")

    def quadruple(p):
        for key in QUADRUPLE:
            p.add_argument(f"--{key}", required=True)

    def triple(p):
        for key in TRIPLE:
            p.add_argument(f"--{key}", default="")
        p.add_argument("--sym2", default="",
                       help="use the symmetric square of this newform")

    def afe(p):
        p.add_argument("--pmax", type=NONNEG, default=0,
                       help="series length (default 0: from the conductor)")

    add("classset", run_classset, class_set)
    p = add("brandt", run_brandt, class_set)
    p.add_argument("--p", type=PRIME, required=True)
    p.add_argument("--nu1", type=NONNEG, default=0)
    add("eigen", run_eigen, class_set)
    p = add("theta", run_theta, class_set, newforms)
    p.add_argument("--prec", type=POSITIVE, default=6)
    form = p.add_mutually_exclusive_group()
    form.add_argument("--match", default="",
                      help="newform label to select the eigenform")
    form.add_argument("--eisenstein", action="store_true")
    p = add("yoshida", run_yoshida, class_set)
    p.add_argument("--nu1", type=NONNEG, default=0)
    p.add_argument("--nu2", type=NONNEG, default=0)
    p.add_argument("--prec", type=NONNEG, default=6)
    p.add_argument("--seed", type=int, default=0)
    p = add("restrict", run_restrict, class_set)
    p.add_argument("--prec", type=NONNEG, default=6)
    p.add_argument("--gamma", type=NONNEG, default=0)
    p = add("diffop", run_diffop)
    p.add_argument("--k", type=_int_type(lambda n: n >= 2, "an integer >= 2"),
                   default=2)
    for key in ("a", "b", "r"):
        p.add_argument(f"--{key}", type=NONNEG, default=0)
    p.add_argument("--T", type=_index, help="index n1,m2,n2 for Q(T)")
    add("gate", run_gate, quadruple, newforms)
    p = add("period", run_pipeline, quadruple, newforms, afe)
    p.add_argument("--weighting", default="unweighted",
                   choices=("unweighted", "mass"))
    p.add_argument("--lvalue", action="store_true")
    p = add("euler", run_euler, triple, newforms)
    p.add_argument("--p", type=PRIME, required=True)
    add("lvalue", run_lvalue, triple, newforms, afe)
    p = add("verify", run_verify, newforms)
    p.add_argument("--seed", type=int, default=0)
    return parser


def _emit(out, payload):
    text = json.dumps(payload, sort_keys=True, indent=1)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        payload = args.run(args)
    except (ValidationError, PeriodError, LSeriesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    if payload is not None:
        _emit(args.out, payload)
    return 0


if __name__ == "__main__":
    main()
