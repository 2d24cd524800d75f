"""Command line layer: parse, call, print, map errors to exit codes.

`COMMANDS` maps each subcommand to its handler and its flags, each flag to a
type and a default; `parse_args` reads the named command's entry only, and
the namespace it returns is the whole configuration.  A handler resolves
newform labels and calls the package; the pipeline from a quadruple to its
period report lives in `periods`, the central values in `lseries`.  Outputs
are deterministic JSON (sorted keys, no timestamps).  Exit codes: 0 success,
2 invalid input (one `error: ...` line on stderr), 3 math-invariant failure.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import newformdata
from .brandt import (brandt_matrix, constant_form, eichler_theta, eigenforms,
                     poly_text, unit_average_form)
from .lseries import (ingest, petersson_norm_proxy, resolve_label,
                      sym2_factor, sym2_ldata, triple_central_value,
                      triple_factor_at, triple_ldata, LSeriesError)
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
        return all(class_set_for(n1, m).mass() == eichler_mass(n1, m)
                   for n1, m in ((2, 1), (3, 1), (5, 1), (7, 1), (11, 1),
                                 (13, 1), (2, 11)))
    ok &= check("mass formulas", masses)

    def level11():
        cs = class_set_for(11, 1)
        cusp = _cusp_form(cs)
        return sorted(cs.unit_counts) == [4, 6] and \
            cusp.scalar_values() == [2, -3] and cusp.eigenvalues[2] == -2
    ok &= check("level 11 ground truth", level11)

    def theta_match():
        h, = _newforms(args, "11a")
        th = eichler_theta(_cusp_form(class_set_for(11, 1)), 20)
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
        cusp = _cusp_form(class_set_for(11, 1))
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
        # the exact operators p(u1, u12, u2) of (k, a, b, r), recorded from
        # an expansion of delta^r that is independent of the closed form;
        # (i, j, kk) keys u1^i u12^j u2^kk, so (2, 0, 0, 2) is u12^2 - u1 u2
        want = {(2, 0, 0, 2): {(0, 2, 0): 1, (1, 0, 1): -1},
                (3, 1, 0, 1): {(0, 1, 0): 1, (1, 0, 0): Fraction(-1, 3)},
                (4, 2, 1, 2): {(0, 2, 0): 1, (0, 1, 1): Fraction(-6, 5),
                               (1, 0, 1): Fraction(-2, 15),
                               (1, 1, 0): Fraction(-2, 3),
                               (2, 0, 0): Fraction(1, 5)}}
        return all(projection_poly(*key).poly == poly
                   for key, poly in want.items())
    ok &= check("differential operators", diffops)

    def corollaries():
        # (a) phi2 constant: vanishes for distinct psi, S2 = 6 for psi = e;
        # (b) phi1 = phi2 = e: S1 = S2, so the product is a square
        cs = class_set_for(11, 1)
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
    if args.eisenstein and args.match:
        raise ValidationError("--match not allowed with argument --eisenstein")
    cs = _class_set(args)
    if args.eisenstein:
        form = constant_form(cs)  # T(p) 1 = (p + 1) 1
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
    data = apply_to_table(projection_poly(2, 0, 0, args.gamma), table, 0, 0) \
        if args.gamma else diagonal_restriction(table, 0, 0)
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
        fac, ldata = sym2_factor(*records, args.p), sym2_ldata(*records)
    else:
        fac, ldata = triple_factor_at(*records, args.p), triple_ldata(*records)
    return {"type": "sym2" if args.sym2 else "triple", "p": args.p,
            "coeffs": [str(c) for c in fac], "shift": str(ldata.shift)}


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

def _flag_type(test, what, convert=int):
    """Flag type: convert(text) if it passes test, described as `what`."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not test(value):
            raise ValidationError(f"{text!r} is not {what}")
        return value
    return parse


NONNEG = _flag_type(lambda n: n >= 0, "a nonnegative integer")
POSITIVE = _flag_type(lambda n: n >= 1, "a positive integer")
PRIME = _flag_type(_is_prime, "a prime")
LEVEL = _flag_type(lambda n: n >= 1 and _is_squarefree(n),
                   "a positive squarefree integer")
WEIGHTING = _flag_type(lambda s: s in ("unweighted", "mass"),
                       "unweighted or mass", str)
DISC = _flag_type(
    lambda n: n >= 2 and _is_squarefree(n) and len(_prime_factors(n)) % 2,
    "a product of an odd number of distinct primes, so no definite "
    "quaternion algebra has it as discriminant")


def _index(text):
    """Flag type: the index n1,m2,n2 of a half-integral matrix."""
    try:
        n1, m2, n2 = (int(x) for x in text.split(","))
    except ValueError:
        raise ValidationError(
            f"{text!r} is not an index n1,m2,n2 of three integers") from None
    return HalfIntMatrix(n1, m2, n2)


# A flag maps to (type, default): the type turns its text into the value,
# `bool` marks a switch that takes no value, and REQUIRED a flag with none.
REQUIRED = ...
CLASS_SET = {"disc": (DISC, REQUIRED), "level": (LEVEL, None)}
NEWFORMS = {"newforms": (str, "")}
LABELS4 = {key: (str, REQUIRED) for key in QUADRUPLE}
LABELS3 = {**{key: (str, "") for key in TRIPLE}, "sym2": (str, "")}
AFE = {"pmax": (NONNEG, 0)}
COMMANDS = {
    "classset": (run_classset, CLASS_SET),
    "brandt": (run_brandt, {**CLASS_SET, "p": (PRIME, REQUIRED),
                            "nu1": (NONNEG, 0)}),
    "eigen": (run_eigen, CLASS_SET),
    "theta": (run_theta, {**CLASS_SET, **NEWFORMS, "prec": (POSITIVE, 6),
                          "match": (str, ""), "eisenstein": (bool, False)}),
    "yoshida": (run_yoshida, {**CLASS_SET, "nu1": (NONNEG, 0),
                              "nu2": (NONNEG, 0), "prec": (NONNEG, 6),
                              "seed": (int, 0)}),
    "restrict": (run_restrict, {**CLASS_SET, "prec": (NONNEG, 6),
                                "gamma": (NONNEG, 0)}),
    "diffop": (run_diffop, {
        "k": (_flag_type(lambda n: n >= 2, "an integer >= 2"), 2),
        "a": (NONNEG, 0), "b": (NONNEG, 0), "r": (NONNEG, 0),
        "T": (_index, None)}),
    "gate": (run_gate, {**LABELS4, **NEWFORMS}),
    "period": (run_pipeline, {**LABELS4, **NEWFORMS, **AFE,
                              "weighting": (WEIGHTING, "unweighted"),
                              "lvalue": (bool, False)}),
    "euler": (run_euler, {**LABELS3, **NEWFORMS, "p": (PRIME, REQUIRED)}),
    "lvalue": (run_lvalue, {**LABELS3, **NEWFORMS, **AFE}),
    "verify": (run_verify, NEWFORMS),
}
HELP = {"out": "write the JSON to this file, not to stdout",
        "level": "a multiple of --disc (default: --disc)",
        "newforms": "newform data file (default: the shipped one)",
        "sym2": "use the symmetric square of this newform",
        "pmax": "series length (default 0: from the conductor)",
        "match": "newform label to select the eigenform",
        "T": "index n1,m2,n2 for Q(T)"}


def _help(command, flags):
    """The usage text: every command, or the flags of one."""
    if command not in COMMANDS:
        return ("usage: quatperiods COMMAND [--FLAG VALUE ...]\n\nBrandt "
                "matrices, Yoshida lifts and period sums on definite "
                "quaternion algebras\n\ncommands: " + ", ".join(COMMANDS))
    lines = [f"usage: quatperiods {command} [--FLAG VALUE ...]\n\nflags:"]
    for flag, (kind, default) in flags.items():
        spec = f"--{flag}" + ("" if kind is bool else f" {flag.upper()}")
        note = "required" if default is REQUIRED else HELP.get(flag, "")
        lines.append(f"  {spec:<21} {note}".rstrip())
    return "\n".join(lines)


def parse_args(argv):
    """The namespace of one command line: command, run and every flag of the
    command, given or defaulted; the last of a repeated flag wins.  Prints
    the help and exits 0 on -h or --help."""
    command = argv[0] if argv else ""
    run, flags = COMMANDS.get(command, (None, {}))
    flags = {"out": (str, ""), **flags}
    values = {flag: default for flag, (_, default) in flags.items()}
    if {"-h", "--help"} & set(argv):
        print(_help(command, flags))
        sys.exit(0)
    if run is None:
        raise ValidationError(f"unknown command {command!r}, not one of "
                              + ", ".join(COMMANDS))
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, text = token.partition("=")
        kind = flags.get(flag[2:], (None,))[0] if flag[:2] == "--" else None
        if kind is None:
            raise ValidationError(f"{command} has no flag {flag!r}")
        if kind is bool and eq:
            raise ValidationError(f"argument {flag}: takes no value")
        if kind is not bool and not eq:
            text = next(tokens, None)
            if text is None or text.startswith("--"):
                raise ValidationError(f"argument {flag}: expected one value")
        try:
            values[flag[2:]] = True if kind is bool else kind(text)
        except ValueError as exc:
            raise ValidationError(f"argument {flag}: {exc}") from None
    missing = [f"--{flag}" for flag, value in values.items()
               if value is REQUIRED]
    if missing:
        raise ValidationError("the following arguments are required: "
                              + ", ".join(missing))
    return SimpleNamespace(command=command, run=run, **values)


def _emit(out, payload):
    """Print the payload as JSON, or write it to the file out; a file that
    cannot be written raises a ValidationError that names it."""
    text = json.dumps(payload, sort_keys=True, indent=1)
    if not out:
        print(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise ValidationError(f"cannot write {out}: {exc.strerror}") from None


def main(argv=None):
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        payload = args.run(args)
        if payload is not None:
            _emit(args.out, payload)
    except (ValidationError, PeriodError, LSeriesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    return 0


if __name__ == "__main__":
    main()
