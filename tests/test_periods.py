import copy
import math
from fractions import Fraction

import pytest

from quatperiods.brandt import eigenforms
from quatperiods.lseries import ingest, resolve_label
from quatperiods.newformdata import default_data_path
from quatperiods import periods
from quatperiods.orders import class_set_for
from quatperiods.quatalg import _prime_factors
from quatperiods.periods import (PeriodError, SignData, degenerate_eisenstein,
                                 period_sums, select_algebra, sign_gate)


def scaled_form(form, c):
    """A copy of form with every value multiplied by c."""
    out = copy.copy(form)
    out.values = [v * c for v in form.values]
    return out


def records():
    return ingest(default_data_path())


def disc11():
    cs = class_set_for(11)
    forms = eigenforms(cs)
    e = next(f for f in forms if f.label == "cuspidal-essential")
    const = next(f for f in forms if f.label == "eisenstein")
    return cs, e, const


# -- sign data and gates -------------------------------------------------------

def test_sign_gate_all_plus_never_passes():
    sd = SignData(14, {2: 1, 7: 1}, {2: 1, 7: 1}, {2: 1, 7: 1})
    assert not sign_gate(sd, 2)
    assert not sign_gate(sd, 7)


def test_sign_gate_level_11():
    recs = records()
    h = resolve_label(recs, "11a")
    sd = SignData.from_records(h, h, h, h)
    assert sd.product_at(11) == -1
    assert sign_gate(sd, 11)
    n1, reason = select_algebra(sd)
    assert n1 == 11 and reason is None


def test_select_rejects_global_plus():
    sd = SignData(14, {2: 1, 7: -1}, {2: 1, 7: -1}, {2: 1, 7: 1})
    # products: at 2: +1, at 7: -1 * -1 * +1 = +1? then global +1
    assert sd.global_product() == 1
    n1, reason = select_algebra(sd)
    assert n1 is None and "central value zero" in reason


def test_select_unique_n1_level_14():
    sd = SignData(14, {2: 1, 7: -1}, {2: 1, 7: -1}, {2: 1, 7: -1})
    # at 2: +1; at 7: -1: N1 = 7
    n1, reason = select_algebra(sd)
    assert n1 == 7


def test_at_most_one_admissible_all_patterns():
    import itertools
    for level, primes in ((14, (2, 7)), (15, (3, 5))):
        for pattern in itertools.product((1, -1), repeat=3 * len(primes)):
            eps_h = dict(zip(primes, pattern[:len(primes)]))
            eps1 = dict(zip(primes, pattern[len(primes):2 * len(primes)]))
            eps2 = dict(zip(primes, pattern[2 * len(primes):]))
            sd = SignData(level, eps_h, eps1, eps2)
            passers = [d for d in (primes[0], primes[1], level)
                       if len([p for p in primes if d % p == 0]) % 2 == 1
                       and sign_gate(sd, d)]
            assert len(passers) <= 1
            if sd.global_product() == -1:
                assert len(passers) == 1
                n1, reason = select_algebra(sd)
                assert n1 == passers[0]


def test_sign_data_requires_matching_h_signs():
    recs = records()
    h1 = resolve_label(recs, "26a")
    h2 = resolve_label(recs, "26b")
    with pytest.raises(PeriodError):
        SignData.from_records(h1, h2, h1, h1)


# -- period sums ---------------------------------------------------------------

def test_period_sums_all_e_unweighted():
    cs, e, const = disc11()
    rep = period_sums(e, e, e, e, 0, 0)
    assert rep.s1 == rep.s2 == -19
    assert rep.product == 361
    assert rep.squared_proxy == 361 ** 2
    assert not rep.vanishing
    assert rep.conventions["unweighted"] == (-19, -19)
    assert rep.conventions["mass"] == (Fraction(-5, 2), Fraction(-5, 2))


def test_period_sums_mixed_conventions_reported():
    cs, e, const = disc11()
    rep = period_sums(e, const, e, const, 0, 0)
    # S for (phi = e, psi1 = e, psi2 = const): unweighted sum e^2*1 = 13
    assert rep.s1 == 13
    # weighted variant of S2 = sum e(y_j)/e_j = 0
    assert rep.conventions["mass"][1] == 0
    assert rep.conventions["unweighted"][1] == -1


def test_period_sums_sign_flip_invariance():
    cs, e, const = disc11()
    minus_e = scaled_form(e, -1)
    rep = period_sums(e, e, e, e, 0, 0)
    rep_flip = period_sums(minus_e, e, minus_e, e, 0, 0)
    assert rep_flip.s1 == rep.s1  # two sign flips in S1
    assert rep_flip.squared_proxy == rep.squared_proxy


def test_period_sums_weight_gate():
    cs, e, const = disc11()
    rep = period_sums(e, e, e, e, 1, 1)  # alpha1 + alpha2 != 0
    assert rep.vanishing and rep.reason == "weight-gate"


def test_period_sums_sign_gate_short_circuit():
    cs, e, const = disc11()
    sd = SignData(11, {11: 1}, {11: 1}, {11: 1})
    rep = period_sums(e, e, e, e, 0, 0, signs=sd)
    assert rep.vanishing and rep.reason == "sign-gate"
    assert rep.product == 0


def test_degenerate_eisenstein_cases():
    cs, e, const = disc11()
    distinct = degenerate_eisenstein(e, e, const)
    assert distinct.product == 0 and distinct.vanishing
    equal = degenerate_eisenstein(e, e, e)
    assert not equal.vanishing
    assert equal.s2 == 6  # mass^{-1} * weighted sum of e^2 = (12/5)(5/2)
    scaled = degenerate_eisenstein(scaled_form(e, 3), e, e)
    assert scaled.product == 3 * equal.product


def test_klingen_case_perfect_square():
    # corollary (b), phi1 = phi2: S1 = S2, so the product is a square
    cs, e, const = disc11()
    rep = period_sums(e, e, e, e, 0, 0)
    assert rep.product == 361
    assert rep.product == rep.s1 * rep.s2 and rep.s1 == rep.s2


def test_gate_failure_forces_exact_zero_level_14():
    # quadruple (14a, 14a, 14a, 14a): gate passes only at N1 = 7; the sums
    # computed in the disc-2 algebra must vanish identically
    recs = records()
    h = resolve_label(recs, "14a")
    sd = SignData.from_records(h, h, h, h)
    n1, _ = select_algebra(sd)
    assert n1 == 7
    for disc, n2 in ((2, 7), (7, 2)):
        cs = class_set_for(disc, n2)
        cusps = [f for f in eigenforms(cs)
                 if f.label in ("cuspidal-essential", "non-essential")
                 and f.eigenvalues[3] == h.a(3) and f.eigenvalues[5] == h.a(5)]
        assert len(cusps) == 1, f"disc {disc}"
        psi = cusps[0]
        rep = period_sums(psi, psi, psi, psi, 0, 0)
        if disc == 2:
            assert rep.product == 0  # gate fails here
        else:
            assert rep.product != 0


def test_gate_failure_forces_exact_zero_level_15():
    recs = records()
    h = resolve_label(recs, "15a")
    sd = SignData.from_records(h, h, h, h)
    n1, _ = select_algebra(sd)
    assert n1 == 5
    for disc, n2 in ((3, 5), (5, 3)):
        cs = class_set_for(disc, n2)
        cusps = [f for f in eigenforms(cs)
                 if f.label in ("cuspidal-essential", "non-essential")
                 and f.eigenvalues[2] == h.a(2) and f.eigenvalues[7] == h.a(7)]
        assert len(cusps) == 1
        psi = cusps[0]
        rep = period_sums(psi, psi, psi, psi, 0, 0)
        if disc == 3:
            assert rep.product == 0
        else:
            assert rep.product != 0


# -- the pipeline from a quadruple to the L-value cross-check ------------------

# Recorded before the pipeline moved out of the command line layer, at the
# default (unweighted) convention: the exact fields byte for byte, the
# floats of the cross-check with their lambda values and errors.  The
# errors, differences of rounded sums, were recorded again when the AFE
# series came to be summed on blocks: they moved by up to 1.2e-6 of
# themselves, the ratio and the lambda values by less than 1e-12.  They
# were recorded again when one Horner pass came to sample the coarse and
# the fine weight: the lambda errors moved by up to 1.6e-7 of themselves,
# through their rounding-size quad_err and interp parts, and the relative
# errors by up to 3.4e-11.
CROSS_CHECK = {
    ("11a", "11a"): {
        "exact": {"normalized_period_sq": "4/25", "S1": "-19", "S2": "-19",
                  "conventions": {"mass": ["-5/2", "-5/2"],
                                  "unweighted": ["-19", "-19"]}},
        "ratio": 1.206000047052023,
        "relative_error": 0.00028917003837474034,
        "lambda": (0.0024048098258204315, 1.2205701122751168e-09)},
    ("26a", "26b"): {
        "exact": {"normalized_period_sq": "1/9", "S1": "-2", "S2": "-2",
                  "conventions": {"mass": ["-1", "-1"],
                                  "unweighted": ["-2", "-2"]}},
        "ratio": 3.1376519884754575,
        "relative_error": 0.0012038687869325901,
        "lambda": (0.06477479724012745, 4.410868719009884e-09)},
}


@pytest.mark.parametrize("h, f", sorted(CROSS_CHECK))
def test_quadruple_report_pins_the_cross_check(monkeypatch, h, f):
    calls, matched = [], []
    original, match = periods.period_sums, periods.match_eigenform

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    def counting_match(cs, record):
        matched.append(record.label)
        return match(cs, record)

    monkeypatch.setattr(periods, "period_sums", counting)
    monkeypatch.setattr(periods, "match_eigenform", counting_match)
    recs = ingest(default_data_path(), {h, f})
    h_rec, f_rec = resolve_label(recs, h), resolve_label(recs, f)
    out = periods.quadruple_report(h_rec, h_rec, f_rec, f_rec, lvalue=True)
    # the cross-check reads the mass sums off the report it follows, and
    # each distinct label is matched once
    assert len(calls) == 1
    assert sorted(matched) == sorted({h, f})
    want = CROSS_CHECK[h, f]
    check, report = out["lvalue_cross_check"], out["period"]
    got = {"normalized_period_sq": check["normalized_period_sq"],
           "S1": report["S1"], "S2": report["S2"],
           "conventions": report["conventions"]}
    assert got == want["exact"]
    for key in ("ratio", "relative_error"):
        assert math.isclose(check[key], want[key], rel_tol=1e-12)
    for key in ("lambda_h1", "lambda_h2"):
        lam = check[key]
        assert math.isclose(lam["value"], want["lambda"][0], rel_tol=1e-12)
        assert math.isclose(lam["error"], want["lambda"][1], rel_tol=1e-12)



# The shipped quadruples (h, h; f, f) with a series length that reaches the
# Sym^2 proxies as well as the two Lambda: with the proxies at their 83-term
# default the error at 11a^4 stays at 2.9e-4
PAPER_CONSTANT_CASES = [("11a", "11a", 2000), ("14a", "14a", 4000),
                        ("15a", "15a", 4000)] + [
    (h, f, 11000) for h in ("26a", "26b") for f in ("26a", "26b")]


@pytest.mark.parametrize("h, f, terms", PAPER_CONSTANT_CASES,
                         ids=[f"{h}-{f}" for h, f, _ in PAPER_CONSTANT_CASES])
def test_paper_constant_at_every_shipped_quadruple(h, f, terms):
    # ratio * sqrt(N) = 4^omega(N) with no fitted parameter
    recs = ingest(default_data_path(), {h, f})
    h_rec, f_rec = resolve_label(recs, h), resolve_label(recs, f)
    cross = periods.quadruple_report(h_rec, h_rec, f_rec, f_rec, lvalue=True,
                                     terms=terms)["lvalue_cross_check"]
    n = h_rec.level
    err = cross["relative_error"]
    assert err <= 1e-5
    assert abs(cross["ratio"] * math.sqrt(n) / 4 ** len(_prime_factors(n))
               - 1) <= 3 * err
