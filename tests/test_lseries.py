import cmath
import functools
import math
import operator
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatperiods import lseries
from quatperiods._factor import _mul
from quatperiods.lseries import (LData, LSeriesError, NewformRecord,
                                 _afe_terms, _log_gamma, central_value,
                                 dirichlet_coefficients, from_power_sums,
                                 good_factor, ingest, local_coefficients,
                                 petersson_norm_proxy, power_sums,
                                 resolve_label, sym2, sym2_factor, sym2_ldata,
                                 tensor, triple_central_value, triple_factor,
                                 triple_factor_at, triple_factor_steinberg,
                                 triple_ldata)
from quatperiods.newformdata import default_data_path, write_newform_file
from quatperiods.quatalg import _prime_factors, primes_up_to


def records():
    return ingest(default_data_path())


def test_ingest_shipped_file():
    recs = records()
    labels = {r.label for r in recs}
    assert {"11a", "14a", "15a", "26a", "26b"} <= labels
    r11 = resolve_label(recs, "11a")
    assert r11.a(2) == -2 and r11.a(3) == -1
    assert r11.al_signs == {11: -1}
    r26a = resolve_label(recs, "26a")
    assert r26a.al_signs == {2: 1, 13: -1}
    r26b = resolve_label(recs, "26b")
    assert r26b.al_signs == {2: -1, 13: 1}


def test_newform_file_regenerates(tmp_path):
    """The generator at pmax 200 writes the shipped file cut to p <= 200."""
    path = write_newform_file(tmp_path / "newforms.txt", pmax=200)
    with open(path, encoding="utf-8") as fh:
        regenerated = fh.read().splitlines()
    with open(default_data_path(), encoding="utf-8") as fh:
        shipped = fh.read().splitlines()
    cut = []
    for line in shipped:
        *head, ap = line.split("|")
        ap = ",".join(c for c in ap.split(",") if int(c.split(":")[0]) <= 200)
        cut.append("|".join([*head, ap]))
    assert regenerated == cut


def test_ingest_rejects_ramanujan_violation(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("x|7|2|7:+1|2:5,3:1\n", encoding="utf-8")
    with pytest.raises(LSeriesError) as err:
        ingest(str(bad))
    assert "Ramanujan" in str(err.value)


def test_ingest_rejects_a_bad_prime_sign_other_than_minus_a_p(tmp_path):
    # at weight 2 and p || N, eps_p = -a_p: the gate and a Hecke kernel
    # read one sign
    bad = tmp_path / "bad.txt"
    bad.write_text("x|7|2|7:+1|2:1,7:-1\ny|11|2|11:-1|2:-2,11:-1\n",
                   encoding="utf-8")
    with pytest.raises(LSeriesError, match="row 2: a_11 is not -eps_11"):
        ingest(str(bad))
    assert ingest(str(bad), {"x"})[0].al_signs == {7: 1}


def test_ingest_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("only|three|fields\n", encoding="utf-8")
    with pytest.raises(LSeriesError) as err:
        ingest(str(bad))
    assert "row 1" in str(err.value)


@pytest.mark.parametrize("index", [1, 4, 0])
def test_ingest_rejects_non_prime_index(tmp_path, index):
    bad = tmp_path / "bad.txt"
    bad.write_text(f"x|7|2|7:+1|2:1,3:1\ny|7|2|7:+1|2:1,{index}:1\n",
                   encoding="utf-8")
    with pytest.raises(LSeriesError, match=f"row 2: {index} is not prime"):
        ingest(str(bad))


@pytest.mark.parametrize("entries, index", [
    ("1:0", 1), ("0:0", 0), ("-3:1", -3), ("9:1", 9), ("2:1,-3:1", -3),
    ("3:1,9:1,5:1", 9)])
def test_ingest_rejects_non_prime_entries(tmp_path, entries, index):
    # a negative index would read the prime sieve from its end
    bad = tmp_path / "bad.txt"
    bad.write_text(f"x|7|2|7:+1|2:1,3:1\ny|7|2|7:+1|{entries}\n",
                   encoding="utf-8")
    with pytest.raises(LSeriesError, match=f"row 2: {index} is not prime"):
        ingest(str(bad))
    bad.write_text(f"y|7|2|7:+1|{entries}\n", encoding="utf-8")
    with pytest.raises(LSeriesError, match=f"row 1: {index} is not prime"):
        ingest(str(bad))


def test_ingest_empty(tmp_path):
    f = tmp_path / "empty.txt"
    f.write_text("", encoding="utf-8")
    assert ingest(str(f)) == []


def test_power_sums_roundtrip():
    f = [1, -3, Fraction(7, 2), -1]
    assert from_power_sums(power_sums(f, 6)[:3], 3) == f


class FractionFactor:
    """Oracle for the local factor algebra: Newton's identities with signed
    elementary symmetric functions, every value a Fraction."""

    def __init__(self, coeffs):
        self.coeffs = [Fraction(c) for c in coeffs]

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def power_sums(self, count):
        e = [(-1) ** k * self.coeffs[k] if k < len(self.coeffs)
             else Fraction(0) for k in range(count + 1)]
        ps = [Fraction(0)] * (count + 1)
        for k in range(1, count + 1):
            acc = Fraction(0)
            for i in range(1, k):
                acc += (-1) ** (i - 1) * e[i] * ps[k - i]
            ps[k] = acc + (-1) ** (k - 1) * Fraction(k) * e[k]
        return ps[1:]

    @classmethod
    def from_power_sums(cls, ps, degree):
        e = [Fraction(1)]
        for k in range(1, degree + 1):
            acc = Fraction(0)
            for i in range(1, k + 1):
                acc += (-1) ** (i - 1) * e[k - i] * ps[i - 1]
            e.append(acc / k)
        return cls([(-1) ** k * e[k] for k in range(degree + 1)])

    def tensor(self, other):
        d = self.degree * other.degree
        ps1 = self.power_sums(d)
        ps2 = other.power_sums(d)
        return FractionFactor.from_power_sums(
            [ps1[k] * ps2[k] for k in range(d)], d)

    def sym2(self):
        d = self.degree * (self.degree + 1) // 2
        ps1 = self.power_sums(2 * d)
        return FractionFactor.from_power_sums(
            [(ps1[k] ** 2 + ps1[2 * k + 1]) / 2 for k in range(d)], d)

    def scale_roots(self, c):
        c = Fraction(c)
        return FractionFactor([self.coeffs[k] * c ** k
                               for k in range(len(self.coeffs))])

    def multiply(self, other):
        a, b = self.coeffs, other.coeffs
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return FractionFactor(out)

    def local_coefficients(self, count):
        inv = [Fraction(1)]
        for m in range(1, count + 1):
            acc = Fraction(0)
            for k in range(1, min(m, self.degree) + 1):
                acc -= self.coeffs[k] * inv[m - k]
            inv.append(acc)
        return inv


def integral_factor(degree):
    """Coefficients 1, c_1..c_degree of an integral factor, |c_k| <= 50;
    c_1 = -a_p is 0 often enough to be drawn."""
    return st.lists(st.integers(-50, 50), min_size=degree, max_size=degree
                    ).map(lambda tail: [1, *tail])


def all_ints(values):
    return all(type(v) is int for v in values)


def scaled(f, c):
    """The factor f with its roots times c."""
    return [x * c ** k for k, x in enumerate(f)]


@settings(max_examples=60, deadline=None)
@given(pair=st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
           lambda ds: st.tuples(integral_factor(ds[0]),
                                integral_factor(ds[1]))),
       count=st.integers(0, 8))
def test_integral_factor_algebra_matches_the_fraction_oracle(pair, count):
    (f, g), (fa, fb) = pair, map(FractionFactor, pair)
    ps = power_sums(f, count)
    assert ps == fa.power_sums(count) and all_ints(ps)
    assert from_power_sums(power_sums(f, len(f) - 1), len(f) - 1) == f
    for got, want in ((tensor(f, g), fa.tensor(fb)), (sym2(f), fa.sym2()),
                      (_mul(f, g), fa.multiply(fb))):
        assert got == want.coeffs and all_ints(got)
    local = local_coefficients(f, count)
    assert local == fa.local_coefficients(count) and all_ints(local)


def test_scale_roots_by_a_non_integer_gives_fractions():
    # roots scaled by 1/5, as sym2_identities scales the tensor: the
    # algebra keeps the Fraction coefficients exact
    f = scaled([1, 2, 5], Fraction(1, 5))
    fa = FractionFactor([1, 2, 5]).scale_roots(Fraction(1, 5))
    assert f == fa.coeffs == [1, Fraction(2, 5), Fraction(1, 5)]
    assert all(type(c) is Fraction for c in f[1:])
    g = [1, -3, 7]
    for got, want in ((tensor(f, g), fa.tensor(FractionFactor(g))),
                      (sym2(f), fa.sym2())):
        assert got == want.coeffs
        assert any(type(c) is Fraction for c in got)
    assert power_sums(f, 6) == fa.power_sums(6)
    assert local_coefficients(f, 6) == fa.local_coefficients(6)


def brute_force_coefficients(factor, count, shift):
    """Oracle for dirichlet_coefficients: factor each n and multiply 1.0 by
    the local double at p^v || n in increasing order of p."""
    loc = {}
    shift = float(shift)
    for p in primes_up_to(count):
        local = FractionFactor(factor(p)).local_coefficients(
            int(math.log(count, p)) + 1)
        loc[p] = [float(c) * p ** (-v * shift) for v, c in enumerate(local)]
    b = [None]
    for n in range(1, count + 1):
        value, m = 1.0, n
        for p in sorted(loc):
            v = 0
            while m % p == 0:
                m //= p
                v += 1
            if v:
                value *= loc[p][v]
        b.append(value)
    return b


@pytest.mark.parametrize("count", [1, 2, 3, 4, 8, 9, 30, 49, 250, 1000])
def test_dirichlet_coefficients_match_the_factored_oracle(count):
    # b_p = 0 at 3 (p^2 <= count from 9 on) and at the largest prime
    # (p^2 > count); the rest random of degree 1 to 3, with a shift that
    # makes the product of three or more local doubles depend on their order
    rng = random.Random(count)
    primes = primes_up_to(count)
    shift = rng.choice([Fraction(1, 2), Fraction(3, 2)])
    factors = {}
    for p in primes:
        degree = rng.randint(1, 3)
        coeffs = [1] + [rng.randint(-9, 9) for _ in range(degree)]
        if p in (3, primes[-1]):
            coeffs[1] = 0
        factors[p] = coeffs
    b = dirichlet_coefficients(factors.__getitem__, count, shift)
    want = brute_force_coefficients(factors.__getitem__, count, shift)
    assert b.typecode == "d" and len(b) == count + 1 and b[0] == 0.0
    assert want[0] is None
    assert [x.hex() for x in b[1:]] == [x.hex() for x in want[1:]]
    if count >= 3:
        assert b[3] == 0.0


def stride_coefficients(factor, count, shift):
    """Oracle for dirichlet_coefficients: its stride loop with the full
    per-prime set-up (local_coefficients and math.log) at every prime, also
    where p^2 > count reads only the value at v = 1."""
    b = [None] + [1.0] * count
    shift = float(shift)
    for p in primes_up_to(count):
        local = local_coefficients(factor(p), int(math.log(count, p)) + 1)
        loc = [float(c) * p ** (-v * shift) for v, c in enumerate(local)]
        at = [loc[1]] * (count // p)
        q, v = p, 2
        while q * p <= count:
            at[q - 1::q] = [loc[v]] * (count // (q * p))
            q *= p
            v += 1
        b[p::p] = [x * y for x, y in zip(b[p::p], at)]
    return b


def test_dirichlet_coefficients_match_the_stride_loop():
    # the level-26 triple and Sym^2 series at full length, and random
    # factors of degree 0 to 3 with int or Fraction coefficients, one shift
    # per series
    recs = records()
    h, f = resolve_label(recs, "26b"), resolve_label(recs, "26a")
    triple = triple_ldata(h, f, f)
    assert triple.terms == 10390
    cases = [(triple.factor, triple.terms, triple.shift),
             ({p: sym2_factor(h, p) for p in primes_up_to(700)}.__getitem__,
              700, sym2_ldata(h).shift)]
    rng = random.Random(5)
    for count in (1, 2, 3, 4, 8, 9, 30, 49, 250, 1000):
        factors = {}
        for p in primes_up_to(count):
            coeffs = [1] + [rng.randint(-9, 9)
                            for _ in range(rng.randint(0, 3))]
            factors[p] = scaled(coeffs, Fraction(1, 3)) \
                if rng.random() < 0.3 else coeffs
        cases.append((factors.__getitem__, count,
                      Fraction(rng.choice((0, 1, 3)), 2)))
    assert any(len(fac) == 1 for fac in factors.values())
    for factor, count, shift in cases:
        assert [x.hex() for x in dirichlet_coefficients(factor, count,
                                                        shift)[1:]] \
            == [x.hex() for x in stride_coefficients(factor, count,
                                                     shift)[1:]]


def test_tensor_degrees_and_values():
    rng = random.Random(1)
    for _ in range(20):
        a1, a2 = rng.randint(-3, 3), rng.randint(-3, 3)
        f1 = [1, a1, rng.randint(1, 9)]
        f2 = [1, a2, rng.randint(1, 9)]
        t = tensor(f1, f2)
        assert len(t) == 5
        # linear coefficient: -p1(f1) p1(f2) with p1 = -c1
        assert t[1] == -(f1[1] * f2[1])


def test_triple_factor_degree_8():
    recs = records()
    h = resolve_label(recs, "11a")
    t = triple_factor(h, h, h, 2)
    assert len(t) == 9
    assert triple_ldata(h, h, h).shift == Fraction(3, 2)
    # numeric oracle: multiply out the 8 linear factors at 60 digits
    with mpmath.workprec(240):
        a = mpmath.mpf(h.a(2))
        disc = mpmath.sqrt(a * a - 4 * 2)
        alpha = (a + disc) / 2
        beta = (a - disc) / 2
        roots = []
        for x in (alpha, beta):
            for y in (alpha, beta):
                for z in (alpha, beta):
                    roots.append(x * y * z)
        for k in (1, 2, 8):
            ek = mpmath.mpf(0)
            # elementary symmetric via poly expansion
        poly = [mpmath.mpc(1)]
        for r in roots:
            nxt = [mpmath.mpc(0)] * (len(poly) + 1)
            for i, c in enumerate(poly):
                nxt[i] += c
                nxt[i + 1] -= c * r
            poly = nxt
        for k, c in enumerate(t):
            assert abs(mpmath.mpf(c.numerator) / c.denominator
                       - mpmath.re(poly[k])) < mpmath.mpf(10) ** -40


def test_triple_factor_even_when_ap_zero():
    rec = NewformRecord("z", 33, 2, {2: 0, 5: 0}, {})
    t = triple_factor(rec, rec, rec, 2)
    for k, c in enumerate(t):
        if k % 2 == 1:
            assert c == 0


def test_triple_factor_bad_prime_rejected():
    recs = records()
    h = resolve_label(recs, "26a")
    with pytest.raises(LSeriesError):
        triple_factor(h, h, h, 13)


def test_triple_factor_steinberg():
    recs = records()
    h = resolve_label(recs, "26a")
    t = triple_factor_steinberg(h, h, h, 2)
    assert len(t) == 4
    c = h.a(2) ** 3
    # (1 - cX)(1 - 2cX)^2
    assert t[1] == -c - 2 * c - 2 * c


def test_self_duality_symmetry():
    # analytic coefficients satisfy c_{8-k} = c_k p^{12 - 3k} (self-duality)
    recs = records()
    h = resolve_label(recs, "11a")
    t = triple_factor(h, h, h, 3)
    p = 3
    for k in range(9):
        assert t[8 - k] * p ** (3 * k) == t[k] * p ** 12


def spin_split(h1, h2, p):
    """Oracle of from_power_sums: the degree-4 spin factor of the lift,
    whose reciprocal roots are the union of the two Satake pairs, is
    L_p(h1) * L_p(h2)."""
    f1 = good_factor(h1, p)
    f2 = good_factor(h2, p)
    ps = [a + b for a, b in zip(power_sums(f1, 4), power_sums(f2, 4))]
    return from_power_sums(ps, 4) == _mul(f1, f2)


def sym2_identities(h1, h2, p):
    """Oracle of sym2 and tensor: the factorizations of the symmetric
    square of the spin and of the standard factor,
    Sym^2(spin_4) = Sym^2(h1) * Sym^2(h2) * (h1 x h2)   (degrees 10 = 3+3+4)
    std_5 = zeta_p * (h1 x h2 scaled by p^{1-k})        (degrees 5 = 1+4)"""
    f1 = good_factor(h1, p)
    f2 = good_factor(h2, p)
    ps = [a + b for a, b in zip(power_sums(f1, 20), power_sums(f2, 20))]
    lhs = sym2(from_power_sums(ps, 4))
    rhs = _mul(_mul(sym2(f1), sym2(f2)), tensor(f1, f2))
    ok1 = lhs == rhs and len(lhs) == 11
    # degree-5 standard: 1 union (tensor roots scaled by p^{1-k})
    scale = Fraction(1, p ** (h1.weight - 1))
    std5 = _mul([1, -1], scaled(tensor(f1, f2), scale))
    ok2 = len(std5) == 6 and std5[1] == -1 - h1.a(p) * h2.a(p) * scale
    return ok1 and ok2


def test_spin_and_sym2_identities_random():
    rng = random.Random(2)
    for _ in range(100):
        p = rng.choice([3, 5, 7])
        k = 2
        r1 = NewformRecord("r1", 1, k, {p: rng.randint(-3, 3)}, {})
        r2 = NewformRecord("r2", 1, k, {p: rng.randint(-3, 3)}, {})
        assert spin_split(r1, r2, p)
        assert sym2_identities(r1, r2, p)


def test_spin_and_sym2_identities_ingested():
    recs = records()
    pairs = [("11a", "11a"), ("26a", "26b"), ("14a", "15a")]
    for la, lb in pairs:
        h1 = resolve_label(recs, la)
        h2 = resolve_label(recs, lb)
        for p in (3, 23):
            if h1.level % p and h2.level % p:
                assert spin_split(h1, h2, p)
                assert sym2_identities(h1, h2, p)


def test_dirichlet_coefficients_multiplicative():
    recs = records()
    h = resolve_label(recs, "11a")
    factors = {p: good_factor(h, p) for p in (2, 3, 5, 7)}
    factors[11] = [1, -h.a(11)]
    b = dirichlet_coefficients(factors.__getitem__, 12, Fraction(1, 2))
    # b_n = a_n / sqrt(n)
    eta = {1: 1, 2: -2, 3: -1, 4: 2, 5: 1, 6: 2, 7: -2, 8: 0, 9: -2,
           10: -2, 11: 1, 12: -2}
    for n in (2, 3, 4, 6, 9, 12):
        assert abs(float(b[n]) - eta[n] / math.sqrt(n)) < 1e-12


def test_log_gamma_matches_mpmath():
    # the box holds every argument at which central_value takes log Gamma
    # here and in the CLI (kernel widths up to 10)
    with mpmath.workprec(100):
        for x in (0.4, 0.75, 1.2, 2.0, 2.9, 3.5):
            for y in (0.0, 0.3, 1.7, 4.0, 7.25, 9.9, 11.9):
                z = complex(x, y)
                want = mpmath.gamma(mpmath.mpc(x, y))
                got = cmath.exp(_log_gamma(z))
                assert abs(got - complex(want)) <= 1e-13 * abs(want)


# L(1, chi_-4) = pi / 4 (Leibniz) and L(2, chi_-4) = Catalan's constant G
CHI_MINUS_4_AT = {1: math.pi / 4, 2: 0.915965594177219015}


def chi_minus_4(s0):
    """L(s, chi_-4) at s0 from 100 terms: entire, conductor 4,
    Gamma_R(s + 1), root number +1 and shift 0, with the factor
    1 - chi_-4(p) X at every prime."""
    factors = {p: [1, {1: -1, 2: 0, 3: 1}[p % 4]] for p in primes_up_to(100)}
    return LData(factors.__getitem__, 0, [Fraction(1)], 4, +1, Fraction(s0),
                 100)


@pytest.mark.parametrize("s0", [1, 2])
def test_central_value_of_chi_minus_4(s0):
    # at and off the edge of absolute convergence, the same engine
    # evaluates Leibniz's series and Catalan's constant
    cv = central_value(chi_minus_4(s0), kernel_width=6)
    assert abs(cv.value - CHI_MINUS_4_AT[s0]) < 1e-10


def test_wide_kernel_doubles_the_chebyshev_sampling():
    # at width 30 the weight needs a degree above 3/4 of the first 64
    # Chebyshev samples, so they are doubled
    cv = central_value(chi_minus_4(2), kernel_width=30)
    assert max(cv.details["degree"].values()) > 48
    assert cv.error < 1e-13
    assert abs(cv.value - CHI_MINUS_4_AT[2]) < 1e-13


def test_central_value_sign_minus_one_vanishes():
    recs = records()
    h = resolve_label(recs, "11a")
    factors = {}
    for p in (2, 3, 5, 7, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
              67, 71, 73, 79, 83, 89, 97):
        factors[p] = good_factor(h, p)
    factors[11] = [1, -h.a(11)]
    cv = central_value(LData(factors.__getitem__, Fraction(1, 2),
                             [Fraction(1, 2), Fraction(3, 2)], 11, -1,
                             Fraction(1, 2), _afe_terms(11)))
    assert abs(cv.value) < 1e-10


def test_central_value_level_11_matches_direct_sum():
    # independent oracle: L(E11, 1) = 2 sum a_n exp(-2 pi n / sqrt(11)) / n
    recs = records()
    h = resolve_label(recs, "11a")
    # full multiplicative a_n from the Euler product (arithmetic), n <= 600
    factors = {}
    for p in (2, 3, 5, 7, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
              67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131,
              137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197,
              199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271,
              277, 281, 283, 293, 307, 311, 313, 317, 331, 337, 347, 349, 353,
              359, 367, 373, 379, 383, 389, 397, 401, 409, 419, 421, 431, 433,
              439, 443, 449, 457, 461, 463, 467, 479, 487, 491, 499, 503, 509,
              521, 523, 541, 547, 557, 563, 569, 571, 577, 587, 593, 599):
        factors[p] = good_factor(h, p)
    factors[11] = [1, -h.a(11)]
    cv = central_value(LData(factors.__getitem__, Fraction(1, 2),
                             [Fraction(1, 2), Fraction(3, 2)], 11, +1,
                             Fraction(1, 2), 600))
    # direct smoothed sum with a different kernel
    b = dirichlet_coefficients(factors.__getitem__, 600, Fraction(1, 2))
    direct = 2 * sum(float(b[n]) * math.sqrt(n) / n
                     * math.exp(-2 * math.pi * n / math.sqrt(11))
                     for n in range(1, 601))
    assert cv.error < 1e-6
    assert abs(cv.value - direct) < 1e-6
    assert abs(cv.value - 0.2538418608559107) < 1e-6  # known L(E11, 1)


def test_central_value_kernel_independent():
    # (series, kernel widths): L(s, chi_-4) at s0 = 2, the Sym^2 proxies of
    # 11a, 26a and 26b and the triples 11a^3 and (26b; 26a, 26a), which a
    # wrong gamma factor or conductor makes depend on the kernel width
    recs = records()
    h11, h26a, h26b = (resolve_label(recs, label)
                       for label in ("11a", "26a", "26b"))
    cases = [(chi_minus_4(2), (6, 10))]
    cases += [(sym2_ldata(h), (4, 8)) for h in (h11, h26a, h26b)]
    cases += [(triple_ldata(h11, h11, h11), (4, 8)),
              (triple_ldata(h26b, h26a, h26a), (4, 8))]
    for ldata, widths in cases:
        cv1, cv2 = (central_value(ldata, kernel_width=w) for w in widths)
        assert abs(cv1.value - cv2.value) < cv1.error + cv2.error + 1e-10


def test_insufficient_coefficients_error():
    # a record that lacks a_3: the triple and the Sym^2 series both raise
    # the LSeriesError of NewformRecord.a that names it
    h = NewformRecord("h", 11, 2, {2: -2, 5: 1, 7: -2, 11: 1}, {11: -1})
    for ldata in (triple_ldata(h, h, h, 10), sym2_ldata(h, 10)):
        with pytest.raises(LSeriesError,
                           match="^h: no a_3 in the data file$"):
            dirichlet_coefficients(ldata.factor, ldata.terms, ldata.shift)


def test_petersson_proxy_positive():
    recs = records()
    h = resolve_label(recs, "11a")
    cv = petersson_norm_proxy(h, terms=400)
    assert cv.value > 0
    assert cv.error < abs(cv.value) * 0.01


def two_sided_central_value(ldata, bits):
    """Oracle for central_value at kernel width 4: the grid over every node
    t_k, k = -K..K, one Gamma_R call per shift, and both sums computed even
    at s0 = 1/2."""
    factor, shift, gamma_shifts, conductor, sign, s0, terms = ldata
    with mpmath.workprec(bits):
        q = mpmath.mpf(conductor)
        mus = [mpmath.mpf(m.numerator) / m.denominator for m in gamma_shifts]
        s0 = mpmath.mpf(s0.numerator) / s0.denominator
        c = max(mpmath.mpf("1.75"),
                abs(s0 - mpmath.mpf("0.5")) + mpmath.mpf("1.3"))
        aa = mpmath.mpf(4)

        def lam_gamma(s):
            out = mpmath.power(q, s / 2)
            for mu in mus:
                x = s + mu
                out *= mpmath.power(mpmath.pi, -x / 2) * mpmath.gamma(x / 2)
            return out

        b = [0.0 if x is None else float(x)
             for x in dirichlet_coefficients(factor, terms, shift)]
        tol = mpmath.mpf(2) ** (-max(40, bits // 2))

        def grid(s):
            """Step h and the integrand at t_k = k h, k = -260..260."""
            tmax = mpmath.sqrt(aa * (mpmath.log(1 / tol) + c * c / aa + 10))
            h = tmax / 260
            gs = []
            for k in range(-260, 261):
                w = mpmath.mpc(c, k * h)
                gs.append(complex(lam_gamma(s + w) * mpmath.exp(w * w / aa)
                                  / w))
            return float(h), gs

        def smoothed_sum(s, h, gs):
            """The sum at step h over the values gs at t_k, k = -K..K, and
            its final 35% block."""
            nodes = len(gs) // 2
            total = 0.0
            checkpoint = max(1, int(terms * 0.65))
            at_checkpoint = 0.0
            for n in range(1, terms + 1):
                if n == checkpoint:
                    at_checkpoint = total
                if b[n] == 0.0:
                    continue
                rot = complex(math.cos(h * math.log(n)),
                              -math.sin(h * math.log(n)))
                z = rot ** (-nodes)
                acc = 0j
                for g in gs:
                    acc += g * z
                    z *= rot
                total += b[n] * n ** (-float(s) - float(c)) * acc.real
            total *= h / (2 * math.pi)
            at_checkpoint *= h / (2 * math.pi)
            return mpmath.mpf(total), abs(total - at_checkpoint)

        # the coarse sum takes the even nodes of the same grid, step 2h
        sums = []
        for s in (s0, 1 - s0):
            h, gs = grid(s)
            sums.append((smoothed_sum(s, 2 * h, gs[::2]),
                         smoothed_sum(s, h, gs)))
        ((val1, blk1), (val1b, _)), ((val2, blk2), (val2b, _)) = sums
        err = abs(val1 - val1b) + abs(val2 - val2b) + 2 * (blk1 + blk2)
        lam = val1b + sign * val2b
        gam = lam_gamma(s0)
        return float(lam / gam), float(err / abs(gam)), float(lam)


def afe_oracle_cases():
    """The triple 11a x 11a x 11a, the 11a Sym^2 proxy (s0 = 1, so the sums
    at s0 and 1 - s0 differ) and L(s, chi_-4) at s0 = 2."""
    h = resolve_label(records(), "11a")
    return {"triple": triple_ldata(h, h, h, 150), "sym2": sym2_ldata(h, 83),
            "chi4": chi_minus_4(2)}


@pytest.mark.parametrize("case", ["triple", "sym2", "chi4"])
def test_lambda_error_is_the_error_times_the_gamma_factor(case):
    ldata = afe_oracle_cases()[case]
    cv = central_value(ldata)
    d = cv.details
    assert cv.lam_error == d["quad_err"] + d["tail"] + d["interp"]
    assert d["interp"] > 0
    s0 = ldata.s0
    gamma = ldata.conductor ** (s0 / 2) * math.prod(
        math.pi ** (-(s0 + mu) / 2) * math.gamma((s0 + mu) / 2)
        for mu in ldata.gamma_shifts)
    assert cv.lam_error == pytest.approx(cv.error * abs(gamma), rel=1e-12)
    # one kept Chebyshev degree per line s0, 1 - s0
    assert d["degree"].keys() == {s0, 1 - s0}
    assert all(8 < deg < 64 for deg in d["degree"].values())


@pytest.mark.parametrize("case", ["triple", "sym2", "chi4"])
def test_central_value_matches_two_sided_oracle(case):
    ldata = afe_oracle_cases()[case]
    cv = central_value(ldata)
    value, error, lam = two_sided_central_value(ldata, 100)
    assert cv.value == pytest.approx(value, rel=1e-12)
    assert cv.lam == pytest.approx(lam, rel=1e-12)
    assert cv.error == pytest.approx(error, rel=1e-6)


def half_line_grid(gamma_shifts, conductor):
    """At s0 = 1/2 with kernel width 4 on the line Re w = 1.75: the function
    w -> log of the completed gamma factor at 1/2 + w, one log Gamma per
    shift, the step h and the integrand at t_k = k h, k = 0..260."""
    c, aa = 1.75, 4.0
    shifts = [float(mu) for mu in gamma_shifts]

    def log_lam_gamma(w):
        x = 0.5 + w
        return x / 2 * math.log(conductor) + sum(
            -(x + mu) / 2 * math.log(math.pi) + _log_gamma((x + mu) / 2)
            for mu in shifts)

    tmax = math.sqrt(aa * (50 * math.log(2) + c * c / aa + 10))
    h = tmax / 260
    grid = [cmath.exp(log_lam_gamma(w) + w * w / aa - cmath.log(w))
            for w in (complex(c, k * h) for k in range(261))]
    return log_lam_gamma, h, grid


def horner_central_value(ldata):
    """Oracle for central_value at s0 = 1/2 with kernel width 4, in double
    precision: the weight summed afresh for every coefficient by Horner's
    rule, one pass over the series per step, one log Gamma per shift.
    Returns (L(1/2), Lambda(1/2), quadrature plus tail error of Lambda)."""
    factor, shift, gamma_shifts, conductor, sign, _, terms = ldata
    c = 1.75
    log_lam_gamma, h, grid = half_line_grid(gamma_shifts, conductor)
    b = dirichlet_coefficients(factor, terms, shift)

    def smoothed_sum(step, gs):
        """The sum at that step over the values gs at t_k, k >= 0, and its
        final 35% block."""
        g0 = gs[0].real
        upper = gs[:0:-1]          # g_K .. g_1, for Horner's rule
        total = at_checkpoint = 0.0
        checkpoint = max(1, int(terms * 0.65))
        for n in range(1, terms + 1):
            if n == checkpoint:
                at_checkpoint = total
            if b[n] == 0.0:
                continue
            # sum_{k >= 1} g_k z^k with z = n^{-i step}
            z = complex(math.cos(step * math.log(n)),
                        -math.sin(step * math.log(n)))
            acc = 0j
            for g in upper:
                acc = (acc + g) * z
            total += b[n] * n ** (-0.5 - c) * (g0 + 2 * acc.real)
        return (total * step / (2 * math.pi),
                abs(total - at_checkpoint) * step / (2 * math.pi))

    # the coarse sum takes the even nodes of the same grid, step 2h
    val, blk = smoothed_sum(2 * h, grid[::2])
    val_b, _ = smoothed_sum(h, grid)
    # the sums at s0 and 1 - s0 coincide
    lam = (1 + sign) * val_b
    gam = cmath.exp(log_lam_gamma(0j)).real
    return lam / gam, lam, 2 * abs(val - val_b) + 4 * blk


def single_expansion_central_value(ldata):
    """Oracle for the blocks of central_value at s0 = 1/2 with kernel width
    4: the same weight, expanded once in Chebyshev polynomials of
    x = 2 log n / log(terms) - 1 up to the same degree D, and one pass of
    moments to degree D over the whole series at x_n.  Returns
    Lambda(1/2)."""
    factor, shift, gamma_shifts, conductor, sign, _, terms = ldata
    _, h, grid = half_line_grid(gamma_shifts, conductor)
    b = dirichlet_coefficients(factor, terms, shift)
    span = math.log(max(terms, 2))
    nodes = lseries._CHEB_NODES
    while True:
        xs, rows = lseries._chebyshev_nodes(nodes)
        points = [span * (x + 1) / 2 for x in xs]
        coarse, fine = (lseries._chebyshev_transform(values, rows)
                        for values in lseries._weight_samples(h, grid, points))
        degree = max(lseries._kept_degree(cf, lseries._CHEB_TOL
                                          * max(map(abs, cf)))
                     for cf in (coarse, fine))
        if 4 * degree <= 3 * nodes or nodes >= lseries._CHEB_MAX_NODES:
            break
        nodes *= 2
    moments = [0.0] * degree
    for n in range(1, terms + 1):
        if b[n] == 0.0:
            continue
        x = 2 * math.log(n) / span - 1
        t0 = b[n] * n ** (-0.5 - 1.75)
        t1 = t0 * x
        moments[0] += t0
        for j in range(1, degree):
            moments[j] += t1
            t0, t1 = t1, 2 * x * t1 - t0
    # the sums at s0 and 1 - s0 coincide
    return (1 + sign) * h / (2 * math.pi) * sum(
        map(operator.mul, fine, moments))


def test_central_value_matches_horner_oracle_at_full_length():
    recs = records()
    h, f = resolve_label(recs, "26b"), resolve_label(recs, "26a")
    ldata = triple_ldata(h, f, f)
    assert (ldata.conductor, ldata.sign, ldata.terms) == (26 ** 5, +1, 10390)
    cv = central_value(ldata)
    value, lam, error = horner_central_value(ldata)
    assert cv.value == pytest.approx(value, rel=1e-12)
    assert cv.lam == pytest.approx(lam, rel=1e-12)
    assert cv.details["interp"] <= 1e-2 * cv.lam_error
    # quadrature and tail agree up to rounding of Lambda
    assert abs(cv.lam_error - cv.details["interp"] - error) <= 1e-12 * lam


def test_blocks_match_the_single_expansion_on_a_long_series():
    # a synthetic series shaped like a triple product of conductor 10^8,
    # 30,050 terms long: each block adds to Lambda far more than 1e-12 of it
    def factor(p):
        r = math.isqrt(4 * p)
        a = (p * 2654435761) % (2 * r + 1) - r
        return [1, -(a or 1) ** 3]

    h = resolve_label(records(), "11a")
    ldata = triple_ldata(h, h, h)._replace(
        factor=factor, conductor=10**8, sign=+1, terms=_afe_terms(10**8))
    assert ldata.terms >= 30_000
    cv = central_value(ldata)
    lam = single_expansion_central_value(ldata)
    assert abs(cv.lam - lam) <= cv.details["interp"]
    assert cv.lam == pytest.approx(lam, rel=1e-12)


def test_blocks_cut_the_moment_work_of_the_level_26_triple():
    # each term costs the moment pass one step per degree of its block's
    # weight: at 10,390 terms the blocks keep degree 10 to 12 where the
    # whole series needs D = 36
    recs = records()
    h, f = resolve_label(recs, "26b"), resolve_label(recs, "26a")
    cv = triple_central_value(h, f, f)
    half = Fraction(1, 2)
    assert cv.terms == 10390
    assert cv.details["moment_work"].keys() == {half}
    assert cv.details["moment_work"][half] < \
        0.4 * cv.terms * cv.details["degree"][half]


def test_central_value_evaluates_the_integrand_on_one_grid(monkeypatch):
    # two log Gamma per node of the 261-node grid (the third argument of
    # each group is two above the first) and two for the gamma factor at
    # s0; a second grid would add its own nodes.  The series length is
    # resolved once, by the caller.
    calls = Counter()
    for name in ("_log_gamma", "_afe_terms"):
        def counting(*args, original=getattr(lseries, name), name=name):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(lseries, name, counting)
    recs = records()
    h, f = resolve_label(recs, "26b"), resolve_label(recs, "26a")
    triple_central_value(h, f, f)
    assert calls == {"_log_gamma": 524, "_afe_terms": 1}
    calls.clear()
    petersson_norm_proxy(f)
    assert calls == {"_log_gamma": 524, "_afe_terms": 1}


def test_truncated_triple_factors_give_the_same_series():
    recs = records()
    h, f = resolve_label(recs, "26a"), resolve_label(recs, "26b")
    count = 2000
    ldata = triple_ldata(h, f, f, count)
    truncated, shift = ldata.factor, ldata.shift
    full = functools.partial(triple_factor_at, h, f, f)
    assert sum(len(truncated(p)) == 9 for p in primes_up_to(count)) == \
        len(primes_up_to(math.isqrt(count))) - 2
    assert dirichlet_coefficients(truncated, count, shift) == \
        dirichlet_coefficients(full, count, shift)


def test_the_series_calls_its_factor_once_per_prime_in_order():
    calls = []
    chi = chi_minus_4(2)

    def factor(p):
        calls.append(p)
        return chi.factor(p)

    for count in (0, 1, 2, 3, 4, 49, 100):
        calls.clear()
        dirichlet_coefficients(factor, count, 0)
        assert calls == primes_up_to(count)
    calls.clear()
    central_value(chi._replace(factor=factor))
    assert calls == primes_up_to(100)


def test_triple_factors_build_a_new_factor_on_each_call():
    recs = records()
    h, f = resolve_label(recs, "26a"), resolve_label(recs, "26b")
    factor = triple_ldata(h, f, f, 100).factor
    # nothing is kept between calls
    assert factor(3) is not factor(3)
    for p in primes_up_to(100):
        fac = factor(p)
        if p <= 10 or 26 % p == 0:
            # the whole factor: degree 8 at a good prime, the Steinberg
            # factor at 2 and 13
            assert fac == triple_factor_at(h, f, f, p)
            assert len(fac) == (4 if 26 % p == 0 else 9)
        else:
            # above sqrt(100) the series reads only the linear term
            assert fac == [1, -h.a(p) * f.a(p) ** 2]


def test_sym2_series_reads_a_map_as_a_dict():
    recs = records()
    h = resolve_label(recs, "26a")
    full = {p: sym2_factor(h, p) for p in primes_up_to(200)}
    cv = petersson_norm_proxy(h, terms=200)
    want = central_value(sym2_ldata(h, 200)._replace(factor=full.__getitem__))
    assert (cv.value, cv.error) == (want.value, want.error)


def test_central_value_holds_one_factor_at_a_time():
    # the level-26 triple reads 10,390 coefficients: with the factors built
    # on demand and b_n in a double array, the traced peak stays well below
    # what 1,250 factors next to a list of float objects take (744 KB)
    recs = records()
    h, f = resolve_label(recs, "26b"), resolve_label(recs, "26a")
    triple_central_value(h, f, f)
    tracemalloc.start()
    try:
        triple_central_value(h, f, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 450_000


def steinberg_triple(level):
    """The triple data of a weight-2 record of that squarefree level with
    a_p = 1 at each p | level, which fixes its conductor and length."""
    r = NewformRecord("x", level, 2, dict.fromkeys(_prime_factors(level), 1),
                      {})
    return triple_ldata(r, r, r)


@pytest.mark.parametrize("level", [11, 14, 15, 26, 37, 38])
def test_triple_series_length_is_the_afe_default(level):
    ldata = steinberg_triple(level)
    assert ldata.conductor == level ** 5
    assert ldata.terms == int(3 * math.sqrt(level ** 5)) + 50


def test_afe_length_is_not_capped():
    # from level 86 on the default triple series is longer than 200,000
    # terms; it is streamed, so its length is not cut to a cap
    assert steinberg_triple(86).terms == int(3 * math.sqrt(86 ** 5)) + 50 \
        > 200_000
