"""Newform data, exact Euler factor algebra, numerical central values.

Factor algebra is exact and runs in Python ints: every arithmetically
normalized factor has integer coefficients, and the divisions in Newton's
identities are exact in Z for integral reciprocal roots, so a Fraction
appears only where a caller scales roots by a non-integer.  Reciprocal-root
power sums make tensor products and symmetric squares one-liners.  Floating
point enters only in the smoothed approximate-functional-equation evaluator,
which works in double precision and reports an error estimate.  Doubles
suffice: the sums take every grid value and every Dirichlet coefficient as a
double anyway, and the reported errors, set by the grid step and the
series length, are 1e-8 or more, far above the rounding of the grid.

The evaluator (Dokchitser, Exp. Math. 13, 2004) writes each smoothed sum
as sum_n b_n n^{-s-c} V(log n): the weight V, the inverse Mellin transform
of the gamma factor times a Gaussian kernel on a quadrature grid, is one
smooth function of u = log n.  So V is expanded once in Chebyshev
polynomials of u on [0, log terms], and that expansion is re-expanded on
each dyadic block of n and on the final 35% of the series, where a far
lower degree suffices.  Each block is summed once into Chebyshev moments
sum_n b_n n^{-s-c} T_j(y_n) in its own variable y, and each smoothed sum
is then a short dot product per block.  The integrand is evaluated on one
trapezoid grid, and the quadrature check reads the same values at its even
nodes, so one pass over the series serves both sums and the tail check.
The reported error has three parts: quadrature (the grid against its even
nodes), tail (the final block of the series) and interpolation (the
Chebyshev coefficients dropped from the expansion and from each block's,
each times the sum of |b_n n^{-s-c}| over the terms it weights).  All
three are estimates, not bounds: the interpolation part, for one, does not
see what sampling at too few points folds into the kept coefficients.

The evaluator also does only the work that four exact facts leave over:
the integrand is conjugate-symmetric on its line, so the grid is one-sided;
at s = 1/2 the sums at s and 1 - s coincide, so one is computed; equal
Gamma_R shifts are grouped, one log Gamma per distinct argument, shared by
both sums; and the series reads the factor at p only up to
X^floor(log_p terms), so for p^2 > terms the triple factor is its linear
term alone.  The Dirichlet coefficients are identical with or without the
last fact, and the others change only rounding.

A local factor is the list of its coefficients [1, c_1, ..., c_d] as a
polynomial in X = p^{-s}, low to high, as _factor stores its polynomials,
and a product of factors is _factor._mul.  An L-series' local data is one
function factor(p) -> that list, which dirichlet_coefficients calls once
per prime, in increasing order.  The triple and Sym^2 factors are built on
each call and kept nowhere, and the b_n live in one array('d'): one factor
is alive at a time, next to count + 1 doubles, however long the series.

Normalization bookkeeping: factors are stored in the arithmetic
normalization (coefficients in Z[a_p]).  Each series has one shift, the
same at every prime, that moves its functional-equation center to
s = 1/2: triple_shift and sym2_shift give it, and dirichlet_coefficients
and central_value take it next to the factor function.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from collections import Counter, namedtuple
from fractions import Fraction

from ._factor import _mul
from .quatalg import _prime_factors, prime_sieve


class LSeriesError(ValueError):
    pass


# ---------------------------------------------------------------------------
# newform records
# ---------------------------------------------------------------------------

class NewformRecord(namedtuple("NewformRecord",
                               "label level weight ap al_signs")):
    """A newform's eigen-data: ap maps each prime to the integer a_p and
    al_signs each prime dividing the level to its sign +-1."""
    __slots__ = ()

    def a(self, p):
        if p not in self.ap:
            raise LSeriesError(f"{self.label}: no a_{p} in the data file")
        return self.ap[p]


def _numbered_lines(path):
    """Numbered lines of a UTF-8 text file, or an LSeriesError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield from enumerate(fh, start=1)
    except OSError as exc:
        raise LSeriesError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise LSeriesError(f"cannot read {path}: not UTF-8 text") from None


def ingest(path, labels=None):
    """Parse a newform eigen-data file.

    Format (one record per line):
    label|N|k|eps_p list as p:+-1 comma-separated|a_p list as p:value
    Rejects malformed rows, Ramanujan violations and, at weight 2, an a_p
    at p || N other than -eps_p, naming the row.  With labels given, only
    the rows whose label is among them are parsed and checked; every row's
    label is still read, so a label the file repeats comes back once per
    row.
    """
    records, sieve = [], bytearray()
    for lineno, raw in _numbered_lines(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if labels is not None and line.split("|", 1)[0] not in labels:
            continue
        parts = line.split("|")
        if len(parts) != 5:
            raise LSeriesError(f"row {lineno}: expected 5 fields")
        label, level_s, weight_s, eps_s, ap_s = parts
        try:
            level = int(level_s)
            weight = int(weight_s)
            eps, ap = ({int(p): int(v) for p, v in
                        (c.split(":") for c in filter(None, s.split(",")))}
                       for s in (eps_s, ap_s))
        except ValueError:
            raise LSeriesError(f"row {lineno}: malformed row") from None
        for p, v in eps.items():
            if v not in (1, -1) or level % p:
                raise LSeriesError(f"row {lineno}: bad sign data at {p}")
            if weight == 2 and level % (p * p) and ap.get(p, -v) != -v:
                raise LSeriesError(f"row {lineno}: a_{p} is not -eps_{p}")
        if ap and max(ap) >= len(sieve):
            sieve = prime_sieve(max(ap))
        for p, a in ap.items():
            if p < 2 or not sieve[p]:
                raise LSeriesError(f"row {lineno}: {p} is not prime")
            if a * a > 4 * p ** (weight - 1):
                raise LSeriesError(
                    f"row {lineno}: Ramanujan violation |a_{p}|={abs(a)}")
        records.append(NewformRecord(label, level, weight, ap, eps))
    return records


def resolve_label(records, label):
    hits = [r for r in records if r.label == label]
    if len(hits) != 1:
        raise LSeriesError(f"label {label}: {len(hits)} matches in the file")
    return hits[0]


# ---------------------------------------------------------------------------
# Euler factors
# ---------------------------------------------------------------------------

def _divide(a, k):
    """a / k exactly: an int when k divides a, else a Fraction."""
    q, r = divmod(a, k)
    return Fraction(a) / k if r else q


def power_sums(f, count):
    """Power sums p_1..p_count of the reciprocal roots of f by Newton's
    identities, p_k = -(k c_k + sum_{0 < i < k} c_i p_{k-i})."""
    d = len(f) - 1
    ps = [0]
    for k in range(1, count + 1):
        ps.append(-(k * f[k] if k <= d else 0) - sum(
            f[i] * ps[k - i] for i in range(1, min(k, d + 1))))
    return ps[1:]


def from_power_sums(ps, degree):
    """The factor whose reciprocal roots have power sums ps[0], ps[1], ...:
    c_k = -(sum_{0 < i <= k} c_{k-i} p_i) / k.  The division is exact in Z
    when the roots are algebraic integers."""
    c = [1]
    for k in range(1, degree + 1):
        acc = sum(c[k - i] * ps[i - 1] for i in range(1, k + 1))
        c.append(_divide(-acc, k))
    return c


def tensor(f, g):
    """Factor with reciprocal roots r_i * s_j (Rankin-Selberg tensor)."""
    d = (len(f) - 1) * (len(g) - 1)
    return from_power_sums(
        list(map(operator.mul, power_sums(f, d), power_sums(g, d))), d)


def sym2(f):
    """Symmetric square: roots r_i r_j for i <= j, whose k-th power sum
    (p_k^2 + p_2k) / 2 is an integer for integral roots."""
    d = len(f) * (len(f) - 1) // 2
    ps = power_sums(f, 2 * d)
    return from_power_sums(
        [_divide(ps[k] ** 2 + ps[2 * k + 1], 2) for k in range(d)], d)


def local_coefficients(f, count):
    """Dirichlet coefficients of 1/f at p^0..p^count (arithmetic)."""
    inv = [1]
    for m in range(1, count + 1):
        inv.append(-sum(f[k] * inv[m - k]
                        for k in range(1, min(m, len(f) - 1) + 1)))
    return inv


# ---------------------------------------------------------------------------
# the paper's factor combinations
# ---------------------------------------------------------------------------

def good_factor(record, p):
    """Degree-2 arithmetic factor 1 - a_p X + p^{k-1} X^2 of a newform at a
    good prime."""
    if record.level % p == 0:
        raise LSeriesError(f"{p} divides the level; not a good prime")
    return [1, -record.a(p), p ** (record.weight - 1)]


def triple_factor(h, f1, f2, p):
    """Degree-8 good-prime factor of the triple product L(h, f1, f2; s).

    Arithmetic coefficients in Z[a_p]; the analytic center s = 1/2 is reached
    with triple_shift(h, f1, f2).
    """
    for r in (h, f1, f2):
        if r.level % p == 0:
            raise LSeriesError(f"{p} divides a level; use the bad-prime table")
    return tensor(tensor(good_factor(h, p), good_factor(f1, p)),
                  good_factor(f2, p))


def triple_shift(h, f1, f2):
    """The shift (k1 + k2 + k3 - 3)/2 of every factor of L(h, f1, f2; s)."""
    return Fraction(h.weight + f1.weight + f2.weight - 3, 2)


def triple_factor_steinberg(h, f1, f2, p):
    """Bad-prime factor when all three forms are Steinberg at p (weight 2).

    Convention (documented, not from the paper): the Weil-Deligne tensor
    sp(2)^{x3} = sp(4) + sp(2) + sp(2) leaves three Frobenius lines, giving
    (1 - c X)(1 - c p X)^2 with c = a_p(h) a_p(f1) a_p(f2), and local
    conductor exponent 5.
    """
    for r in (h, f1, f2):
        if r.level % p or r.weight != 2:
            raise LSeriesError("Steinberg triple factor needs weight 2, p||N")
    c = h.a(p) * f1.a(p) * f2.a(p)
    two = [1, -c * p]
    return _mul(_mul([1, -c], two), two)


def triple_factor_at(h, f1, f2, p):
    """Euler factor of L(h, f1, f2; s) at p: Steinberg at p | N, else good."""
    if h.level % p == 0:
        return triple_factor_steinberg(h, f1, f2, p)
    return triple_factor(h, f1, f2, p)


def triple_factors(h, f1, f2, count):
    """The function p -> Euler factor of L(h, f1, f2; s) at p, as deep as a
    series of length count reads it; each call builds a new coefficient
    list.  The series' shift is triple_shift(h, f1, f2).

    dirichlet_coefficients(factor, count, shift) reads the factor at p up to
    X^floor(log_p count).  For a good p with p^2 > count that is the linear
    term -b_p, b_p = a_p(h) a_p(f1) a_p(f2), an int, so the degree-8 factor
    is built only for p <= sqrt(count) and at p | N, and the series is the
    same term for term; such a p then costs dirichlet_coefficients one
    stride over its multiples.  A prime missing from the data file raises
    the LSeriesError of NewformRecord.a when its factor is built.
    """
    deep = math.isqrt(count)

    def build(p):
        if p <= deep or any(r.level % p == 0 for r in (h, f1, f2)):
            return triple_factor_at(h, f1, f2, p)
        return [1, -h.a(p) * f1.a(p) * f2.a(p)]
    return build


def triple_conductor(n):
    """Conductor N^5 for an all-Steinberg squarefree-level weight-2 triple."""
    return n ** 5


def triple_gamma_shifts(weights):
    """Gamma_R shifts of the triple product of forms of these weights,
    analytic normalization: Gamma_C(s+1/2)^3 Gamma_C(s+3/2) at weight 2."""
    if any(k != 2 for k in weights):
        raise LSeriesError("documented defaults cover weight 2 only")
    return [Fraction(1, 2), Fraction(3, 2)] * 3 + [Fraction(3, 2), Fraction(5, 2)]


def sym2_factor(record, p):
    """Symmetric square local factor (degree 3 good, 1 bad)."""
    if record.level % p == 0:
        a = record.a(p)
        return [1, -a * a * p ** (record.weight - 2)]
    return sym2(good_factor(record, p))


def sym2_shift(record):
    """The shift k - 1 of every factor of the symmetric square."""
    return Fraction(record.weight - 1)


def sym2_conductor(record):
    return record.level ** 2


def sym2_gamma_shifts(weight):
    """Gamma_R shifts for Sym^2 of a weight-2 form: Gamma_R(s+1) Gamma_C(s+1),
    and Gamma_C(s+1) = Gamma_R(s+1) Gamma_R(s+2)."""
    if weight != 2:
        raise LSeriesError("documented defaults cover weight 2 only")
    return [Fraction(1), Fraction(1), Fraction(2)]


def spin_split_check(h1, h2, p):
    """Degree-4 spin factor of the lift equals L_p(h1) * L_p(h2).

    The spin parameters of the lift are defined as the union of the two
    Satake pairs, so this is an identity by construction; it guards the
    normalization-shift bookkeeping.
    """
    f1 = good_factor(h1, p)
    f2 = good_factor(h2, p)
    ps = [a + b for a, b in zip(power_sums(f1, 4), power_sums(f2, 4))]
    return from_power_sums(ps, 4) == _mul(f1, f2)


def sym2_identity_check(h1, h2, p):
    """Exact factorization identities of the symmetric square of the spin.

    Sym^2(spin_4) = Sym^2(h1) * Sym^2(h2) * (h1 x h2)   (degrees 10 = 3+3+4)
    std_5 = zeta_p * (h1 x h2 scaled by p^{1-k})        (degrees 5 = 1+4)
    """
    f1 = good_factor(h1, p)
    f2 = good_factor(h2, p)
    ps = [a + b for a, b in zip(power_sums(f1, 20), power_sums(f2, 20))]
    lhs = sym2(from_power_sums(ps, 4))
    rhs = _mul(_mul(sym2(f1), sym2(f2)), tensor(f1, f2))
    ok1 = lhs == rhs and len(lhs) == 11
    # degree-5 standard: 1 union (tensor roots scaled by p^{1-k})
    scale = Fraction(1, p ** (h1.weight - 1))
    tens = [c * scale ** k for k, c in enumerate(tensor(f1, f2))]
    std5 = _mul([1, -1], tens)
    ok2 = len(std5) == 6 and std5[1] == -1 - h1.a(p) * h2.a(p) * scale
    return ok1 and ok2


# ---------------------------------------------------------------------------
# Dirichlet coefficients and the smoothed AFE evaluator
# ---------------------------------------------------------------------------

def dirichlet_coefficients(factor, count, shift):
    """Analytic-normalization coefficients b_1..b_count as an array('d') b
    of count + 1 doubles, b[n] = b_n and b[0] = 0.0.

    factor: a function p -> arithmetic local factor [1, c_1, ..., c_d],
    such as the one of triple_factors.  It is called once for each prime
    p <= count, in increasing order, when p's stride is written, and its
    factor is read only up to X^floor(log_p count).  shift: the series'
    one shift, so the analytic local value at p^v is c p^(-v shift) for
    the arithmetic coefficient c of 1/f at p^v.

    b_n is 1.0 times the local value at p^v || n for each p | n, multiplied
    in increasing order of p.  For each p the local values of its multiples
    are laid out with one stride per power p^v <= count, each over the one
    before, and multiplied into b in one more stride.  A prime with
    p^2 > count has only v = 1, whose value -c_1 p^(-shift) is read off its
    factor directly and multiplied into each multiple in place.  Nothing is
    divided out, so a zero local value is harmless.
    """
    # loaded here: the extension module adds about 0.14 MB to the peak RSS
    # of every CLI process that imports it, and only the series needs it
    from array import array
    b = array("d", [1.0]) * (count + 1)
    b[0] = 0.0
    s = float(shift)
    for p in itertools.compress(range(count + 1), prime_sieve(count)):
        f = factor(p)
        if p * p > count:
            val = float(-f[1] if len(f) > 1 else 0) * p ** -s
            for n in range(p, count + 1, p):
                b[n] *= val
            continue
        local = local_coefficients(f, int(math.log(count, p)) + 1)
        loc = [float(c) * p ** (-v * s) for v, c in enumerate(local)]
        # at[j] is the local value at (j + 1) p; p^v | (j + 1) p exactly
        # when j + 1 is a multiple of q = p^{v-1}
        at = array("d", loc[1:2]) * (count // p)
        q, v = p, 2
        while q * p <= count:
            at[q - 1::q] = array("d", loc[v:v + 1]) * (count // (q * p))
            q *= p
            v += 1
        b[p::p] = array("d", map(operator.mul, b[p::p], at))
    return b


class CentralValue(namedtuple("CentralValue",
                              "value error lam lam_error terms details")):
    """L(s0) with its error; lam is the completed Lambda(s0) and lam_error
    its error, so error is lam_error / |gamma(s0)|."""
    __slots__ = ()


# Stirling's series for log Gamma: B_2k / (2k (2k - 1)) for k = 1..7
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188,
             -691 / 360360, 1 / 156)


def _log_gamma(z):
    """log Gamma(z) for Re z > 0, up to a multiple of 2 pi i.

    The recurrence Gamma(z) = Gamma(z + n) / (z (z + 1) ... (z + n - 1))
    moves z to |z| >= 12, where the first omitted Stirling term is below
    1e-17.
    """
    prod = 1
    while abs(z) < 12:
        prod *= z
        z += 1
    inv = 1 / z
    series = 0
    for coeff in reversed(_STIRLING):
        series = series * inv * inv + coeff
    return (z - 0.5) * cmath.log(z) - z + 0.5 * math.log(2 * math.pi) \
        + series * inv - cmath.log(prod)


# end of the grid: |exp(w^2 / a)| = _GRID_TOL e^{-10} at t = tmax
_GRID_TOL = 2.0 ** -50
# Chebyshev coefficients of a weight below _CHEB_TOL times the largest are
# dropped: that is a few times the rounding floor of the sampled weight
# (about 1e-15 of the largest coefficient), so what is dropped is of the
# size of rounding.  The first sample count is _CHEB_NODES, doubled up to
# _CHEB_MAX_NODES until the kept degree is at most 3/4 of it.
_CHEB_TOL = 2.0 ** -46
_CHEB_NODES = 64
_CHEB_MAX_NODES = 512
# A block of the series gets its own expansion of the weight, from
# _BLOCK_NODES samples on, once it holds _BLOCK_MIN_TERMS terms: 4 per
# sample, so that the re-expansion costs less than the degree it saves.
_BLOCK_NODES = 16
_BLOCK_MIN_TERMS = 4 * _BLOCK_NODES


def _chebyshev_nodes(nodes):
    """The Chebyshev points of the first kind cos(pi (2i + 1) / (2 nodes))
    for i < nodes, and the rows cos(pi j (2i + 1) / (2 nodes)), j < nodes,
    of the transform.  cos(pi m / (2 nodes)) is tabulated for m < 4 nodes,
    so every entry is read off with its argument reduced exactly."""
    table = [math.cos(math.pi * m / (2 * nodes)) for m in range(4 * nodes)]
    rows = [[table[j * (2 * i + 1) % (4 * nodes)] for i in range(nodes)]
            for j in range(nodes)]
    return table[1:2 * nodes:2], rows


def _weight_samples(h, g, points):
    """The lists (coarse, fine) of the weights
    V(u) = Re(g_0 + 2 sum_{k >= 1} g_k e^{-ikhu}) at each u of points, of
    the even nodes of g at step 2h and of all of g (an odd count) at step h.
    With z = e^{-ihu} and w = e^{-2ihu}, sum_{k >= 1} g_k z^k = E + z O for
    the coarse sum E = sum_{m >= 1} g_2m w^m and O = sum_{m >= 1} g_{2m-1}
    w^(m-1), so one Horner pass in w gives both.  w is e^{-2ihu} itself, not
    z^2, so E is rounded as the even nodes' own sum."""
    upper = g[:0:-1]
    pairs = list(zip(upper[::2], upper[1::2]))  # (g_2m, g_2m-1), m falling
    coarse, fine = [], []
    for u in points:
        z = complex(math.cos(h * u), -math.sin(h * u))
        w = complex(math.cos(2 * h * u), -math.sin(2 * h * u))
        even = odd = 0j
        for ge, go in pairs:
            even, odd = (even + ge) * w, odd * w + go
        coarse.append(g[0].real + 2 * even.real)
        fine.append(g[0].real + 2 * (even + z * odd).real)
    return coarse, fine


def _chebyshev_transform(values, rows):
    """c_0..c_{N-1} of the sum_j c_j T_j that takes the N given values at
    the Chebyshev points, from the rows of _chebyshev_nodes(N)."""
    coeffs = [2 / len(values) * sum(map(operator.mul, values, row))
              for row in rows]
    coeffs[0] /= 2
    return coeffs


def _clenshaw(coeffs, x):
    """sum_j coeffs[j] T_j(x), by Clenshaw's recurrence."""
    b1 = b2 = 0.0
    x2 = 2 * x
    for cj in coeffs[:0:-1]:
        b1, b2 = cj + x2 * b1 - b2, b1
    return coeffs[0] + x * b1 - b2


def _kept_degree(coeffs, floor):
    """Number of leading coefficients kept: all later ones are below
    floor in absolute value."""
    return 1 + max((j for j, cj in enumerate(coeffs) if abs(cj) > floor),
                   default=0)


def central_value(factor, shift, gamma_shifts, conductor, sign,
                  s0=Fraction(1, 2), terms=None, kernel_width=4, poles=()):
    """Smoothed approximate functional equation at s0.

    Lambda(s) = Q^{s/2} prod_j Gamma_R(s + mu_j) L(s) with Lambda(s) =
    sign * Lambda(1-s); poles may be declared as (location, residue) pairs of
    Lambda.  Returns the finite part L(s0) and Lambda(s0), each with its
    error.

    Weight and moments.  With step h on the line Re w = c, the trapezoidal
    rule makes the smoothed sum at s
        h / (2 pi) sum_{n <= terms} b_n n^{-s-c} V(log n),
        V(u) = Re(g_0 + 2 sum_{k >= 1} g_k e^{-ikhu}),
    where g_k is the integrand at w = c + ikh.  V is sampled at Chebyshev
    points of [0, log terms], at a cost of (points x grid nodes), whatever
    the series length; its Chebyshev coefficients c_j in
    x = 2u / log(terms) - 1 are kept up to the degree D beyond which all
    are below _CHEB_TOL times the largest.  On a block lo <= n <= hi that
    polynomial needs a far lower degree: it is evaluated by Clenshaw's
    recurrence at Chebyshev points of [log lo, log hi], 16 of them, doubled
    while the kept degree d is above 3/4 of their number, up to D + 1,
    where the re-expansion is exact.  Its coefficients a_j in
    y = 2 (u - log lo) / log(hi / lo) - 1 are kept up to the degree d beyond
    which all are below the same floor, _CHEB_TOL times the largest |c_j|
    of the fine grid.  The blocks are the final 35% [checkpoint, terms] and
    the dyadic blocks [t // 2, t - 1] below it, t = checkpoint,
    checkpoint // 2, ..., while they hold 64 terms or more; the head below
    them keeps the c_j.  The sum is then
    h / (2 pi) sum_blocks sum_{j < d} a_j M_j with the moments
        M_j = sum_{lo <= n <= hi} b_n n^{-s-c} T_j(y_n),
    which one pass over each block accumulates by the three-term
    recurrence T_{j+1} = 2y T_j - T_{j-1}, taking log n once per term for
    both y_n and n^{-s-c}.  For the level-26 triple (10,390 terms) D is 36
    and d is 10 to 12.

    One grid for both sums.  g is evaluated once, at t_k = k h for
    k = 0..260; the coarse sum of the quadrature check takes the same
    values at the even k, with step 2h, so it costs no evaluation of its
    own, and one Horner pass samples both weights (_weight_samples).  The
    moments depend on neither h nor the g_k, so the two sums differ only
    in their coefficients and share the pass, block by block.
    The coarse sum of the final 35% block is the tail estimate.

    Three error sources make lam_error (error = lam_error / |gamma(s0)|),
    each also in details:
    - quad_err: the gap between the sums at step 2h and at step h;
    - tail: twice the coarse sum of the final 35% block, for the terms
      beyond the series;
    - interp: the dropped |c_j| of the fine grid times sum_n |b_n n^{-s-c}|
      over the whole series, plus for each block its dropped |a_j| of the
      fine grid times its own sum_n |b_n n^{-s-c}|.  |T_j| <= 1 on [-1, 1],
      so this would bound the weight's error at every n if the c_j and a_j
      were exact.  They are interpolated, and a block that stops doubling
      below D + 1 points folds the part of the polynomial above its point
      count into its lower a_j; neither fold is counted, so interp is an
      estimate, as the global stage's always was.
    details has those three and two maps from each line s (s0, and 1 - s0
    when it differs):
    - degree: the kept degree D of the expansion on [0, log terms];
    - moment_work: the moment pass's work, sum over the head and the blocks
      of (terms in it) x (its kept degree), a count that does not depend on
      the machine.  No caller reads it; tests pin the saving of the blocks
      with it.

    Four exact facts cut the work further; the first three change only
    rounding, the last changes nothing:
    - one-sided grid: for real s the integrand g on the line Re w = c has
      g(-t) = conj g(t), so only the nodes t_k = k h, k >= 0, are computed,
      which is the form of V above;
    - one sum at s0 = 1/2: there the sums at s0 and 1 - s0 are the same, so
      it is computed once;
    - grouped Gamma_R factors: one log Gamma_R evaluation per distinct
      argument s + mu_j, times its multiplicity, shared by the sums at s0
      and 1 - s0, and log Gamma_R(x + 2) = log Gamma_R(x) + log(x / (2 pi))
      for arguments two apart;
    - Euler factors only as deep as read: dirichlet_coefficients reads the
      factor at p only up to X^floor(log_p terms), so a factor function may
      return truncated factors (see triple_factors).

    factor is a function p -> local factor [1, c_1, ..., c_d] and shift
    the series' one shift, which dirichlet_coefficients takes: it calls
    factor once per prime p <= terms while it fills its array('d'), and the
    moment pass reads that array as it stands.  Whatever factor raises for
    a prime it lacks, central_value raises.
    """
    shifts = Counter(Fraction(m) for m in gamma_shifts)
    s0 = Fraction(s0)
    lines = sorted({s0, 1 - s0})
    # both expansion lines s0 + c and 1 - s0 + c must clear the
    # absolute-convergence abscissa
    c = max(1.75, abs(float(s0) - 0.5) + 1.3)
    aa = float(kernel_width)
    log_q = math.log(conductor)

    def log_lam_gamma(ss):
        """w -> {s: log(Q^{(s+w)/2} prod_j Gamma_R(s + w + mu_j))} for s in
        ss, up to multiples of 2 pi i; the rational bookkeeping is done once
        here, not per node."""
        args = sorted({s + mu for s in ss for mu in shifts})
        # each argument, with the index of the argument two below it
        steps = [(float(o), args.index(o - 2) if o - 2 in args else None)
                 for o in args]
        parts = [(s, float(s), [(args.index(s + mu), mult)
                                for mu, mult in shifts.items()]) for s in ss]

        def at(w):
            log_gamma_r = []
            for o, below in steps:
                x = w + o
                if below is None:
                    log_gamma_r.append(-x / 2 * math.log(math.pi)
                                       + _log_gamma(x / 2))
                else:
                    log_gamma_r.append(log_gamma_r[below]
                                       + cmath.log((x - 2) / (2 * math.pi)))
            return {s: (sf + w) / 2 * log_q
                    + sum(mult * log_gamma_r[i] for i, mult in part)
                    for s, sf, part in parts}
        return at

    # choose the truncation from the size of V(n): the integrand decays
    # like n^{-(sigma+c)}; require bound * tail_zeta < tol
    if terms is None:
        terms = _afe_terms(conductor)
    maxn = terms
    b = dirichlet_coefficients(factor, maxn, shift)
    tmax = math.sqrt(aa * (math.log(1 / _GRID_TOL) + c * c / aa + 10))

    on_lines = log_lam_gamma(lines)

    # g_s(t_k) on every line for k = 0..260; the even k are the coarse grid
    h = tmax / 260
    gs = {s: [] for s in lines}
    for k in range(261):
        w = complex(c, k * h)
        log_kernel = w * w / aa - cmath.log(w)
        for s, lg in on_lines(w).items():
            gs[s].append(cmath.exp(lg + log_kernel))
    # u = log n runs over [0, span]; x = 2u / span - 1 over [-1, 1]
    span = math.log(max(maxn, 2))
    # the node tables of this call, one per node count
    chebyshev_nodes = functools.cache(_chebyshev_nodes)

    # per line: the kept degree D and each grid's weight coefficients
    weights = []
    for s in lines:
        nodes = _CHEB_NODES
        while True:
            xs, rows = chebyshev_nodes(nodes)
            points = [span * (x + 1) / 2 for x in xs]
            coeffs = [_chebyshev_transform(values, rows)
                      for values in _weight_samples(h, gs[s], points)]
            degree = max(_kept_degree(cf, _CHEB_TOL * max(map(abs, cf)))
                         for cf in coeffs)
            if 4 * degree <= 3 * nodes or nodes >= _CHEB_MAX_NODES:
                break
            nodes *= 2
        weights.append((degree, coeffs))

    def local_weights(lo, hi):
        """Per line, the kept degree d and the coarse and fine weights of
        degree below D re-expanded in y = 2 (u - log lo) / log(hi / lo) - 1
        on the block [lo, hi]."""
        u0 = math.log(lo)
        # a block of one term (terms <= 1) has width 0: every sample is the
        # weight at that term, and _block_moments puts it at y = -1
        width = math.log(hi / lo) if hi > lo else 0.0
        out = []
        for degree, coeffs in weights:
            kept = [cf[:degree] for cf in coeffs]
            floor = _CHEB_TOL * max(map(abs, coeffs[1]))
            nodes = _BLOCK_NODES
            while True:
                # degree + 1 samples re-expand a polynomial of degree
                # below D exactly
                nodes = min(nodes, degree + 1)
                ys, rows = chebyshev_nodes(nodes)
                xs = [2 * (u0 + width * (y + 1) / 2) / span - 1 for y in ys]
                local = [_chebyshev_transform([_clenshaw(cf, x) for x in xs],
                                              rows) for cf in kept]
                d = max(_kept_degree(cf, floor) for cf in local)
                if nodes > degree or 4 * d <= 3 * nodes:
                    break
                nodes *= 2
            out.append((d, *local))
        return u0, width, out

    # the series in blocks [lo, hi] of n: the final 35% block, dyadic
    # blocks below it while they hold _BLOCK_MIN_TERMS terms, each with its
    # own weights, and the head [1, top - 1] with the weights above
    checkpoint = max(1, int(maxn * 0.65))
    bounds = [(checkpoint, maxn)]
    top = checkpoint
    while top - top // 2 >= _BLOCK_MIN_TERMS:
        bounds.append((top // 2, top - 1))
        top //= 2
    blocks = [(1, top - 1, 0.0, span,
               [(degree, co[:degree], fi[:degree])
                for degree, (co, fi) in weights])]
    blocks += [(lo, hi, *local_weights(lo, hi)) for lo, hi in bounds[::-1]]

    def dot(coeffs, m):
        return sum(cj * mj for cj, mj in zip(coeffs, m))

    # per block and line: the coarse and fine sums, sum_n |b_n n^{-s-c}|,
    # the dropped local fine coefficients times that, and the work
    exponents = [-float(s) - c for s in lines]
    parts = []
    for lo, hi, u0, width, local in blocks:
        moments, absolute = _block_moments(
            b, exponents, lo, hi, u0, 2 / width if width else 0.0,
            [d for d, _, _ in local])
        parts.append([(dot(co, m), dot(fi, m), a, sum(map(abs, fi[d:])) * a,
                       (hi - lo + 1) * d)
                      for (d, co, fi), m, a in zip(local, moments, absolute)])

    step_c, step_f = 2 * h / (2 * math.pi), h / (2 * math.pi)
    sums, interp, work = {}, {}, {}
    for i, (s, (degree, (_, fi))) in enumerate(zip(lines, weights)):
        co_sum, fi_sum, absolute, dropped, work[s] = map(
            sum, zip(*(part[i] for part in parts)))
        # the last block is the final 35%: its coarse sum is the tail block
        sums[s] = (co_sum * step_c, fi_sum * step_f,
                   abs(parts[-1][i][0]) * step_c)
        # |T_j| <= 1 on [-1, 1]: the dropped fine coefficients, global and
        # of each block, estimate the weight's error at every n
        interp[s] = (sum(map(abs, fi[degree:])) * absolute + dropped) \
            * step_f
    val1, val1b, blk1 = sums[s0]
    val2, val2b, blk2 = sums[1 - s0]
    quad_err = abs(val1 - val1b) + abs(val2 - val2b)
    # the tail beyond maxn is estimated by the final 35% block (terms
    # decay superpolynomially in this range, so the block dominates)
    series_err = 2 * (blk1 + blk2)
    interp_err = interp[s0] + interp[1 - s0]
    lam_error = quad_err + series_err + interp_err

    lam = val1b + sign * val2b
    for (loc, res) in poles:
        w = float(loc) - float(s0)
        if abs(w) < c:
            lam -= float(res) * math.exp(w * w / aa) / w

    gam = cmath.exp(log_lam_gamma([s0])(0j)[s0]).real
    return CentralValue(lam / gam, lam_error / abs(gam), lam, lam_error,
                        maxn, {"quad_err": quad_err, "tail": series_err,
                               "interp": interp_err,
                               "degree": {s: degree for s, (degree, _)
                                          in zip(lines, weights)},
                               "moment_work": work})


def _block_moments(b, exponents, lo, hi, u0, scale, degrees):
    """One pass over b[lo..hi] per line i: the moments
    M_j = sum_n b_n n^{exponents[i]} T_j(y_n) for j < degrees[i], with
    y_n = (log n - u0) scale - 1, and sum_n |b_n n^{exponents[i]}|.
    log n is taken once per term, into a table that every line reads for
    both y_n and n^{exponents[i]}."""
    from array import array     # loaded as in dirichlet_coefficients
    exp = math.exp
    logs = array("d", map(math.log, range(lo, hi + 1)))
    block = b[lo:hi + 1]
    moments, absolute = [], []
    for e, d in zip(exponents, degrees):
        m = [0.0] * d
        rest = range(1, d)
        total = 0.0
        for bn, u in zip(block, logs):
            if bn == 0.0:
                continue
            t0 = bn * exp(e * u)
            total += abs(t0)
            y = (u - u0) * scale - 1
            y2 = 2 * y
            t1 = t0 * y
            m[0] += t0
            # t0, t1 = w T_{j-1}(y), w T_j(y)
            for j in rest:
                m[j] += t1
                t0, t1 = t1, y2 * t1 - t0
        moments.append(m)
        absolute.append(total)
    return moments, absolute


def _check_coverage(records, count):
    """Raise, before anything of size count is built, the LSeriesError the
    series would raise at the first prime p <= count whose a_p a record
    lacks.  Only a series past top, the largest p in the data, needs it;
    some prime in (top, 2 top] is missing (Bertrand), so the sieve stops at
    2 top."""
    top = max(max(r.ap, default=1) for r in records)
    if count > top:
        sieve = prime_sieve(min(count, 2 * top))
        for p in itertools.compress(range(len(sieve)), sieve):
            for r in records:
                r.a(p)


def _afe_terms(conductor):
    """Series length needed for the smoothed sums (heuristic + margin)."""
    return int(float(conductor) ** 0.5 * 3) + 50


def triple_central_value(h, f1, f2, terms=None):
    """Completed central value of L(h, f1, f2; s) at s = 1/2, for weight-2
    newforms of one squarefree level N, all Steinberg at every p | N."""
    shifts = triple_gamma_shifts((h.weight, f1.weight, f2.weight))
    conductor = triple_conductor(h.level)
    count = _afe_terms(conductor) if terms is None else terms
    # root number -prod_{p | N} eps_p, eps_p = -a_p(h) a_p(f1) a_p(f2)
    sign = -math.prod(-h.a(p) * -f1.a(p) * -f2.a(p)
                      for p in _prime_factors(h.level))
    _check_coverage((h, f1, f2), count)
    return central_value(triple_factors(h, f1, f2, count),
                         triple_shift(h, f1, f2), shifts, conductor, sign,
                         terms=count)


def petersson_norm_proxy(record, terms=None):
    """Value of the completed symmetric square at the analytic edge s = 1.

    Proportional to the Petersson norm up to a level-weight constant, which
    cancels in the ratio diagnostics this proxy feeds.  Its Euler factors are
    built one prime at a time, as on the triple path, so a prime missing
    from the data file is named.
    """
    conductor = sym2_conductor(record)
    count = _afe_terms(conductor) if terms is None else terms
    _check_coverage((record,), count)
    return central_value(functools.partial(sym2_factor, record),
                         sym2_shift(record), sym2_gamma_shifts(record.weight),
                         conductor, +1, s0=Fraction(1), terms=count)

