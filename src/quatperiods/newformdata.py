"""Generation of the newform eigen-data file shipped with the package.

The five rational newforms the test battery uses are reproduced locally:
11a, 14a, 15a have classical eta-product expansions, and all five have
elliptic-curve models, so a_p comes from point counting with the eta products
as an independent cross-check.  No network access anywhere.
"""

from __future__ import annotations

import os

from .quatalg import primes_up_to

CURVES = {
    # label: (level, [a1, a2, a3, a4, a6])
    "11a": (11, [0, -1, 1, -10, -20]),
    "14a": (14, [1, 0, 1, 4, -6]),
    "15a": (15, [1, 1, 1, -10, -10]),
    "26a": (26, [1, 0, 1, -5, -8]),
    "26b": (26, [1, -1, 1, -3, 3]),
}

ETA_PRODUCTS = {
    # label: list of scales d with f = prod_d eta(d z); weights sum to 2
    "11a": [1, 1, 11, 11],
    "14a": [1, 2, 7, 14],
    "15a": [1, 3, 5, 15],
}


def eta_series(scale, n):
    """Coefficients of prod_m (1 - q^{scale*m}) up to q^n (pentagonal)."""
    out = [0] * (n + 1)
    k = 0
    while True:
        exps = []
        for kk in (k, -k) if k else (0,):
            e = kk * (3 * kk - 1) // 2 * scale
            if 0 <= e <= n:
                out[e] += (-1) ** abs(kk)
                exps.append(e)
        if k and k * (3 * k - 1) // 2 * scale > n:
            break
        k += 1
    return out


def eta_product_coefficients(scales, n):
    """a_1..a_n of q * prod eta-series (exact integers)."""
    series = [1] + [0] * n
    for d in scales:
        e = eta_series(d, n)
        nz = [(i, c) for i, c in enumerate(e) if c]
        new = [0] * (n + 1)
        for i, c in nz:
            for j in range(0, n + 1 - i):
                if series[j]:
                    new[i + j] += c * series[j]
        series = new
    return {m + 1: series[m] for m in range(n)}


def curve_ap(coeffs, p):
    """Trace of Frobenius of a Weierstrass curve at p (counting points).

    For good reduction a_p = p + 1 - #E(F_p).  For multiplicative reduction
    (the only bad type at our squarefree levels) smooth points form a group
    of order p - a_p with a_p = +-1, so a_p = p - #smooth points.
    """
    a1, a2, a3, a4, a6 = [c % p for c in coeffs]

    def rhs(x):
        return (x * (x * (x + a2) + a4) + a6) % p

    def is_singular(x, y):
        # partial derivatives of y^2 + a1 x y + a3 y - f(x)
        dy = (2 * y + a1 * x + a3) % p
        dx = (a1 * y - (3 * x * x + 2 * a2 * x + a4)) % p
        return dy == 0 and dx == 0

    if p == 2:
        count = 0
        singular = False
        for x in range(2):
            for y in range(2):
                if (y * y + a1 * x * y + a3 * y - rhs(x)) % 2 == 0:
                    if is_singular(x, y):
                        singular = True
                    else:
                        count += 1
        count += 1  # infinity
        return 2 - count if singular else 2 + 1 - count

    # odd p: complete the square; solutions per x from the Legendre symbol
    squares = [0] * p
    for z in range(p):
        squares[z * z % p] = 1
    count = 0
    singular_on_curve = False
    for x in range(p):
        d = ((a1 * x + a3) ** 2 + 4 * rhs(x)) % p
        if d == 0:
            # the unique y over this x; check smoothness
            y = (-(a1 * x + a3) * pow(2, -1, p)) % p
            if is_singular(x, y):
                singular_on_curve = True
            else:
                count += 1
        elif squares[d]:
            count += 2
    count += 1  # infinity
    if singular_on_curve:
        return p - count
    return p + 1 - count


def generate_records(pmax=12000):
    """All shipped records as (label, level, weight, eps, ap) tuples."""
    primes = primes_up_to(pmax)
    out = []
    for label, (level, coeffs) in CURVES.items():
        ap = {p: curve_ap(coeffs, p) for p in primes}
        if label in ETA_PRODUCTS:
            check = eta_product_coefficients(ETA_PRODUCTS[label], 100)
            for p in primes:
                if p <= 100 and check[p] != ap[p]:
                    raise AssertionError(
                        f"{label}: point count a_{p}={ap[p]} but eta "
                        f"product gives {check[p]}")
        eps = {}
        for p in primes:
            if level % p == 0:
                if ap[p] not in (1, -1):
                    raise AssertionError(f"{label}: bad reduction a_{p}")
                eps[p] = -ap[p]
        out.append((label, level, 2, eps, ap))
    return out


def write_newform_file(path, pmax=12000):
    records = generate_records(pmax)
    lines = []
    for label, level, weight, eps, ap in records:
        eps_s = ",".join(f"{p}:{v:+d}" for p, v in sorted(eps.items()))
        ap_s = ",".join(f"{p}:{v}" for p, v in sorted(ap.items()))
        lines.append(f"{label}|{level}|{weight}|{eps_s}|{ap_s}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def default_data_path():
    return os.path.join(os.path.dirname(__file__), "data", "newforms.txt")


if __name__ == "__main__":
    target = default_data_path()
    os.makedirs(os.path.dirname(target), exist_ok=True)
    write_newform_file(target)
    print(f"wrote {target}")
