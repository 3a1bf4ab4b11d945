"""Seeded inputs of the ``catalog`` workload, built without pcurv13.

The group tables handed to ``group analyze`` are written here from the
defining formulas, and the values the analysis must report (order,
abelian, cyclicity of each Sylow subgroup) are derived from how each group
was built, so the check does not trust the program it checks.
"""

from __future__ import annotations

import random
from math import gcd, prod
from pathlib import Path

ORDER_RANGE = (81, 512)
# one table per narrow order bucket, so that every seed spans the whole
# range and the set's total size barely depends on the seed
BUCKETS = tuple((81 + 36 * i, 81 + 36 * (i + 1)) for i in range(12))


def prime_divisors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# groups as (order, multiply) on indices 0..order-1 with identity 0


def cyclic(n):
    return n, lambda a, b: (a + b) % n


def metacyclic(m, n, r):
    """Pairs (i mod m, j mod n), index i*n + j, with
    (i, j)(i', j') = (i + r^j i', j + j')."""
    powers = [pow(r, j, m) for j in range(n)]

    def mul(a, b):
        i, j = divmod(a, n)
        k, l = divmod(b, n)
        return ((i + powers[j] * k) % m) * n + (j + l) % n

    return m * n, mul


def unitriangular27():
    """Triples (x, y, z) over Z/3, index 9x + 3y + z, with
    (x, y, z)(x', y', z') = (x + x', y + y', z + z' + x y')."""

    def mul(a, b):
        x, y, z = a // 9, (a // 3) % 3, a % 3
        u, v, w = b // 9, (b // 3) % 3, b % 3
        return ((x + u) % 3) * 9 + ((y + v) % 3) * 3 + (z + w + x * v) % 3

    return 27, mul


def direct_product(*factors):
    order = 1
    for n, _ in factors:
        order *= n

    def mul(a, b):
        out, scale = 0, order
        for n, f in factors:
            scale //= n
            out += f((a // scale) % n, (b // scale) % n) * scale
        return out

    return order, mul


def write_table(group, path: Path) -> None:
    n, mul = group
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"order {n}\n")
        for a in range(n):
            fh.write(" ".join(str(mul(a, b)) for b in range(n)) + "\n")


# ---------------------------------------------------------------------------
# Burnside triples: A^m = B^n = 1, B A B^-1 = A^r, gcd((r-1)n, m) = 1,
# r^n = 1 (mod m); n = 1 waives the gcd condition


def burnside_triples(max_order: int) -> list[tuple[int, int, int]]:
    out = []
    for m in range(1, max_order + 1):
        for n in range(1, max_order // m + 1):
            for r in range(1, m + 1):
                if pow(r, n, m) != 1 % m:
                    continue
                if n != 1 and gcd((r - 1) * n, m) != 1:
                    continue
                out.append((m, n, r))
    return out


def burnside_entry(m, n, r) -> dict:
    order = m * n
    return {
        "name": f"B({m},{n},{r})",
        "build": ("burnside", m, n, r),
        "expect": {
            "order": order,
            "abelian": (r - 1) % m == 0,
            # the family is exactly the groups whose Sylow subgroups are all cyclic
            "sylow": {str(p): True for p in prime_divisors(order)},
        },
    }


# ---------------------------------------------------------------------------
# direct products of catalog factors

# name -> (order, abelian, primes whose Sylow subgroup is not cyclic)
FACTORS = {
    "Z2": (2, True, ()),
    "Z3": (3, True, ()),
    "Z4": (4, True, ()),
    "Z5": (5, True, ()),
    "Z7": (7, True, ()),
    "Z8": (8, True, ()),
    "Z9": (9, True, ()),
    "Z11": (11, True, ()),
    "Z13": (13, True, ()),
    "Z16": (16, True, ()),
    "Z25": (25, True, ()),
    "Z27": (27, True, ()),
    "Z32": (32, True, ()),
    "S3": (6, False, ()),
    "U33": (27, False, (3,)),
    "Z9semiZ3": (27, False, (3,)),
}


def factor_group(name: str):
    if name == "S3":
        return metacyclic(3, 2, 2)
    if name == "U33":
        return unitriangular27()
    if name == "Z9semiZ3":
        return metacyclic(9, 3, 4)
    return cyclic(int(name[1:]))


def product_entry(names: tuple[str, ...]) -> dict:
    order = prod(FACTORS[f][0] for f in names)
    sylow = {}
    for p in prime_divisors(order):
        holders = [f for f in names if FACTORS[f][0] % p == 0]
        sylow[str(p)] = len(holders) == 1 and p not in FACTORS[holders[0]][2]
    return {
        "name": "x".join(names),
        "build": ("product", *names),
        "expect": {
            "order": order,
            "abelian": all(FACTORS[f][1] for f in names),
            "sylow": sylow,
        },
    }


def product_pool() -> list[tuple[str, ...]]:
    """Two-factor products with order in ORDER_RANGE."""
    names = sorted(FACTORS, key=lambda f: (FACTORS[f][0], f))
    lo, hi = ORDER_RANGE
    return [
        (a, b)
        for i, a in enumerate(names)
        for b in names[i:]
        if lo <= FACTORS[a][0] * FACTORS[b][0] <= hi
    ]


def build_group(entry: dict):
    kind, *args = entry["build"]
    if kind == "burnside":
        return metacyclic(*args)
    return direct_product(*(factor_group(f) for f in args))


def analyze_set(seed: int) -> list[dict]:
    """One group per order bucket, drawn with the seed: a Burnside group in
    even buckets, a product in odd ones (a Burnside group where a bucket
    holds no product)."""
    rng = random.Random(seed)
    burnside = burnside_triples(ORDER_RANGE[1])
    products = product_pool()
    out = []
    for i, (lo, hi) in enumerate(BUCKETS):
        p_pool = [f for f in products if lo <= prod(FACTORS[x][0] for x in f) < hi]
        if i % 2 and p_pool:
            out.append(product_entry(rng.choice(p_pool)))
        else:
            out.append(burnside_entry(*rng.choice([t for t in burnside if lo <= t[0] * t[1] < hi])))
    return out


def check_analysis(payload: dict, expect: dict) -> str | None:
    """None when the ``group analyze --json`` payload matches, else why not."""
    for key in ("order", "abelian", "sylow"):
        if payload.get(key) != expect[key]:
            return f"{key}: got {payload.get(key)!r}, expected {expect[key]!r}"
    return None
