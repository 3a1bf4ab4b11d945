"""Dense linear algebra over the prime field GF(p).

Everything here works on tuples of ints in [0, p).  Matrices are tuples of
row vectors.  Dimensions in this package are tiny (at most 8), so the
implementation favours clarity and hashability over speed; hot loops cache
reduced bases.  One elimination loop, _eliminate, serves both rref and
Subspace.reduce.  is_prime is the one primality test of the package and
_require_prime its one guard; _combine, the one linear combination of
basis vectors, serves preimage_subspace and the spectral sweep.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterable, Sequence

Vec = tuple[int, ...]

PRIME_CAP = 2**31 - 1  # the largest prime _require_prime accepts


def is_prime(n: int) -> bool:
    """Trial division: the primes of this package are small."""
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def _require_prime(p: int) -> None:
    """Reject p unless it is a prime at most PRIME_CAP, where trial division
    takes at most some 46000 steps."""
    if p > PRIME_CAP:
        raise ValueError(f"{p} is above the largest supported prime {PRIME_CAP}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def zero_vec(n: int) -> Vec:
    return (0,) * n


def is_zero(u: Sequence[int]) -> bool:
    return not any(u)


def _eliminate(row: Sequence[int], basis: Sequence[Sequence[int]], pivots: Sequence[int], p: int) -> Sequence[int]:
    """row minus the multiples of the basis rows that clear its entry at
    each one's pivot.  Each basis row has entry 1 at its pivot and 0 at the
    others, so clearing one pivot leaves the others as they are."""
    for b, j in zip(basis, pivots):
        c = row[j]
        if c:
            row = [(x - c * y) % p for x, y in zip(row, b)]
    return row


def rref(rows: Iterable[Sequence[int]], p: int) -> tuple[Vec, ...]:
    """Reduced row echelon form; zero rows dropped, rows sorted by pivot.

    Each row is reduced by the basis kept so far; what is left, scaled to a
    leading 1, is cleared from the earlier rows at its pivot and joins them."""
    basis: list[Sequence[int]] = []
    pivots: list[int] = []
    for row in rows:
        row = _eliminate(row, basis, pivots, p)
        j = next((k for k, x in enumerate(row) if x), None)
        if j is not None:
            inv = pow(row[j], p - 2, p)
            row = [inv * x % p for x in row]
            for i, b in enumerate(basis):
                if b[j]:
                    basis[i] = _eliminate(b, (row,), (j,), p)
            basis.append(row)
            pivots.append(j)
    return tuple(tuple(basis[i]) for i in sorted(range(len(basis)), key=pivots.__getitem__))


class Subspace:
    """A subspace of GF(p)^n held as a reduced row basis."""

    __slots__ = ("p", "n", "basis", "_pivots")

    def __init__(self, p: int, n: int, vectors: Iterable[Sequence[int]] = ()):
        self.p = p
        self.n = n
        self.basis = rref(vectors, p)
        self._pivots = tuple(next(k for k, x in enumerate(row) if x) for row in self.basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, v: Sequence[int]) -> Vec:
        """Residue of v modulo this subspace (zero iff v is a member)."""
        return tuple(_eliminate(v, self.basis, self._pivots, self.p))

    def contains(self, v: Sequence[int]) -> bool:
        return is_zero(self.reduce(v))

    def join(self, vectors: Iterable[Sequence[int]]) -> "Subspace":
        return Subspace(self.p, self.n, list(self.basis) + [tuple(v) for v in vectors])


def _combine(p: int, coords: Sequence[int], basis: Sequence[Sequence[int]], n: int) -> Vec:
    """sum coords[i] * basis[i] in GF(p)^n."""
    acc = [0] * n
    for c, b in zip(coords, basis):
        if c % p:
            for i, x in enumerate(b):
                acc[i] = (acc[i] + c * x) % p
    return tuple(acc)


def rank(rows: Iterable[Sequence[int]], p: int) -> int:
    return len(rref(rows, p))


def preimage_subspace(
    domain_basis: Sequence[Vec],
    images: Sequence[Vec],
    target: Subspace,
    p: int,
) -> list[Vec]:
    """Basis of {x in span(domain_basis) : f(x) in target} (coordinates of the
    ambient space of the domain)."""
    k = len(domain_basis)
    if k == 0:
        return []
    # solve for coefficient vectors c with sum c_i * reduce(images[i]) = 0
    reduced = [target.reduce(v) for v in images]
    m = len(reduced[0]) if reduced else 0
    # kernel of the k x m matrix via rref of its transpose trick:
    # append identity columns and row-reduce [A | I]; rows with zero A-part
    # give kernel combinations.
    aug = [list(reduced[i]) + [1 if j == i else 0 for j in range(k)] for i in range(k)]
    red = rref(aug, p)
    n = len(domain_basis[0])
    return [_combine(p, row[m:], domain_basis, n) for row in red if is_zero(row[:m])]
