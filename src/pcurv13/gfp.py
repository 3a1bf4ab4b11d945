"""Dense linear algebra over the prime field GF(p).

Everything here works on tuples of ints in [0, p).  Matrices are tuples of
row vectors.  Dimensions in this package are tiny (at most 8), so the
implementation favours clarity and hashability over speed; hot loops cache
reduced bases.
"""

from __future__ import annotations

from typing import Iterable, Sequence

Vec = tuple[int, ...]


def zero_vec(n: int) -> Vec:
    return (0,) * n


def is_zero(u: Sequence[int]) -> bool:
    return all(a == 0 for a in u)


def rref(rows: Iterable[Sequence[int]], p: int) -> tuple[Vec, ...]:
    """Reduced row echelon form; zero rows dropped, rows sorted by pivot."""
    work = [list(r) for r in rows if not is_zero(r)]
    if not work:
        return ()
    ncols = len(work[0])
    basis: list[list[int]] = []  # kept in echelon order
    pivots: list[int] = []
    for row in work:
        row = row[:]
        for b, j in zip(basis, pivots):
            if row[j]:
                c = row[j]
                row = [(x - c * y) % p for x, y in zip(row, b)]
        j = next((k for k, x in enumerate(row) if x), None)
        if j is None:
            continue
        inv = pow(row[j], p - 2, p)
        row = [(inv * x) % p for x in row]
        # back-substitute into existing rows
        for i, (b, jb) in enumerate(zip(basis, pivots)):
            if b[j]:
                c = b[j]
                basis[i] = [(x - c * y) % p for x, y in zip(b, row)]
        basis.append(row)
        pivots.append(j)
    order = sorted(range(len(basis)), key=lambda i: pivots[i])
    return tuple(tuple(basis[i]) for i in order)


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
        row = list(v)
        p = self.p
        for b, j in zip(self.basis, self._pivots):
            if row[j]:
                c = row[j]
                row = [(x - c * y) % p for x, y in zip(row, b)]
        return tuple(row)

    def contains(self, v: Sequence[int]) -> bool:
        return is_zero(self.reduce(v))

    def join(self, vectors: Iterable[Sequence[int]]) -> "Subspace":
        return Subspace(self.p, self.n, list(self.basis) + [tuple(v) for v in vectors])


def span_vectors(basis: Sequence[Sequence[int]], p: int, n: int) -> Iterable[Vec]:
    if not basis:
        yield zero_vec(n)
        return
    k = len(basis)
    coeffs = [0] * k
    total = p**k
    for _ in range(total):
        acc = [0] * n
        for c, b in zip(coeffs, basis):
            if c:
                for i, x in enumerate(b):
                    acc[i] = (acc[i] + c * x) % p
        yield tuple(acc)
        for i in range(k - 1, -1, -1):
            coeffs[i] += 1
            if coeffs[i] < p:
                break
            coeffs[i] = 0


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
    out: list[Vec] = []
    n = len(domain_basis[0])
    for row in red:
        if is_zero(row[:m]):
            coeffs = row[m:]
            acc = [0] * n
            for c, b in zip(coeffs, domain_basis):
                if c:
                    for i, x in enumerate(b):
                        acc[i] = (acc[i] + c * x) % p
            out.append(tuple(acc))
    return out
