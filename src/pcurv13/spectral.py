"""Mod-p spectral sequence engine for free rank-two elementary abelian
actions on spaces with the mod-p cohomology of a product of a 2-sphere
and a 3-sphere.

The homotopy-quotient fibration has base cohomology Z_p[t1,t2] (x)
Lambda(s1,s2) (|t_i| = 2, |s_i| = 1) and fiber dims (1,0,1,1,0,1).  The
second page is a free base-module on generators 1, y (deg 2), x (deg 3),
xy (deg 5); differentials are determined base-linearly by their values on
those generators, which is exactly the structure an exhaustive sweep can
cover:

  * d2(y) = 0 and d2(xy) = 0 are forced (empty targets);
    d2(x) = a1*t1*y + a2*t2*y + a3*s1*s2*y.
  * d3 vanishes on the x-row (empty target); d3(y) is any degree-3 base
    class compatible with the d2 boundaries; d3(xy) = d3(x)y - x d3(y)
    by the Leibniz rule, so it is -x*d3(y) when x survives and 0 when not.
  * d4 and d6 take free values on generators still alive on their page,
    extended base-linearly.

A free action would force every class of total degree 6 to die.  The
exhaustive verdict checks that across all differential choices at least
one class survives, so no such action exists.  Degrees are capped at
total degree 7, enough to settle degree 6; d5 and everything past d6
vanish in the window for degree reasons.

Symmetry.  GL_2(F_p) acts on the base by substituting s_i and t_i with
the same matrix, so s1s2 goes to det * s1s2; rescaling the fiber
generators (x -> alpha x, y -> beta y) sends d2 to (alpha/beta) d2 and
d3y to beta d3y.  Each of these is a ring automorphism of the second
page preserving the bigrading, so it transports a whole spectral
sequence onto another with the same page dimensions.  It therefore maps
the admissible choices over one (d2, d3y) frame bijectively onto those
over the image frame, and both the number of choices and the minimum
number of degree-6 survivors are constant on orbits.  The sweep
evaluates one frame per orbit and weights its count by the orbit size;
on the zero frame, which the whole group fixes, it reduces the d4 values
the same way.

Linear algebra is exact over GF(p); everything is deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Callable, Hashable, Iterable, Optional, Sequence

from .gfp import (
    Subspace,
    is_zero,
    preimage_subspace,
    rank,
    span_vectors,
    zero_vec,
)

SUPPORTED_PRIMES = (3, 5, 7)
FIBER_DIMS = (1, 0, 1, 1, 0, 1)
FIBER_ROWS = (0, 2, 3, 5)
WINDOW = 7  # report spots with m + n <= WINDOW

Mono = tuple[int, int, int, int]  # (e1, e2, a, b): s1^e1 s2^e2 t1^a t2^b
Vec = tuple[int, ...]
Frame = tuple[tuple[int, int, int], Vec]  # (d2 coefficients, d3y)


class ProofGateError(AssertionError):
    """An internal check of the certificate failed.  Raised explicitly, so
    the check also runs under ``python -O``."""


def _gate(ok: bool, message: str) -> None:
    if not ok:
        raise ProofGateError(message)


@lru_cache(maxsize=None)
def monomials(k: int) -> tuple[Mono, ...]:
    """Basis of the degree-k piece of Z_p[t1,t2] (x) Lambda(s1,s2); pure
    t-monomials first (t1-heavy first), then s1-, s2-, s1s2-multiples."""
    out = []
    for e1 in (0, 1):
        for e2 in (0, 1):
            rem = k - e1 - e2
            if rem < 0 or rem % 2:
                continue
            for b in range(rem // 2 + 1):
                out.append((e1, e2, rem // 2 - b, b))
    out.sort(key=lambda m: (m[0] + m[1], m[1], m[3]))
    return tuple(out)


@lru_cache(maxsize=None)
def _mono_index(k: int) -> dict[Mono, int]:
    return {m: i for i, m in enumerate(monomials(k))}


def _mono_mul(m1: Mono, m2: Mono) -> Optional[tuple[int, Mono]]:
    e1, e2, a, b = m1
    f1, f2, c, d = m2
    if (e1 and f1) or (e2 and f2):
        return None
    sign = -1 if (e2 and f1) else 1
    return sign, (e1 + f1, e2 + f2, a + c, b + d)


def base_dim(k: int) -> int:
    return len(monomials(k)) if k >= 0 else 0


def bg_dims(p: int, max_deg: int) -> tuple[int, ...]:
    """dim H^k of the classifying space of (Z_p)^2, k = 0..max_deg."""
    _require_odd_prime(p)
    return tuple(base_dim(k) for k in range(max_deg + 1))


def _require_odd_prime(p: int) -> None:
    if p == 2:
        raise ValueError("the engine requires an odd prime")
    if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
        raise ValueError(f"{p} is not prime")


@lru_cache(maxsize=None)
def _mul_table(k1: int, k2: int) -> tuple[tuple[Optional[tuple[int, int]], ...], ...]:
    idx = _mono_index(k1 + k2)
    table = []
    for m1 in monomials(k1):
        row = []
        for m2 in monomials(k2):
            hit = _mono_mul(m1, m2)
            row.append(None if hit is None else (hit[0], idx[hit[1]]))
        table.append(tuple(row))
    return tuple(table)


def _mul_vec(p: int, u: Sequence[int], ku: int, w: Sequence[int], kw: int) -> Vec:
    out = [0] * base_dim(ku + kw)
    table = _mul_table(ku, kw)
    for i, cu in enumerate(u):
        if not cu:
            continue
        row = table[i]
        for j, cw in enumerate(w):
            if not cw:
                continue
            hit = row[j]
            if hit is None:
                continue
            sign, t = hit
            out[t] = (out[t] + sign * cu * cw) % p
    return tuple(out)


@lru_cache(maxsize=None)
def _std_basis(k: int) -> tuple[Vec, ...]:
    n = base_dim(k)
    return tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))


# ---------------------------------------------------------------------------
# choices and pages


@dataclass(frozen=True)
class DifferentialChoice:
    """Field-element data determining every differential in the window.

    ``a`` gives d2 on the degree-3 fiber generator (coefficients of
    t1*y, t2*y, s1s2*y); ``d3y`` lies in the degree-3 base span
    (coordinates over s1t1, s1t2, s2t1, s2t2); ``d3x`` has an empty
    target and must stay empty.  The later vectors are coordinates over
    the current-page basis at the target spot and are admissible only
    while the corresponding generator is alive: ``d4x`` needs the
    degree-3 generator to survive d2, ``d4xy`` the degree-5 generator
    alive at page 4, ``d6xy`` alive at page 6.  ``None`` is the zero
    choice where one exists and "not applicable" where none does.
    """

    a: tuple[int, int, int]
    d3y: tuple[int, int, int, int] = (0, 0, 0, 0)
    d3x: tuple[int, ...] = ()
    d4x: Optional[tuple[int, ...]] = None
    d4xy: Optional[tuple[int, ...]] = None
    d6xy: Optional[tuple[int, ...]] = None


def zero_choice(p: int) -> DifferentialChoice:
    _require_odd_prime(p)
    return DifferentialChoice(a=(0, 0, 0))


@dataclass(frozen=True)
class BigradedPage:
    """Dimensions over the window m + n <= 7; r is the page index, with
    None meaning the limit page."""

    r: Optional[int]
    dims: dict[tuple[int, int], int] = field(default_factory=dict)

    def dim(self, m: int, n: int) -> int:
        return self.dims.get((m, n), 0)

    def total_degree(self, k: int) -> int:
        return sum(d for (m, n), d in self.dims.items() if m + n == k)


def e2_page(p: int) -> BigradedPage:
    _require_odd_prime(p)
    dims = {}
    for n in FIBER_ROWS:
        for m in range(WINDOW - n + 1):
            d = base_dim(m) * FIBER_DIMS[n]
            if d:
                dims[(m, n)] = d
    return BigradedPage(r=2, dims=dims)


@dataclass(frozen=True)
class SweepStats:
    """What one exhaustive sweep evaluated and where its time went.

    ``frames`` is the number of (d2, d3y) frames, ``frame_orbits`` the
    number evaluated (one per orbit), ``zero_frame_d4x_orbits`` the number
    of d4 values evaluated on the zero frame (out of p^5).
    """

    frames: int
    frame_orbits: int
    zero_frame_d4x_orbits: int
    orbit_build_s: float
    frame_sweep_s: float


@dataclass(frozen=True)
class VerdictReport:
    """Outcome of the exhaustive sweep for one prime.

    ``choices_examined`` counts the admissible DifferentialChoice tuples
    covered.  It is orbit-weighted: each evaluated frame (and each
    evaluated d4 value on the zero frame) contributes its own count times
    the size of its orbit under GL_2(F_p) and the fiber rescalings, which
    is exact because the count is constant on orbits.  Within a frame the
    sweep also factors coordinates whose effects on the degree-6 spots are
    provably independent, so the count far exceeds the number of
    individually evaluated cases while the minimum stays exact.
    ``minimizing_choice`` lies over the first frame, in sweep order,
    attaining the minimum.  ``stats`` is left out of comparisons.
    """

    p: int
    choices_examined: int
    min_deg6_survivors: int
    minimizing_choice: DifferentialChoice
    stats: SweepStats = field(compare=False)

    @property
    def verdict(self) -> bool:
        return self.min_deg6_survivors >= 1


# ---------------------------------------------------------------------------
# frame: all data determined by p, the d2 coefficients and d3y


class _Frame:
    def __init__(self, p: int, a: Sequence[int], d3y: Sequence[int]):
        _require_odd_prime(p)
        self.p = p
        self.a = tuple(int(x) % p for x in a)
        if len(self.a) != 3:
            raise ValueError("d2 takes three coefficients")
        self.u: Vec = self.a  # degree-2 basis is [t1, t2, s1s2]
        self.v: Vec = tuple(int(x) % p for x in d3y)
        if len(self.v) != 4:
            raise ValueError("d3y has four coordinates (s_i t_j basis)")
        if not is_zero(_mul_vec(p, self.v, 3, self.u, 2)):
            raise ValueError(
                "inconsistent choice: d3y does not annihilate the d2 boundaries"
            )
        self.x_alive = is_zero(self.u)
        # Leibniz: d3(xy) = d3(x)y - x d3(y); zero when x is already dead
        self.xi: Vec = (
            tuple((-c) % self.p for c in self.v) if self.x_alive else zero_vec(4)
        )
        self.xy_alive4 = is_zero(self.xi)
        self._ideal: dict[tuple[Vec, int, int], Subspace] = {}

    def mul_all(self, z: Vec, kz: int, m: int) -> list[Vec]:
        """Images of the standard basis of R_m under right multiplication."""
        return [_mul_vec(self.p, e, m, z, kz) for e in _std_basis(m)]

    def ideal_piece(self, z: Vec, kz: int, m: int) -> Subspace:
        """span(R_m * z) inside degree m + kz."""
        key = (z, kz, m)
        if key not in self._ideal:
            self._ideal[key] = Subspace(
                self.p, base_dim(m + kz), self.mul_all(z, kz, m)
            )
        return self._ideal[key]

    def zero_sub(self, k: int) -> Subspace:
        return Subspace(self.p, base_dim(k), ())

    def restrict(self, basis: Sequence[Vec], m: int, z: Vec, kz: int, target: Subspace) -> list[Vec]:
        """Basis of {b in span(basis) : b*z in target}."""
        basis = list(basis)
        if not basis:
            return []
        images = [_mul_vec(self.p, b, m, z, kz) for b in basis]
        return preimage_subspace(basis, images, target, self.p)

    def u_kernel(self, m: int) -> list[Vec]:
        if self.x_alive:
            return list(_std_basis(m))
        return self.restrict(_std_basis(m), m, self.u, 2, self.zero_sub(m + 2))

    # current-page bases interpreting the later choice coordinates
    def page40_reps(self) -> list[Vec]:
        B = self.ideal_piece(self.v, 3, 1) if not is_zero(self.v) else self.zero_sub(4)
        return _quotient_reps(_std_basis(4), B)

    def page42_reps(self) -> list[Vec]:
        Z = (
            self.restrict(_std_basis(4), 4, self.v, 3, self.zero_sub(7))
            if not is_zero(self.v)
            else list(_std_basis(4))
        )
        B = self.ideal_piece(self.u, 2, 2) if not is_zero(self.u) else self.zero_sub(4)
        return _quotient_reps(Z, B)

    def page60_reps(self, w: Vec) -> list[Vec]:
        return _quotient_reps(_std_basis(6), self.b60(w))

    def b60(self, w: Vec) -> Subspace:
        """Boundaries at spot (6,0) accumulated before page 6."""
        vecs: list[Vec] = []
        if not is_zero(self.v):
            vecs += self.mul_all(self.v, 3, 3)
        if self.x_alive and not is_zero(w):
            vecs += self.mul_all(w, 4, 2)
        return Subspace(self.p, base_dim(6), vecs)


def _quotient_reps(cycle_basis: Iterable[Vec], bnd: Subspace) -> list[Vec]:
    reps = []
    cur = bnd
    for z in cycle_basis:
        if not cur.contains(z):
            reps.append(z)
            cur = cur.join([z])
    return reps


def _combine(p: int, coords: Sequence[int], reps: Sequence[Vec], ambient: int) -> Vec:
    acc = [0] * ambient
    for c, r in zip(coords, reps):
        if c % p:
            for i, x in enumerate(r):
                acc[i] = (acc[i] + c * x) % p
    return tuple(acc)


# ---------------------------------------------------------------------------
# single-choice page computation


class _Run:
    """Window state for one validated choice."""

    def __init__(self, p: int, choice: DifferentialChoice):
        if choice.d3x:
            raise ValueError("d3 on the degree-3 generator has empty target")
        fr = _Frame(p, choice.a, choice.d3y)
        self.frame = fr
        self.p = p
        self.w = self._lift(choice.d4x, fr.x_alive, fr.page40_reps(), 4, "d4x")
        self.omega = self._lift(
            choice.d4xy, fr.xy_alive4, fr.page42_reps(), 4, "d4xy"
        )
        self.xy_alive6 = fr.xy_alive4 and is_zero(self.omega)
        self.tau = self._lift(
            choice.d6xy, self.xy_alive6, fr.page60_reps(self.w), 6, "d6xy"
        )

    def _lift(self, coords, available, reps, degree, label) -> Vec:
        ambient = base_dim(degree)
        if coords is None:
            return zero_vec(ambient)
        if not available:
            raise ValueError(f"{label} given but its generator is not alive")
        if len(coords) != len(reps):
            raise ValueError(
                f"{label} has {len(coords)} coordinates, page dimension is {len(reps)}"
            )
        return _combine(self.p, coords, reps, ambient)

    # ---- cycle/boundary state by page ----------------------------------

    def row5_cycles(self, m: int, page: int) -> list[Vec]:
        fr = self.frame
        if m < 0:
            return []
        basis: list[Vec] = list(_std_basis(m))
        if page >= 4 and not is_zero(fr.xi):
            basis = fr.restrict(basis, m, fr.xi, 3, fr.zero_sub(m + 3))
        if page >= 5 and fr.xy_alive4 and not is_zero(self.omega):
            target = (
                fr.ideal_piece(fr.u, 2, m + 2)
                if not is_zero(fr.u)
                else fr.zero_sub(m + 4)
            )
            basis = fr.restrict(basis, m, self.omega, 4, target)
        if page >= 7 and self.xy_alive6 and not is_zero(self.tau):
            basis = fr.restrict(basis, m, self.tau, 6, self.boundaries(m + 6, 0, 6))
        return basis

    def cycles(self, m: int, n: int, page: int) -> list[Vec]:
        fr = self.frame
        if n == 0:
            return list(_std_basis(m))
        if n == 2:
            if page >= 4 and not is_zero(fr.v):
                return fr.restrict(_std_basis(m), m, fr.v, 3, fr.zero_sub(m + 3))
            return list(_std_basis(m))
        if n == 3:
            basis = fr.u_kernel(m) if page >= 3 else list(_std_basis(m))
            if page >= 5 and fr.x_alive and not is_zero(self.w):
                target = (
                    fr.ideal_piece(fr.v, 3, m + 1)
                    if not is_zero(fr.v)
                    else fr.zero_sub(m + 4)
                )
                basis = fr.restrict(basis, m, self.w, 4, target)
            return basis
        if n == 5:
            return self.row5_cycles(m, page)
        return []

    def boundaries(self, m: int, n: int, page: int) -> Subspace:
        fr = self.frame
        vecs: list[Vec] = []
        if n == 0:
            if page >= 4 and m >= 3 and not is_zero(fr.v):
                vecs += fr.mul_all(fr.v, 3, m - 3)
            if page >= 5 and m >= 4 and fr.x_alive and not is_zero(self.w):
                vecs += [
                    _mul_vec(self.p, b, m - 4, self.w, 4)
                    for b in fr.u_kernel(m - 4)
                ]
            if page >= 7 and m >= 6 and self.xy_alive6 and not is_zero(self.tau):
                vecs += [
                    _mul_vec(self.p, b, m - 6, self.tau, 6)
                    for b in self.row5_cycles(m - 6, page=6)
                ]
        elif n == 2:
            if page >= 3 and m >= 2 and not is_zero(fr.u):
                vecs += fr.mul_all(fr.u, 2, m - 2)
            if page >= 5 and m >= 4 and fr.xy_alive4 and not is_zero(self.omega):
                vecs += [
                    _mul_vec(self.p, b, m - 4, self.omega, 4)
                    for b in self.row5_cycles(m - 4, page=4)
                ]
        elif n == 3:
            if page >= 4 and m >= 3 and not is_zero(fr.xi):
                vecs += fr.mul_all(fr.xi, 3, m - 3)
        return Subspace(self.p, base_dim(m), vecs)

    def page_dims(self, page: int) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for n in FIBER_ROWS:
            for m in range(WINDOW - n + 1):
                d = rank(self.cycles(m, n, page), self.p) - self.boundaries(
                    m, n, page
                ).dim
                if d:
                    out[(m, n)] = d
        return out


def run_choice(p: int, choice: DifferentialChoice) -> BigradedPage:
    """Limit page over the window for one differential choice.

    Inconsistent choices are rejected: d3y clashing with the d2
    boundaries, vectors of the wrong page dimension, or values assigned
    to generators that are already dead.
    """
    return BigradedPage(r=None, dims=_Run(p, choice).page_dims(7))


def run_choice_pages(p: int, choice: DifferentialChoice) -> list[BigradedPage]:
    """Snapshots of pages 2..6 followed by the limit page."""
    run = _Run(p, choice)
    pages = [BigradedPage(r=r, dims=run.page_dims(r)) for r in range(2, 7)]
    pages.append(BigradedPage(r=None, dims=run.page_dims(7)))
    return pages


# ---------------------------------------------------------------------------
# the exhaustive sweep


def exhaustive_verdict(p: int) -> VerdictReport:
    """Sweep every admissible DifferentialChoice; report the minimum number
    of survivors in total degree 6 and a choice attaining it.

    The (d2, d3y) frames are enumerated outright and grouped into orbits
    of GL_2(F_p) x the fiber rescalings (see the module docstring); one
    frame per orbit is evaluated, the first in sweep order, and its choice
    count is weighted by the orbit size.  The per-frame count and minimum
    are invariant under the group, so the total and the minimum equal
    those of the full sweep, and the reported minimizer is the one the
    full sweep would report.  On the zero frame the d4 values are reduced
    by the same group.  Within a frame the remaining coordinates act on
    the four degree-6 spots through class-invariant quantities with
    separable couplings, so their loops factor exactly.
    On a 2-core Xeon the sweep takes about 0.07 s at p = 3, 0.6 s at
    p = 5 and 2.5 s at p = 7 (``stats`` has the split for each call).
    """
    if p not in SUPPORTED_PRIMES:
        raise ValueError(f"supported primes are {SUPPORTED_PRIMES}, got {p}")
    t0 = time.perf_counter()
    frame_orbits = _frame_orbits(p)
    d4x_orbits = _zero_frame_d4x_orbits(p)
    t1 = time.perf_counter()

    best: Optional[int] = None
    best_choice: Optional[DifferentialChoice] = None
    examined = 0
    for (a, v), size in frame_orbits:
        fr = _Frame(p, a, v)
        if is_zero(a) and is_zero(v):
            # page-4 classes of the zero frame are plain vectors of R_4
            cnt, mn, ch = _frame_minimum(fr, [((w, w), n) for w, n in d4x_orbits])
        else:
            cnt, mn, ch = _frame_minimum(fr)
        examined += size * cnt
        if best is None or mn < best:
            best, best_choice = mn, ch
    _gate(best is not None and best_choice is not None, "the sweep covered no frame")
    return VerdictReport(
        p=p,
        choices_examined=examined,
        min_deg6_survivors=best,
        minimizing_choice=best_choice,
        stats=SweepStats(
            frames=sum(n for _, n in frame_orbits),
            frame_orbits=len(frame_orbits),
            zero_frame_d4x_orbits=len(d4x_orbits),
            orbit_build_s=t1 - t0,
            frame_sweep_s=time.perf_counter() - t1,
        ),
    )


def _frames(p: int) -> list[Frame]:
    """Every (d2 coefficients, d3y) pair in sweep order."""
    return [(a, v) for a in product(range(p), repeat=3) for v in _compatible_d3y(p, a)]


def _frame_orbits(p: int) -> list[tuple[Frame, int]]:
    """(first frame, orbit size) per orbit of GL_2(F_p) x the rescalings."""

    def act(g, frame: Frame) -> Frame:
        return _combine(p, frame[0], g[0], 3), _combine(p, frame[1], g[1], 4)

    frames = _frames(p)
    orbits = _orbits(frames, _frame_generators(p), act)
    _gate(
        sum(n for _, n in orbits) == len(frames),
        "frame orbit sizes do not sum to the frame count",
    )
    return orbits


def _zero_frame_d4x_orbits(p: int) -> list[tuple[Vec, int]]:
    """(first d4 value, orbit size) per orbit of the same group on R_4,
    which is where d4 of the degree-3 generator lives on the zero frame."""

    def act(g, w: Vec) -> Vec:
        return _combine(p, w, g, len(w))

    values = list(span_vectors(_std_basis(4), p, base_dim(4)))
    orbits = _orbits(values, _d4x_generators(p), act)
    _gate(
        sum(n for _, n in orbits) == p ** base_dim(4),
        "zero-frame d4 orbit sizes do not sum to p^5",
    )
    return orbits


def _orbits(
    points: Sequence[Hashable],
    generators: Sequence,
    act: Callable,
) -> list[tuple[Hashable, int]]:
    """(representative, orbit size) for each orbit of the group generated by
    ``generators`` acting through ``act(generator, point)``.  The
    representative is the orbit's first point in ``points``; orbits come in
    first-seen order.  A finite group's orbit is the closure of a point
    under its generators, so no other group element is ever applied."""
    seen: set = set()
    out = []
    for x in points:
        if x in seen:
            continue
        seen.add(x)
        frontier = [x]
        size = 1
        while frontier:
            y = frontier.pop()
            for g in generators:
                z = act(g, y)
                if z not in seen:
                    seen.add(z)
                    frontier.append(z)
                    size += 1
        out.append((x, size))
    return out


@lru_cache(maxsize=None)
def _substitution(p: int, g: tuple[tuple[int, int], tuple[int, int]], k: int) -> tuple[Vec, ...]:
    """Images of the degree-k basis monomials under the ring automorphism
    s_i -> g[0][i] s1 + g[1][i] s2, t_i -> g[0][i] t1 + g[1][i] t2."""
    s = [(g[0][i] % p, g[1][i] % p) for i in range(2)]
    t = [(g[0][i] % p, g[1][i] % p, 0) for i in range(2)]
    images = []
    for e1, e2, a, b in monomials(k):
        acc, deg = (1,), 0
        for factor, fdeg in [(s[0], 1)] * e1 + [(s[1], 1)] * e2 + [(t[0], 2)] * a + [(t[1], 2)] * b:
            acc, deg = _mul_vec(p, acc, deg, factor, fdeg), deg + fdeg
        images.append(acc)
    return tuple(images)


def _scaling(p: int, c: int, k: int) -> tuple[Vec, ...]:
    return tuple(tuple(c * x % p for x in e) for e in _std_basis(k))


def _gl2_generators(p: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """diag(z, 1) for a primitive root z, an elementary matrix and the swap:
    together they generate GL_2(F_p)."""
    z = _primitive_root(p)
    return [((z, 0), (0, 1)), ((1, 1), (0, 1)), ((0, 1), (1, 0))]


def _primitive_root(p: int) -> int:
    return next(z for z in range(2, p) if len({pow(z, e, p) for e in range(1, p)}) == p - 1)


def _frame_generators(p: int) -> list[tuple[tuple[Vec, ...], tuple[Vec, ...]]]:
    """Generators of GL_2(F_p) x the two rescalings, each as its pair of
    linear maps on (R_2, R_3), the homes of d2 and d3y."""
    z = _primitive_root(p)
    gens = [(_substitution(p, g, 2), _substitution(p, g, 3)) for g in _gl2_generators(p)]
    return gens + [(_scaling(p, z, 2), _std_basis(3)), (_std_basis(2), _scaling(p, z, 3))]


def _d4x_generators(p: int) -> list[tuple[Vec, ...]]:
    """The same group on R_4, the home of d4 on the zero frame; both
    rescalings reach d4(x) only through one scalar."""
    z = _primitive_root(p)
    return [_substitution(p, g, 4) for g in _gl2_generators(p)] + [_scaling(p, z, 4)]


def _compatible_d3y(p: int, a: tuple[int, int, int]) -> Iterable[Vec]:
    u = a
    if is_zero(u):
        yield from span_vectors(_std_basis(3), p, 4)
        return
    sols = preimage_subspace(
        list(_std_basis(3)),
        [_mul_vec(p, e, 3, u, 2) for e in _std_basis(3)],
        Subspace(p, base_dim(5), ()),
        p,
    )
    yield from span_vectors(sols, p, 4)


def _page_values(p: int, reps: list[Vec], ambient: int) -> list[tuple[Vec, Vec]]:
    """(coordinates, representative) for every page class, zero first."""
    if not reps:
        return [((), zero_vec(ambient))]
    k = len(reps)
    unit = [tuple(1 if j == i else 0 for j in range(k)) for i in range(k)]
    return [
        (coords, _combine(p, coords, reps, ambient))
        for coords in span_vectors(unit, p, k)
    ]


def _frame_minimum(
    fr: _Frame, d4x_classes: Optional[Sequence[tuple[tuple[Vec, Vec], int]]] = None
) -> tuple[int, int, DifferentialChoice]:
    """(choices counted, min survivors at total degree 6, minimizing choice).

    ``d4x_classes`` lists ((page coordinates, vector), weight) for the d4
    values to evaluate, each counted weight times; by default every page
    class, once.  A caller passing orbit representatives of the frame's
    stabilizer, weighted by orbit size, gets the same result.
    """
    p = fr.p
    zero4 = zero_vec(base_dim(4))

    vR4 = fr.ideal_piece(fr.v, 3, 4) if not is_zero(fr.v) else fr.zero_sub(7)
    uR2 = fr.ideal_piece(fr.u, 2, 2) if not is_zero(fr.u) else fr.zero_sub(4)
    uR3 = fr.ideal_piece(fr.u, 2, 3) if not is_zero(fr.u) else fr.zero_sub(5)
    ker_u3_dim = len(fr.u_kernel(3))
    ker_v4 = (
        fr.restrict(_std_basis(4), 4, fr.v, 3, fr.zero_sub(7))
        if not is_zero(fr.v)
        else list(_std_basis(4))
    )
    dim_ker_v4 = len(ker_v4)
    r1 = list(_std_basis(1))

    def s33(w: Vec) -> int:
        if fr.x_alive:
            if is_zero(w):
                zdim = 4
            else:
                zdim = len(fr.restrict(_std_basis(3), 3, w, 4, vR4))
        else:
            zdim = ker_u3_dim
        return zdim - (0 if is_zero(fr.xi) else 1)

    def s15(omega: Vec, tau: Vec, w: Vec) -> int:
        if not is_zero(fr.xi):
            return len(fr.restrict(r1, 1, fr.xi, 3, fr.zero_sub(4)))
        basis = r1
        if not is_zero(omega):
            basis = fr.restrict(basis, 1, omega, 4, uR3)
        if basis and not is_zero(tau):
            target = vR4
            if fr.x_alive and not is_zero(w):
                target = target.join(fr.mul_all(w, 4, 3))
            basis = fr.restrict(basis, 1, tau, 6, target)
        return len(basis)

    if d4x_classes is None:
        w_reps = fr.page40_reps() if fr.x_alive else []
        d4x_classes = [(cw, 1) for cw in _page_values(p, w_reps, base_dim(4))]
    zero6 = zero_vec(base_dim(6))
    # with omega = tau = 0, s15 never reads w: one value per frame
    s15_zero = s15(zero4, zero6, zero4)
    examined = 0
    best: Optional[int] = None
    best_parts: Optional[tuple] = None  # (w coords, omega coords or None, tau coords or None)

    if not fr.xy_alive4:
        # xy died on page 3: only the d4x coordinates remain.  Rank-only
        # arithmetic here; this branch dominates the sweep.
        s42 = dim_ker_v4 - uR2.dim
        vR3 = fr.ideal_piece(fr.v, 3, 3)
        r2 = _std_basis(2)
        r3 = _std_basis(3)
        for (w_coords, w), weight in d4x_classes:
            examined += weight
            if is_zero(w):
                kills60 = vR3.dim
                s33_dim = 4
            else:
                kills60 = vR3.dim + rank(
                    [vR3.reduce(_mul_vec(p, b, 2, w, 4)) for b in r2], p
                )
                s33_dim = 4 - rank(
                    [vR4.reduce(_mul_vec(p, b, 3, w, 4)) for b in r3], p
                )
            total = (7 - kills60) + s42 + (s33_dim - 1) + s15_zero
            if best is None or total < best:
                best, best_parts = total, (w_coords, None, None)
    else:
        om_reps = fr.page42_reps()
        om_values = _page_values(p, om_reps, base_dim(4))
        om_nonzero = [
            (coords, om, dim_ker_v4 - uR2.join([om]).dim + s15(om, zero6, zero4))
            for coords, om in om_values
            if not is_zero(om)
        ]
        g_nonzero = min((t[2] for t in om_nonzero), default=None)
        if g_nonzero is not None:
            g_pick = min(t[0] for t in om_nonzero if t[2] == g_nonzero)
        s42_zero = dim_ker_v4 - uR2.dim  # omega = 0

        for (w_coords, w), weight in d4x_classes:
            b60 = fr.b60(w)
            fw = (7 - b60.dim) + s33(w)
            if g_nonzero is not None:
                examined += weight * len(om_nonzero)
                total = fw + g_nonzero
                if best is None or total < best:
                    best, best_parts = total, (w_coords, g_pick, None)
            tau_reps = _quotient_reps(_std_basis(6), b60)
            examined += weight * p ** len(tau_reps)
            t_min, t_coords = _tau_minimum(fr, w, tau_reps, s15) if tau_reps else (s15_zero, ())
            total = fw + s42_zero + t_min
            if best is None or total < best:
                best, best_parts = (
                    total,
                    (w_coords, zero_vec(len(om_reps)), t_coords),
                )

    _gate(best is not None and best_parts is not None, "the frame has no d4 value")
    w_coords, om_coords, tau_coords = best_parts
    choice = DifferentialChoice(
        a=fr.a,
        d3y=fr.v,
        d4x=w_coords if fr.x_alive else None,
        d4xy=om_coords if fr.xy_alive4 else None,
        d6xy=tau_coords,
    )
    return examined, best, choice


def _tau_minimum(fr: _Frame, w: Vec, tau_reps: list[Vec], s15) -> tuple[int, Vec]:
    """Exact min over the nonzero d6 classes of their share of the degree-6
    survivors, with page coordinates of a minimizer; ``tau_reps`` is not
    empty.

    A nonzero page class kills one class at spot (6,0), so its share is the
    dimension of the degree-(1,5) survivors minus 1.  That is below the
    share of d6 = 0, which kills nothing and leaves at least as many
    survivors, so this is the minimum over all classes.  Classes are
    enumerated one per line, by the position of the leading coordinate
    (which is 1) and then in counter order over the tail; the first minimum
    is kept, and a class leaving no survivor ends the search since nothing
    is lower.
    """
    p = fr.p
    zero4 = zero_vec(base_dim(4))
    k = len(tau_reps)
    best: Optional[int] = None
    best_coords: Optional[Vec] = None
    # {b in R_1 : b*(c*tau) in W} = {b : b*tau in W} for c != 0, so the
    # survivors depend only on the line of tau: one class per line suffices
    lines = (
        (0,) * lead + (1,) + tail
        for lead in range(k)
        for tail in product(range(p), repeat=k - 1 - lead)
    )
    for coords in lines:
        s = s15(zero4, _combine(p, coords, tau_reps, base_dim(6)), w)
        if best is None or s < best:
            best, best_coords = s, coords
            if s == 0:
                break
    return -1 + best, best_coords
