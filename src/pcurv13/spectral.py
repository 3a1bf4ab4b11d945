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
evaluates one frame per orbit and weights its count by the orbit size.
An orbit is the class of a complete invariant read off normal forms:
d3y is a 2x2 matrix whose symmetric part is a binary quadratic form,
classified by its rank and the square class of its discriminant, and
whose antisymmetric part scales with it (2p + 12 frame orbits, see
_frame_orbits).  The whole group fixes the zero frame (d2 = 0, d3y = 0),
so there it also moves d4(x) and d4(xy), both valued in R_4, without
changing their shares of the degree-6 survivors; its 10 orbits on R_4
(see _zero_frame_d4x_orbits) reduce both loops, d4(x) to one value per
orbit and d4(xy) to one line per nonzero orbit.

Lines.  The two rescalings scale d2 and d3y independently, so every
orbit is a union of products of lines, and the orbit walk takes one
point per product of lines, standing for p - 1 points per nonzero entry.
Inside a frame, what d4(x), d4(xy) and d6(xy) do to the degree-6 spots
depends only on their lines: ranks and kernels of multiplication by a
vector, and spans joined with it, do not change when the vector is
scaled by a nonzero c.  So the d4(x) loop takes zero and one point per
line, the one with leading coordinate 1, weighted p - 1, and the d4(xy)
and d6 minima run over one point per nonzero line.

Linear algebra is exact over GF(p); everything is deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .gates import _gate
from .gfp import (
    Subspace,
    _combine,
    _require_prime,
    is_zero,
    preimage_subspace,
    rank,
    zero_vec,
)

SUPPORTED_PRIMES = (3, 5, 7, 11, 13)
FIBER_ROWS = (0, 2, 3, 5)
WINDOW = 7  # report spots with m + n <= WINDOW

Mono = tuple[int, int, int, int]  # (e1, e2, a, b): s1^e1 s2^e2 t1^a t2^b
Vec = tuple[int, ...]
Frame = tuple[tuple[int, int, int], Vec]  # (d2 coefficients, d3y)


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


def _require_odd_prime(p: int) -> None:
    if p == 2:
        raise ValueError("the engine requires an odd prime")
    _require_prime(p)


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
    (coordinates over s1t1, s1t2, s2t1, s2t2); d3 on the degree-3
    generator has an empty target, so no field holds it.  The later
    vectors are coordinates over the current-page basis at the target
    spot and are admissible only while the corresponding generator is
    alive: ``d4x`` needs the degree-3 generator to survive d2, ``d4xy``
    the degree-5 generator alive at page 4, ``d6xy`` alive at page 6.
    ``None`` is the zero choice where one exists and "not applicable"
    where none does.
    """

    a: tuple[int, int, int]
    d3y: tuple[int, int, int, int] = (0, 0, 0, 0)
    d4x: Optional[tuple[int, ...]] = None
    d4xy: Optional[tuple[int, ...]] = None
    d6xy: Optional[tuple[int, ...]] = None


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


@dataclass(frozen=True)
class SweepStats:
    """What one exhaustive sweep evaluated and where its time went.

    ``frames`` is the number of (d2, d3y) frames, ``frame_orbits`` the
    number evaluated (one per orbit), ``zero_frame_d4x_orbits`` the number
    of orbits of the group on R_4 (out of p^5 points).  ``d4x_lines``,
    ``d4xy_lines`` and ``d6_lines`` count the values of d4(x), d4(xy) and
    d6(xy) evaluated over all evaluated frames: one per line (d4(x) = 0
    counted as one), except on the zero frame, where the same orbits
    reduce both d4 loops: d4(x) takes one value per orbit and d4(xy) one
    line per nonzero orbit.
    """

    frames: int
    frame_orbits: int
    zero_frame_d4x_orbits: int
    d4x_lines: int
    d4xy_lines: int
    d6_lines: int
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

    def mul_all(self, z: Vec, kz: int, m: int) -> list[Vec]:
        """Images of the standard basis of R_m under right multiplication;
        none when z = 0."""
        return _products(self.p, _std_basis(m), m, z, kz)

    def ideal_piece(self, z: Vec, kz: int, m: int) -> Subspace:
        """span(R_m * z) inside degree m + kz."""
        return _ideal_piece(self.p, z, kz, m)

    def u_kernel(self, m: int) -> list[Vec]:
        return _restrict(self.p, _std_basis(m), m, self.u, 2)

    # current-page bases interpreting the later choice coordinates
    def page40_reps(self) -> list[Vec]:
        return _quotient_reps(_std_basis(4), self.ideal_piece(self.v, 3, 1))

    def page42_reps(self) -> list[Vec]:
        Z = _restrict(self.p, _std_basis(4), 4, self.v, 3)
        return _quotient_reps(Z, self.ideal_piece(self.u, 2, 2))

    def page60_reps(self, w: Vec) -> list[Vec]:
        return _quotient_reps(_std_basis(6), self.b60(w))

    def b60(self, w: Vec) -> Subspace:
        """Boundaries at spot (6,0) accumulated before page 6 (w, the d4
        value of x, is 0 when x is dead)."""
        return Subspace(self.p, self.mul_all(self.v, 3, 3) + self.mul_all(w, 4, 2))


@lru_cache(maxsize=None)
def _ideal_piece(p: int, z: Vec, kz: int, m: int) -> Subspace:
    # kept across frames: the page engine builds a new frame per choice
    return Subspace(p, _products(p, _std_basis(m), m, z, kz))


def _products(p: int, basis: Iterable[Vec], m: int, z: Vec, kz: int) -> list[Vec]:
    """b * z for each b in ``basis`` (degree m); a zero multiplier spans
    nothing, so it gives no vectors."""
    if is_zero(z):
        return []
    return [_mul_vec(p, b, m, z, kz) for b in basis]


def _restrict(
    p: int, basis: Iterable[Vec], m: int, z: Vec, kz: int, target: Optional[Subspace] = None
) -> list[Vec]:
    """Basis of {b in span(basis) : b*z in target}, the kernel of
    multiplication by z when ``target`` is None.  A zero multiplier
    restricts nothing: the basis comes back unchanged."""
    basis = list(basis)
    if not basis or is_zero(z):
        return basis
    if target is None:
        target = Subspace(p)
    return preimage_subspace(basis, _products(p, basis, m, z, kz), target, p)


def _quotient_reps(cycle_basis: Iterable[Vec], bnd: Subspace) -> list[Vec]:
    reps = []
    cur = bnd
    for z in cycle_basis:
        if not cur.contains(z):
            reps.append(z)
            cur = cur.join([z])
    return reps


# ---------------------------------------------------------------------------
# single-choice page computation


class _Run:
    """Window state for one validated choice."""

    def __init__(self, p: int, choice: DifferentialChoice):
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
        fr, p = self.frame, self.p
        if m < 0:
            return []
        basis: list[Vec] = list(_std_basis(m))
        if page >= 4:
            basis = _restrict(p, basis, m, fr.xi, 3)
        if page >= 5:
            basis = _restrict(p, basis, m, self.omega, 4, fr.ideal_piece(fr.u, 2, m + 2))
        if page >= 7 and not is_zero(self.tau):  # d6 = 0 skips building the target
            basis = _restrict(p, basis, m, self.tau, 6, self.boundaries(m + 6, 0, 6))
        return basis

    def cycles(self, m: int, n: int, page: int) -> list[Vec]:
        fr, p = self.frame, self.p
        if n == 0:
            return list(_std_basis(m))
        if n == 2:
            if page >= 4:
                return _restrict(p, _std_basis(m), m, fr.v, 3)
            return list(_std_basis(m))
        if n == 3:
            basis = fr.u_kernel(m) if page >= 3 else list(_std_basis(m))
            if page >= 5:
                basis = _restrict(p, basis, m, self.w, 4, fr.ideal_piece(fr.v, 3, m + 1))
            return basis
        if n == 5:
            return self.row5_cycles(m, page)
        return []

    def boundaries(self, m: int, n: int, page: int) -> Subspace:
        # a zero w, omega or tau skips building the source basis it multiplies
        fr, p = self.frame, self.p
        vecs: list[Vec] = []
        if n == 0:
            if page >= 4 and m >= 3:
                vecs += fr.mul_all(fr.v, 3, m - 3)
            if page >= 5 and m >= 4 and not is_zero(self.w):
                vecs += _products(p, fr.u_kernel(m - 4), m - 4, self.w, 4)
            if page >= 7 and m >= 6 and not is_zero(self.tau):
                vecs += _products(p, self.row5_cycles(m - 6, page=6), m - 6, self.tau, 6)
        elif n == 2:
            if page >= 3 and m >= 2:
                vecs += fr.mul_all(fr.u, 2, m - 2)
            if page >= 5 and m >= 4 and not is_zero(self.omega):
                vecs += _products(p, self.row5_cycles(m - 4, page=4), m - 4, self.omega, 4)
        elif n == 3:
            if page >= 4 and m >= 3:
                vecs += fr.mul_all(fr.xi, 3, m - 3)
        return Subspace(p, vecs)

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

    The (d2, d3y) frames are grouped into orbits of GL_2(F_p) x the fiber
    rescalings, the classes of a complete invariant over one point per line
    (see the module docstring); one frame per orbit is evaluated, the first
    in sweep order, and its choice count is weighted by the orbit size.
    The per-frame count and minimum are invariant under the group, so the
    total and the minimum equal those of the full sweep, and the reported
    minimizer is the one the full sweep would report.  On the zero frame,
    which the group fixes, the orbits on R_4 reduce both d4 loops: d4(x)
    takes one value per orbit, weighted by its size, and d4(xy) one line
    per nonzero orbit, weighted by its number of lines.  Elsewhere the d4
    values are taken one per line, and the remaining coordinates act on the
    four degree-6 spots through class-invariant quantities with separable
    couplings, so their loops factor exactly.  ``stats`` reports what was
    evaluated and where the time went.
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
    lines = [0, 0, 0]
    for (a, v), size in frame_orbits:
        fr = _Frame(p, a, v)
        if is_zero(a) and is_zero(v):
            # the page-(4,0) classes and page-(4,2) coordinates of the zero
            # frame are plain vectors of R_4; d4(xy) takes the nonzero orbits
            cnt, mn, ch, evaluated = _frame_minimum(
                fr,
                [((w, w), n) for w, n in d4x_orbits],
                [(w, n // (p - 1)) for w, n in d4x_orbits if any(w)],
            )
        else:
            cnt, mn, ch, evaluated = _frame_minimum(fr)
        examined += size * cnt
        lines = [x + y for x, y in zip(lines, evaluated)]
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
            d4x_lines=lines[0],
            d4xy_lines=lines[1],
            d6_lines=lines[2],
            orbit_build_s=t1 - t0,
            frame_sweep_s=time.perf_counter() - t1,
        ),
    )


def _frame_orbits(p: int) -> list[tuple[Frame, int]]:
    """(first frame, number of frames) per orbit of GL_2(F_p) x the
    rescalings on (d2, d3y) frames.  The frames are walked in sweep order
    on one point per product of lines: d2 lexicographically, then d3y by its
    coordinates in the kernel basis of d2, so the first point of a class is
    its orbit's first frame.

    The key is a complete invariant.  With lambda = alpha/beta, the group
    sends the t-part (a1, a2) of d2 to lambda g (a1, a2), a3 to lambda
    det(g) a3, and d3y = sum m_ij s_i t_j, a 2x2 matrix M, to beta g M g^T.
    So the quadratic form q = m11 x^2 + (m12 + m21) xy + m22 y^2 of M goes
    to beta q(g^T x), its discriminant to (beta det g)^2 times itself, and
    skew = m12 - m21 to beta det(g) skew: q = 0, the rank of q, the square
    class of its discriminant, skew = 0 and skew^2 / disc are constant on
    orbits, as are a nonzero t-part and a3 != 0.  Each class is one orbit.
    The t-variables have no zero divisors, so a nonzero t-part forces
    d3y = 0, and the stabilizer of its line has every determinant: a3 zero
    or not, 2 orbits.  Otherwise lambda moves a3 alone.  A q of rank 0 or 1
    is 0 or x^2 after g and beta, and its stabilizer scales skew by every
    unit (diag(1, d) fixes x^2).  A q of rank 2 is fixed up to g by its
    discriminant's square class (Serre, A Course in Arithmetic, IV.1.7);
    its stabilizer has (beta det g)^2 = 1 and holds a reflection, so it
    moves skew to exactly +-skew: one orbit per value of skew^2 / disc.  So
    M has p + 5 orbits (zero, q = 0 with skew != 0, two of rank 1, two of
    rank 2 with skew = 0 and p - 1 with skew != 0), each with a3 zero or
    not: 2p + 12 in all."""
    points: list[Frame] = []
    frames = 0
    for a in [zero_vec(3), *_lines(p, 3)]:
        # the kernel basis is in reduced echelon form, so a d3y whose first
        # nonzero kernel coordinate is 1 has first nonzero entry 1 as well
        kernel = _restrict(p, _std_basis(3), 3, a, 2)
        frames += p ** len(kernel) * (p - 1 if any(a) else 1)
        points.append((a, zero_vec(4)))
        points += [(a, _combine(p, c, kernel, 4)) for c in _lines(p, len(kernel))]

    def key(a: Vec, v: Vec) -> tuple:
        m11, m12, m21, m22 = v
        b, skew = (m12 + m21) % p, (m12 - m21) % p
        disc = (b * b - 4 * m11 * m22) % p
        return (
            any(a[:2]), a[2] != 0, any((m11, b, m22)), skew != 0,
            pow(disc, (p - 1) // 2, p), skew * skew * pow(disc, p - 2, p) % p,
        )

    orbits = _invariant_classes(p, points, key)
    _gate(
        sum(n for _, n in orbits) == frames,
        "frame orbit sizes do not sum to the frame count",
    )
    return orbits


def _zero_frame_d4x_orbits(p: int) -> list[tuple[Vec, int]]:
    """(first d4 value, number of values) per orbit of the same group on
    R_4, which is where d4 of both the degree-3 and the degree-5 generator
    lives on the zero frame.  The rescalings reach R_4 as every nonzero
    scalar c, so the values are walked in lexicographic order on zero and
    one point per line.

    The key is a complete invariant.  A value is w = Q + s1s2 l, with Q a
    quadratic and l a linear form in t1, t2; it moves to c (Q, det(g) l)
    composed with g.  So Q = 0, the rank of Q, the square class of its
    discriminant, l = 0 and whether Q vanishes on ker l, i.e. Q(-l2, l1) =
    0, are constant on orbits.  Each class is one orbit.  With l = 0 this
    is the classification of binary forms (Serre, A Course in Arithmetic,
    IV.1.7): 4 orbits.  Otherwise g and c make l = y, and the triangular
    g that keep it scale x freely.  If Q(1, 0) != 0, completing the square
    gives Q = q x^2 + e y^2 with q free: rank 1 or a rank-2 class, 3
    orbits.  If Q(1, 0) = 0, Q = y (b x + e y) is 0, y^2 or xy after a
    shear: 3 orbits.  That is 10."""
    n = base_dim(4)

    def key(w: Vec) -> tuple:
        q11, q12, q22, l1, l2 = w
        return (
            any(w[:3]), pow(q12 * q12 - 4 * q11 * q22, (p - 1) // 2, p), any(w[3:]),
            (q11 * l2 * l2 - q12 * l1 * l2 + q22 * l1 * l1) % p == 0,
        )

    points = [(w,) for w in [zero_vec(n), *_lines(p, n)]]
    orbits = [(w, size) for (w,), size in _invariant_classes(p, points, key)]
    _gate(
        sum(size for _, size in orbits) == p**n,
        "zero-frame d4 orbit sizes do not sum to p^5",
    )
    return orbits


def _invariant_classes(
    p: int, points: Sequence[tuple[Vec, ...]], key: Callable[..., tuple]
) -> list[tuple[tuple[Vec, ...], int]]:
    """(first point, number of points it stands for) per value of
    ``key(*point)``, in first-seen order.  Each entry of a point is zero or
    has leading coordinate 1 and stands for its p - 1 nonzero multiples, so
    a point stands for (p - 1) ** (number of nonzero entries) points."""
    classes: dict[tuple, tuple[tuple[Vec, ...], int]] = {}
    for x in points:
        k = key(*x)
        first, size = classes.get(k, (x, 0))
        classes[k] = first, size + (p - 1) ** sum(map(any, x))
    return list(classes.values())


def _lines(p: int, k: int) -> Iterator[Vec]:
    """One point per line of F_p^k, the one whose leading nonzero coordinate
    is 1, in lexicographic order.  That point is also the first of its
    line in lexicographic order."""
    for lead in range(k - 1, -1, -1):
        for tail in product(range(p), repeat=k - 1 - lead):
            yield (0,) * lead + (1,) + tail


def _frame_minimum(
    fr: _Frame,
    d4x_classes: Optional[Sequence[tuple[tuple[Vec, Vec], int]]] = None,
    d4xy_lines: Optional[Sequence[tuple[Vec, int]]] = None,
) -> tuple[int, int, DifferentialChoice, tuple[int, int, int]]:
    """(choices counted, min survivors at total degree 6, minimizing choice,
    the d4(x), d4(xy) and d6 values evaluated).

    ``d4x_classes`` lists ((page coordinates, vector), weight) for the d4
    values to evaluate, each counted weight times; by default zero once and
    one class per line, weighted p - 1.  ``d4xy_lines`` lists (page
    coordinates, number of lines) for the nonzero d4(xy) values, each
    standing for that many lines of p - 1 values; by default one entry per
    line with weight 1.  The weights must sum to the number of lines
    (p^k - 1)/(p - 1), k the page dimension at (4,2), or a proof gate
    stops the call.  A caller passing orbit representatives of the frame's
    stabilizer, weighted by orbit size, gets the same result, provided
    each d4(xy) representative is the first line of its orbit in
    lexicographic order, since the pick among minimizing lines is the
    lexicographically least.

    Every quantity below depends on d4(x) = w and d4(xy) = omega only
    through their lines: ranks of w*R_m joined to a subspace, the page-6
    boundaries b60(w) (held as a reduced basis, so the d6 classes and their
    shares are those of c*w), the d6 target vR4 + w*R_3, and the kernels
    and spans that omega leaves.  So the loops take one point per line,
    leading coordinate 1, in lexicographic order: that point is the first
    of its line in the counter order of every class, so the first minimizer
    is the one a loop over every class finds.

    One loop runs over the d4 classes.  Each class w fixes the survivors at
    the spots (6,0) and (3,3), counted by rank alone.  If xy dies on page 3
    that is the class's only choice; otherwise the class adds the best
    nonzero d4 value of xy (independent of w) and, for d4(xy) = 0, the best
    d6 class over the page-6 quotient that w leaves at (6,0).
    """
    p = fr.p
    zero4 = zero_vec(base_dim(4))
    zero6 = zero_vec(base_dim(6))

    vR3 = fr.ideal_piece(fr.v, 3, 3)
    vR4 = fr.ideal_piece(fr.v, 3, 4)
    uR2 = fr.ideal_piece(fr.u, 2, 2)
    uR3 = fr.ideal_piece(fr.u, 2, 3)
    dim_ker_v4 = len(_restrict(p, _std_basis(4), 4, fr.v, 3))
    # (3,3): d2-cycles, less those w sends outside v*R_4, less the image of xi
    s33_top = len(fr.u_kernel(3)) - fr.ideal_piece(fr.xi, 3, 0).dim
    r1 = list(_std_basis(1))

    def join_rank(sub: Subspace, w: Vec, m: int) -> int:
        """dim(sub + w*R_m) - dim(sub), from the images reduced modulo sub."""
        return rank([sub.reduce(x) for x in _products(p, _std_basis(m), m, w, 4)], p)

    def s15(omega: Vec, tau: Vec, w: Vec) -> int:
        basis = _restrict(p, r1, 1, fr.xi, 3)
        basis = _restrict(p, basis, 1, omega, 4, uR3)
        if not is_zero(tau):
            basis = _restrict(p, basis, 1, tau, 6, vR4.join(fr.mul_all(w, 4, 3)))
        return len(basis)

    if d4x_classes is None:
        w_reps = fr.page40_reps() if fr.x_alive else []
        d4x_classes = [((zero_vec(len(w_reps)), zero4), 1)] + [
            ((c, _combine(p, c, w_reps, base_dim(4))), p - 1) for c in _lines(p, len(w_reps))
        ]
    # with omega = tau = 0, s15 never reads w: one value per frame
    s15_zero = s15(zero4, zero6, zero4)
    s42_zero = dim_ker_v4 - uR2.dim
    om_reps = fr.page42_reps() if fr.xy_alive4 else []
    if d4xy_lines is None:
        d4xy_lines = [(c, 1) for c in _lines(p, len(om_reps))]
    om_lines = sum(n for _, n in d4xy_lines)
    _gate(
        om_lines == (p ** len(om_reps) - 1) // (p - 1),
        "d4(xy) line weights do not sum to the number of lines",
    )
    om_shares: list[tuple[Vec, int]] = []
    for c, _ in d4xy_lines:
        om = _combine(p, c, om_reps, base_dim(4))
        om_shares.append((c, dim_ker_v4 - uR2.join([om]).dim + s15(om, zero6, zero4)))
    om_share = min((t[1] for t in om_shares), default=None)
    om_pick = min((t[0] for t in om_shares if t[1] == om_share), default=None)

    examined = 0
    d6_lines = 0
    best: Optional[int] = None
    best_parts: Optional[tuple] = None  # (w coords, omega coords or None, tau coords or None)
    for (w_coords, w), weight in d4x_classes:
        fixed = (7 - vR3.dim - join_rank(vR3, w, 2)) + (s33_top - join_rank(vR4, w, 3))
        if not fr.xy_alive4:
            options = [(1, s42_zero + s15_zero, (w_coords, None, None))]
        else:
            tau_reps = fr.page60_reps(w)
            t_share, t_coords, evaluated = (
                _tau_minimum(fr, w, tau_reps, s15) if tau_reps else (s15_zero, (), 0)
            )
            d6_lines += evaluated
            om_zero = zero_vec(len(om_reps))
            options = [
                ((p - 1) * om_lines, om_share, (w_coords, om_pick, None)),
                (p ** len(tau_reps), s42_zero + t_share, (w_coords, om_zero, t_coords)),
            ]
        for count, share, parts in options:
            if count:
                examined += weight * count
                if best is None or fixed + share < best:
                    best, best_parts = fixed + share, parts

    _gate(best is not None and best_parts is not None, "the frame has no d4 value")
    w_coords, om_coords, tau_coords = best_parts
    choice = DifferentialChoice(
        a=fr.a,
        d3y=fr.v,
        d4x=w_coords if fr.x_alive else None,
        d4xy=om_coords if fr.xy_alive4 else None,
        d6xy=tau_coords,
    )
    return examined, best, choice, (len(d4x_classes), len(d4xy_lines), d6_lines)


def _tau_minimum(fr: _Frame, w: Vec, tau_reps: list[Vec], s15) -> tuple[int, Vec, int]:
    """Exact min over the nonzero d6 classes of their share of the degree-6
    survivors, page coordinates of a minimizer, and the number of classes
    evaluated; ``tau_reps`` is not empty.

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
    evaluated = 0
    for coords in lines:
        s = s15(zero4, _combine(p, coords, tau_reps, base_dim(6)), w)
        evaluated += 1
        if best is None or s < best:
            best, best_coords = s, coords
            if s == 0:
                break
    return -1 + best, best_coords, evaluated
