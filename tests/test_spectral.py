import os
import random
import subprocess
import sys
from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest

from pcurv13 import gates, gfp
from pcurv13 import spectral as ss


# --- oracles -----------------------------------------------------------


def poincare_series_oracle(max_deg):
    """Coefficients of (1+z)^2 / (1-z^2)^2 by truncated power series."""
    # 1/(1-z^2)^2 = sum (k+1) z^(2k)
    inv = [0] * (max_deg + 1)
    for k in range(0, max_deg // 2 + 1):
        inv[2 * k] = k + 1
    num = [1, 2, 1]
    out = [0] * (max_deg + 1)
    for i, c in enumerate(num):
        for j, d in enumerate(inv):
            if i + j <= max_deg:
                out[i + j] += c * d
    return tuple(out)


def bg_dims(max_deg):
    """dim H^k of the classifying space of (Z_p)^2, k = 0..max_deg."""
    return tuple(ss.base_dim(k) for k in range(max_deg + 1))


def e2_page():
    """The second page: the base tensored with the fiber dims (1,0,1,1,0,1)."""
    fiber_dims = (1, 0, 1, 1, 0, 1)
    dims = {}
    for n in ss.FIBER_ROWS:
        for m in range(ss.WINDOW - n + 1):
            d = ss.base_dim(m) * fiber_dims[n]
            if d:
                dims[(m, n)] = d
    return ss.BigradedPage(r=2, dims=dims)


def zero_choice():
    return ss.DifferentialChoice(a=(0, 0, 0))


# --- base dimensions ------------------------------------------------------


def test_bg_dims_paper_values():
    dims = bg_dims(7)
    assert dims[6] == 7 and dims[3] == 4 and dims[2] == 3 and dims[0] == 1
    assert dims[1] == 2


def test_bg_dims_generating_function():
    assert bg_dims(12) == poincare_series_oracle(12)


def test_bg_degree6_monomial_split():
    monos = ss.monomials(6)
    cubics = [m for m in monos if m[0] == 0 and m[1] == 0]
    s1s2 = [m for m in monos if m[0] == 1 and m[1] == 1]
    assert len(cubics) == 4 and len(s1s2) == 3


def test_bg_dims_requires_odd_prime():
    with pytest.raises(ValueError, match="odd prime"):
        ss.run_choice(2, zero_choice())
    with pytest.raises(ValueError, match="9 is not prime"):
        ss.run_choice(9, zero_choice())


# --- second page -----------------------------------------------------------


def test_e2_page_values():
    e2 = e2_page()
    assert e2.dim(6, 0) == 7
    assert e2.dim(2, 2) == 3
    assert all(e2.dim(m, 1) == 0 for m in range(8))
    assert all(e2.dim(m, 4) == 0 for m in range(4))
    assert e2.dim(0, 5) == 1 and e2.dim(1, 3) == 2
    assert e2.total_degree(6) == 18


def span_vectors(basis, p, n):
    """Every vector of the span of basis over GF(p), in the counter order of
    the coefficients (the last one fastest)."""
    if not basis:
        yield (0,) * n
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


# --- single choices ----------------------------------------------------------


def compatible_d3y(p, a):
    """Every d3y annihilating the d2 boundaries, in the counter order of its
    coordinates over the kernel basis of multiplication by a on R_3."""
    return span_vectors(ss._restrict(p, ss._std_basis(3), 3, a, 2), p, 4)


def test_zero_choice_keeps_everything():
    inf = ss.run_choice(3, zero_choice())
    assert inf.dims == e2_page().dims
    assert inf.total_degree(6) == 18


def test_d2_injective_case():
    pages = ss.run_choice_pages(3, ss.DifferentialChoice(a=(1, 0, 0)))
    e2, e3 = pages[0], pages[1]
    assert e2.dim(1, 3) == 2
    assert e3.dim(1, 3) == 0  # both classes die
    assert e3.dim(3, 2) == e2.dim(3, 2) - 2  # and kill two targets


def test_d3_kernel_case():
    # d2 = 0, d3(y) = s1t1: the square-zero relation leaves kernel
    pages = ss.run_choice_pages(3, ss.DifferentialChoice(a=(0, 0, 0), d3y=(1, 0, 0, 0)))
    e3, e4 = pages[1], pages[2]
    assert e3.dim(3, 2) == 4
    assert e4.dim(3, 2) >= 1
    # and the degree-5 generator dies through the Leibniz rule
    assert e3.dim(0, 5) == 1 and e4.dim(0, 5) == 0


def test_d3_normal_form_two_term():
    ch = ss.DifferentialChoice(a=(0, 0, 0), d3y=(1, 0, 0, 1))  # s1t1 + s2t2
    pages = ss.run_choice_pages(3, ch)
    assert pages[2].dim(3, 2) >= 1


def test_inconsistent_choices_rejected():
    with pytest.raises(ValueError):
        # d3y = t1-multiple of s1 does not annihilate u = t1
        ss.run_choice(3, ss.DifferentialChoice(a=(1, 0, 0), d3y=(0, 1, 0, 0)))
    with pytest.raises(ValueError):
        # d4x not available once d2 kills x
        ss.run_choice(3, ss.DifferentialChoice(a=(1, 0, 0), d4x=(1, 0, 0, 0, 0)))
    with pytest.raises(ValueError):
        # wrong length
        ss.run_choice(3, ss.DifferentialChoice(a=(0, 0, 0), d4x=(1, 0)))
    with pytest.raises(ValueError):
        # d6 after a nonzero d4 on the degree-5 generator
        ss.run_choice(
            3,
            ss.DifferentialChoice(
                a=(0, 0, 0),
                d4xy=(1, 0, 0, 0, 0),
                d6xy=(0,) * 7,
            ),
        )


def _random_valid_choice(p, rng):
    while True:
        a = tuple(rng.randrange(p) for _ in range(3))
        try:
            frame = ss._Frame(p, a, (0, 0, 0, 0))
        except ValueError:
            continue
        vs = list(compatible_d3y(p, a))
        v = vs[rng.randrange(len(vs))]
        frame = ss._Frame(p, a, v)
        kw = {}
        if frame.x_alive:
            reps = frame.page40_reps()
            kw["d4x"] = tuple(rng.randrange(p) for _ in reps)
        if frame.xy_alive4:
            reps = frame.page42_reps()
            om = tuple(rng.randrange(p) for _ in reps)
            kw["d4xy"] = om
            if all(c == 0 for c in om):
                w = kw.get("d4x")
                wvec = (
                    gfp._combine(p, w, frame.page40_reps(), ss.base_dim(4))
                    if w is not None
                    else (0,) * ss.base_dim(4)
                )
                treps = frame.page60_reps(wvec)
                kw["d6xy"] = tuple(rng.randrange(p) for _ in treps)
        return ss.DifferentialChoice(a=a, d3y=v, **kw)


def test_pages_never_increase():
    rng = random.Random(1729)
    for _ in range(25):
        choice = _random_valid_choice(3, rng)
        pages = ss.run_choice_pages(3, choice)
        for earlier, later in zip(pages, pages[1:]):
            for spot in set(earlier.dims) | set(later.dims):
                assert later.dim(*spot) <= earlier.dim(*spot), (choice, spot)


def test_rank_bookkeeping_for_pure_d2():
    # u = t1 multiplies injectively, so the d2 legs have rank = source dim.
    # In-window legs (m,3) -> (m+2,2) for m <= 3 remove twice their rank;
    # the m = 4 leg exits the window and removes only its source.
    pages = ss.run_choice_pages(3, ss.DifferentialChoice(a=(1, 0, 0)))
    total2 = sum(pages[0].dims.values())
    total3 = sum(pages[1].dims.values())
    in_window_ranks = [ss.base_dim(m) for m in range(4)]
    out_leg = ss.base_dim(4)
    assert total2 - total3 == 2 * sum(in_window_ranks) + out_leg


def test_degree6_kills_within_budget():
    # classes killed at spot (6,0) never exceed the source budget 4+3+1
    rng = random.Random(98)
    for _ in range(25):
        choice = _random_valid_choice(3, rng)
        inf = ss.run_choice(3, choice)
        assert e2_page().dim(6, 0) - inf.dim(6, 0) <= 8


def test_every_sampled_choice_keeps_a_degree6_class():
    rng = random.Random(5)
    for p in (3, 5):
        for _ in range(20):
            choice = _random_valid_choice(p, rng)
            assert ss.run_choice(p, choice).total_degree(6) >= 1


# --- the exhaustive sweep -----------------------------------------------------


def test_exhaustive_verdict_p3():
    rep = ss.exhaustive_verdict(3)
    assert rep.verdict
    assert rep.p == 3
    # value computed by both the factored sweep and the page engine
    assert rep.min_deg6_survivors == 4
    replay = ss.run_choice(3, rep.minimizing_choice)
    assert replay.total_degree(6) == rep.min_deg6_survivors


def test_exhaustive_minimum_not_beaten_by_samples():
    rep = ss.exhaustive_verdict(3)
    rng = random.Random(31337)
    for _ in range(60):
        choice = _random_valid_choice(3, rng)
        assert ss.run_choice(3, choice).total_degree(6) >= rep.min_deg6_survivors


def test_exhaustive_rejects_unsupported_primes():
    with pytest.raises(ValueError):
        ss.exhaustive_verdict(2)
    with pytest.raises(ValueError):
        ss.exhaustive_verdict(17)


def test_verdict_report_shape():
    rep = ss.exhaustive_verdict(3)
    assert rep.choices_examined > 100_000
    assert rep.verdict == (rep.min_deg6_survivors >= 1)


def test_exhaustive_verdict_p7():
    rep = ss.exhaustive_verdict(7)
    assert rep.choices_examined == 675373861
    assert rep.verdict
    assert ss.run_choice(7, rep.minimizing_choice).total_degree(6) == rep.min_deg6_survivors
    assert rep.stats.d4xy_lines == 82


@pytest.mark.parametrize(
    "p, frames, orbits, choices",
    [(11, 162371, 34, 58540760741), (13, 373477, 38, 305965503793)],
)
def test_exhaustive_verdict_p11_p13(p, frames, orbits, choices):
    rep = ss.exhaustive_verdict(p)
    assert (rep.choices_examined, rep.min_deg6_survivors) == (choices, 4)
    stats = rep.stats
    assert (stats.frames, stats.frame_orbits, stats.zero_frame_d4x_orbits) == (frames, orbits, 10)
    assert ss.run_choice(p, rep.minimizing_choice).total_degree(6) == 4


# --- symmetry reduction against the unreduced sweep -----------------------------


def unreduced_frames(p):
    """Every (d2, d3y) frame, in the sweep order of the nested loops."""
    return [
        ((a1, a2, a3), v)
        for a1 in range(p)
        for a2 in range(p)
        for a3 in range(p)
        for v in compatible_d3y(p, (a1, a2, a3))
    ]


def unreduced_sweep(p):
    """Every frame through _frame_minimum, no symmetry used: the totals as
    (choices, min, minimizing choice) and (count, min) per frame."""
    per_frame = {}
    examined, best, best_choice = 0, None, None
    for a, v in unreduced_frames(p):
        cnt, mn, ch, _ = ss._frame_minimum(ss._Frame(p, a, v))
        per_frame[(a, v)] = (cnt, mn)
        examined += cnt
        if best is None or mn < best:
            best, best_choice = mn, ch
    return (examined, best, best_choice), per_frame


def every_class_frame_minimum(fr):
    """(choices, min, minimizing choice) of one frame with no line reduction:
    the sweep's per-frame loop over every page class of d4(x), each of
    weight 1, and every nonzero d4(xy), classes in counter order."""
    p = fr.p
    zero4, zero6 = (0,) * ss.base_dim(4), (0,) * ss.base_dim(6)
    vR3, vR4 = fr.ideal_piece(fr.v, 3, 3), fr.ideal_piece(fr.v, 3, 4)
    uR2, uR3 = fr.ideal_piece(fr.u, 2, 2), fr.ideal_piece(fr.u, 2, 3)
    dim_ker_v4 = len(ss._restrict(p, ss._std_basis(4), 4, fr.v, 3))
    s33_top = len(fr.u_kernel(3)) - fr.ideal_piece(fr.xi, 3, 0).dim

    def join_rank(sub, w, m):
        return gfp.rank([sub.reduce(x) for x in ss._products(p, ss._std_basis(m), m, w, 4)], p)

    def s15(omega, tau, w):
        basis = ss._restrict(p, ss._std_basis(1), 1, fr.xi, 3)
        basis = ss._restrict(p, basis, 1, omega, 4, uR3)
        if any(tau):
            basis = ss._restrict(p, basis, 1, tau, 6, vR4.join(fr.mul_all(w, 4, 3)))
        return len(basis)

    def classes(reps):
        if not reps:
            return [((), zero4)]
        return [(c, apply_linear(p, reps, c)) for c in product(range(p), repeat=len(reps))]

    s42_zero = dim_ker_v4 - uR2.dim
    s15_zero = s15(zero4, zero6, zero4)
    if fr.xy_alive4:
        om_reps = fr.page42_reps()
        om_nonzero = [
            (c, dim_ker_v4 - uR2.join([om]).dim + s15(om, zero6, zero4))
            for c, om in classes(om_reps)
            if any(c)
        ]
        om_share = min((s for _, s in om_nonzero), default=None)
        om_pick = min((c for c, s in om_nonzero if s == om_share), default=None)
    examined, best, best_parts = 0, None, None
    for w_coords, w in classes(fr.page40_reps() if fr.x_alive else []):
        fixed = (7 - vR3.dim - join_rank(vR3, w, 2)) + (s33_top - join_rank(vR4, w, 3))
        if not fr.xy_alive4:
            options = [(1, s42_zero + s15_zero, (w_coords, None, None))]
        else:
            tau_reps = fr.page60_reps(w)
            t_share, t_coords = (
                ss._tau_minimum(fr, w, tau_reps, s15)[:2] if tau_reps else (s15_zero, ())
            )
            options = [
                (len(om_nonzero), om_share, (w_coords, om_pick, None)),
                (p ** len(tau_reps), s42_zero + t_share, (w_coords, (0,) * len(om_reps), t_coords)),
            ]
        for count, share, parts in options:
            if count:
                examined += count
                if best is None or fixed + share < best:
                    best, best_parts = fixed + share, parts
    w_coords, om_coords, tau_coords = best_parts
    choice = ss.DifferentialChoice(
        a=fr.a,
        d3y=fr.v,
        d4x=w_coords if fr.x_alive else None,
        d4xy=om_coords if fr.xy_alive4 else None,
        d6xy=tau_coords,
    )
    return examined, best, choice


@pytest.mark.parametrize("p", [3, 5])
def test_frame_minimum_matches_every_class_loop(p):
    """_frame_minimum against the loop over every d4(x) and d4(xy) class:
    every frame at p = 3, every frame orbit representative at p = 5."""
    frames = unreduced_frames(p) if p == 3 else [f for f, _ in ss._frame_orbits(p)]
    for a, v in frames:
        fr = ss._Frame(p, a, v)
        assert ss._frame_minimum(fr)[:3] == every_class_frame_minimum(fr), (a, v)
    assert len(frames) == {3: 267, 5: 22}[p]


# --- the closure build: the oracle of the invariant classes ----------------------


def closure_orbits(points, generators, act):
    """(representative, orbit size) for each orbit of the group generated by
    ``generators`` acting through ``act(generator, point)``.  The
    representative is the orbit's first point in ``points``; orbits come in
    first-seen order.  A finite group's orbit is the closure of a point
    under its generators, so no other group element is ever applied."""
    seen = set()
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
def substitution(p, g, k):
    """Images of the degree-k basis monomials under the ring automorphism
    s_i -> g[0][i] s1 + g[1][i] s2, t_i -> g[0][i] t1 + g[1][i] t2."""
    s = [(g[0][i] % p, g[1][i] % p) for i in range(2)]
    t = [(g[0][i] % p, g[1][i] % p, 0) for i in range(2)]
    images = []
    for e1, e2, a, b in ss.monomials(k):
        acc, deg = (1,), 0
        for factor, fdeg in [(s[0], 1)] * e1 + [(s[1], 1)] * e2 + [(t[0], 2)] * a + [(t[1], 2)] * b:
            acc, deg = ss._mul_vec(p, acc, deg, factor, fdeg), deg + fdeg
        images.append(acc)
    return tuple(images)


def gl2_generators(p):
    """diag(z, 1) for a primitive root z, an elementary matrix and the swap:
    together they generate GL_2(F_p)."""
    z = primitive_root(p)
    return [((z, 0), (0, 1)), ((1, 1), (0, 1)), ((0, 1), (1, 0))]


def primitive_root(p):
    return next(z for z in range(2, p) if len({pow(z, e, p) for e in range(1, p)}) == p - 1)


def normalized(p, x):
    """The point of x's line with leading nonzero coordinate 1; zero stays."""
    lead = next((c for c in x if c), 1)
    if lead == 1:
        return x
    inv = pow(lead, p - 2, p)
    return tuple(c * inv % p for c in x)


def line_orbits(p, points, degrees):
    """(first point, number of points it stands for) per orbit of GL_2(F_p)
    x the rescalings on tuples whose i-th entry lies in R_degrees[i].  Each
    entry is zero or has leading coordinate 1, which the rescalings fix, so
    only GL_2's generators act, each followed by normalization, and each
    nonzero entry stands for its p - 1 multiples."""
    gens = [[(substitution(p, g, k), ss.base_dim(k)) for k in degrees] for g in gl2_generators(p)]

    def act(g, point):
        return tuple([normalized(p, gfp._combine(p, x, images, n)) for x, (images, n) in zip(point, g)])

    return [(x, size * (p - 1) ** sum(map(any, x))) for x, size in closure_orbits(points, gens, act)]


def closure_frame_orbits(p):
    """line_orbits over the points _frame_orbits walks: zero and one point
    per line of d2, each with zero and one d3y per line of its kernel."""
    points = []
    for a in [(0, 0, 0), *ss._lines(p, 3)]:
        kernel = ss._restrict(p, ss._std_basis(3), 3, a, 2)
        points.append((a, (0, 0, 0, 0)))
        points += [(a, gfp._combine(p, c, kernel, 4)) for c in ss._lines(p, len(kernel))]
    return line_orbits(p, points, (2, 3))


def closure_d4x_orbits(p):
    """line_orbits over zero and one point per line of R_4."""
    points = [(w,) for w in [(0,) * 5, *ss._lines(p, 5)]]
    return [(w, size) for (w,), size in line_orbits(p, points, (4,))]


@pytest.mark.parametrize("p", ss.SUPPORTED_PRIMES)
def test_invariant_classes_match_the_closure_build(p):
    """Both orbit builds against the closure of the same points under GL_2's
    generators: same representatives, same sizes, same order."""
    assert ss._frame_orbits(p) == closure_frame_orbits(p)
    assert ss._zero_frame_d4x_orbits(p) == closure_d4x_orbits(p)


@pytest.mark.parametrize(
    "p, frames", [(3, 267), (5, 3245), (7, 17143), (11, 162371), (13, 373477)]
)
def test_orbit_counts_at_every_supported_prime(p, frames):
    """2p + 12 frame orbits covering every frame, and 10 zero-frame d4
    orbits covering p^5 values, without running a sweep."""
    frame_orbits = ss._frame_orbits(p)
    assert (len(frame_orbits), sum(n for _, n in frame_orbits)) == (2 * p + 12, frames)
    d4x_orbits = ss._zero_frame_d4x_orbits(p)
    assert (len(d4x_orbits), sum(n for _, n in d4x_orbits)) == (10, p**5)


def full_frame_generators(p):
    """GL_2(F_p) and both rescalings on (R_2, R_3), scalars included."""
    z = primitive_root(p)

    def scaling(k):
        return tuple(tuple(z * x % p for x in e) for e in ss._std_basis(k))

    subs = [(substitution(p, g, 2), substitution(p, g, 3)) for g in gl2_generators(p)]
    return subs + [(scaling(2), ss._std_basis(3)), (ss._std_basis(2), scaling(3))]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_orbit_builds_match_orbits_of_every_point(p):
    """The sweep's orbit builds against closure_orbits over every frame and
    every zero-frame d4 value, under generators that include the scalars:
    same representatives, same sizes, same order."""
    gens = full_frame_generators(p)

    def act_frame(g, frame):
        return apply_linear(p, g[0], frame[0]), apply_linear(p, g[1], frame[1])

    frames = unreduced_frames(p)
    assert ss._frame_orbits(p) == closure_orbits(frames, gens, act_frame)

    def act_d4(g, w):
        return apply_linear(p, g, w)

    d4_gens = [substitution(p, g, 4) for g in gl2_generators(p)]
    d4_gens.append(tuple(tuple(x * primitive_root(p) % p for x in e) for e in ss._std_basis(4)))
    values = list(product(range(p), repeat=5))
    assert ss._zero_frame_d4x_orbits(p) == closure_orbits(values, d4_gens, act_d4)


def gl2(p):
    return [((a, b), (c, d)) for a, b, c, d in product(range(p), repeat=4) if (a * d - b * c) % p]


def group_elements(p):
    """Every (g, lam, mu): g in GL_2(F_p), lam and mu the rescalings."""
    units = range(1, p)
    return [(g, lam, mu) for g in gl2(p) for lam in units for mu in units]


def apply_linear(p, images, vec):
    out = [0] * len(images[0])
    for c, img in zip(vec, images):
        for i, x in enumerate(img):
            out[i] = (out[i] + c * x) % p
    return tuple(out)


def full_group_orbits(p, points, image_of):
    """(first point, size) per orbit, applying every group element."""
    seen, out = set(), []
    for x in points:
        if x not in seen:
            orbit = {image_of(el, x) for el in group_elements(p)}
            seen |= orbit
            out.append((x, len(orbit)))
    return out


@pytest.fixture(scope="module")
def unreduced_p3():
    return unreduced_sweep(3)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_substitution_is_a_ring_automorphism(p):
    s1s2 = ss._mono_index(2)[(1, 1, 0, 0)]
    for g in random.Random(p).sample(gl2(p), 5):
        det = (g[0][0] * g[1][1] - g[0][1] * g[1][0]) % p
        assert substitution(p, g, 2)[s1s2] == tuple(det if i == s1s2 else 0 for i in range(3))
        for k1 in range(4):
            for k2 in range(4):
                for x in ss._std_basis(k1):
                    for y in ss._std_basis(k2):
                        lhs = apply_linear(p, substitution(p, g, k1 + k2), ss._mul_vec(p, x, k1, y, k2))
                        rhs = ss._mul_vec(
                            p,
                            apply_linear(p, substitution(p, g, k1), x), k1,
                            apply_linear(p, substitution(p, g, k2), y), k2,
                        )
                        assert lhs == rhs


@pytest.mark.parametrize("p, order", [(3, 48), (5, 480), (7, 2016)])
def test_gl2_generators_generate_gl2(p, order):
    def mul(g, h):
        return tuple(
            tuple(sum(g[i][k] * h[k][j] for k in range(2)) % p for j in range(2))
            for i in range(2)
        )

    identity = ((1, 0), (0, 1))
    closure = closure_orbits([identity], gl2_generators(p), mul)
    assert closure == [(identity, order)]


def test_orbits_match_full_group_and_keep_frame_count_and_min_p3(unreduced_p3):
    p = 3
    frames = unreduced_frames(p)

    def image_of(el, frame):
        g, lam, mu = el
        a, v = frame
        a2 = apply_linear(p, substitution(p, g, 2), a)
        v2 = apply_linear(p, substitution(p, g, 3), v)
        return tuple(lam * x % p for x in a2), tuple(mu * x % p for x in v2)

    orbits = ss._frame_orbits(p)
    assert orbits == full_group_orbits(p, frames, image_of)
    assert len(orbits) == 18 and sum(n for _, n in orbits) == len(frames) == 267
    # frame by frame: every member has its representative's count and minimum
    _, per_frame = unreduced_p3
    for rep, _ in orbits:
        members = {image_of(el, rep) for el in group_elements(p)}
        assert members <= set(frames)
        assert {per_frame[f] for f in members} == {per_frame[rep]}


def test_zero_frame_d4x_orbits_match_full_group_p3():
    p = 3
    values = list(product(range(p), repeat=5))

    def image_of(el, w):
        g, lam, mu = el
        return tuple(lam * mu * x % p for x in apply_linear(p, substitution(p, g, 4), w))

    orbits = ss._zero_frame_d4x_orbits(p)
    assert orbits == full_group_orbits(p, values, image_of)
    assert len(orbits) == 10
    zero = ss._Frame(p, (0, 0, 0), (0, 0, 0, 0))
    reduced = ss._frame_minimum(zero, [((w, w), n) for w, n in orbits])
    assert reduced[:3] == ss._frame_minimum(zero)[:3]


def test_reduced_verdict_matches_unreduced_p3(unreduced_p3):
    rep = ss.exhaustive_verdict(3)
    totals, _ = unreduced_p3
    assert (rep.choices_examined, rep.min_deg6_survivors, rep.minimizing_choice) == totals
    assert rep.stats.frames == 267 and rep.stats.frame_orbits == 18


def test_reduced_verdict_matches_unreduced_p5():
    rep = ss.exhaustive_verdict(5)
    totals, _ = unreduced_sweep(5)
    assert (rep.choices_examined, rep.min_deg6_survivors, rep.minimizing_choice) == totals
    assert totals[0] == 24694001
    assert rep.stats.frames == 3245 and rep.stats.frame_orbits == 22
    assert rep.stats.d4xy_lines == 52


def zero_frame_arguments(p):
    """The arguments exhaustive_verdict passes _frame_minimum for the zero
    frame: the frame, its d4(x) classes and its d4(xy) lines."""
    calls = []
    frame_minimum = ss._frame_minimum

    def spy(fr, *args):
        if not any(fr.a) and not any(fr.v):
            calls.append((fr, *args))
        return frame_minimum(fr, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ss, "_frame_minimum", spy)
        ss.exhaustive_verdict(p)
    (call,) = calls
    return call


@pytest.mark.parametrize("p", [3, 5, 7])
def test_zero_frame_d4xy_orbits_match_every_line(p):
    """The zero frame's d4(xy) loop over the nonzero d4 orbit representatives,
    each weighted by its number of lines, gives the count, minimum and
    minimizing choice of the loop over every line."""
    fr, d4x_classes, d4xy_lines = zero_frame_arguments(p)
    assert len(d4xy_lines) == 9
    assert sum(n for _, n in d4xy_lines) == (p**5 - 1) // (p - 1)
    reduced = ss._frame_minimum(fr, d4x_classes, d4xy_lines)
    assert reduced[3][1] == 9
    assert reduced[:3] == ss._frame_minimum(fr, d4x_classes)[:3]


@pytest.mark.parametrize("p", [3, 5])
def test_d4xy_line_weights_are_gated(p):
    """A d4(xy) line list whose weights miss the number of lines, short,
    padded or counting points, stops _frame_minimum."""
    fr, d4x_classes, d4xy_lines = zero_frame_arguments(p)
    bad_lists = [
        d4xy_lines[:-1],
        d4xy_lines + d4xy_lines[-1:],
        [(c, n * (p - 1)) for c, n in d4xy_lines],
    ]
    for bad in bad_lists:
        with pytest.raises(gates.ProofGateError, match="d4\\(xy\\) line weights"):
            ss._frame_minimum(fr, d4x_classes, bad)
    # xy dies on page 3 here, so the frame has no d4(xy) line to weight
    dead = ss._Frame(p, (0, 0, 0), (1, 0, 0, 0))
    assert not dead.xy_alive4
    with pytest.raises(gates.ProofGateError, match="d4\\(xy\\) line weights"):
        ss._frame_minimum(dead, None, [((), 1)])


# --- the d6 minimum against every nonzero class -------------------------------------


def tau_minimum_calls(p, monkeypatch):
    """(frame, w, tau_reps, s15, result) for every _tau_minimum call of the
    sweep at p."""
    calls = []
    tau_minimum = ss._tau_minimum

    def spy(fr, w, tau_reps, s15):
        out = tau_minimum(fr, w, tau_reps, s15)
        calls.append((fr, w, tau_reps, s15, out))
        return out

    monkeypatch.setattr(ss, "_tau_minimum", spy)
    ss.exhaustive_verdict(p)
    assert calls
    return calls


@pytest.mark.parametrize("p", [3, 5])
def test_tau_minimum_matches_every_nonzero_class(p, monkeypatch):
    zero4, zero6 = (0,) * ss.base_dim(4), (0,) * ss.base_dim(6)
    for fr, w, tau_reps, s15, (value, coords, _) in tau_minimum_calls(p, monkeypatch):
        assert tau_reps
        # the d6 = 0 baseline is one value per frame, whatever d4x is
        baseline = s15(zero4, zero6, w)
        assert baseline == s15(zero4, zero6, zero4)
        k = len(tau_reps)
        unit = [tuple(int(i == j) for j in range(k)) for i in range(k)]
        survivors = {
            c: s15(zero4, apply_linear(p, tau_reps, c), w)
            for c in span_vectors(unit, p, k)
            if any(c)
        }
        low = min(survivors.values())
        assert value == -1 + low < baseline
        assert survivors[coords] == low


@pytest.mark.parametrize("p", [3, pytest.param(5, marks=pytest.mark.slow)])
def test_tau_classes_match_page_engine_row5(p, monkeypatch):
    """Each d6 class _tau_minimum enumerates (one per line, leading
    coordinate 1), made a full choice and run through the page engine: its
    degree-(1,5) survivors are the factored s15.  No differential lands in
    row 5 after d6, so this is run_choice's (1,5) dimension."""
    zero4 = (0,) * ss.base_dim(4)
    checked = 0
    for fr, w, tau_reps, s15, _ in tau_minimum_calls(p, monkeypatch):
        d4x = None
        if fr.x_alive:
            reps = fr.page40_reps()
            d4x = next(
                c for c in product(range(p), repeat=len(reps))
                if gfp._combine(p, c, reps, ss.base_dim(4)) == w
            )
        d4xy = (0,) * len(fr.page42_reps())
        k = len(tau_reps)
        for lead in range(k):
            for tail in product(range(p), repeat=k - 1 - lead):
                coords = (0,) * lead + (1,) + tail
                choice = ss.DifferentialChoice(a=fr.a, d3y=fr.v, d4x=d4x, d4xy=d4xy, d6xy=coords)
                tau = apply_linear(p, tau_reps, coords)
                assert len(ss._Run(p, choice).row5_cycles(1, 7)) == s15(zero4, tau, w), (
                    fr.a, fr.v, w, coords,
                )
                checked += 1
    assert checked == {3: 5255, 5: 82807}[p]


def run_optimized(body):
    """Standard output of ``body`` run under ``python -O``; the script exits 0
    only if ``body`` raises ProofGateError."""
    script = f"""
import sys
from pcurv13 import gates, spectral as ss
print("optimize:", sys.flags.optimize)
try:
{body}
except gates.ProofGateError as exc:
    print("gate:", exc)
    sys.exit(0)
sys.exit(1)
"""
    src = Path(ss.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "optimize: 1" in proc.stdout
    return proc.stdout


def test_proof_gate_survives_optimize_flag():
    body = """
    walk = ss._invariant_classes
    ss._invariant_classes = lambda *args: walk(*args)[:-1]  # lose the last orbit
    ss.exhaustive_verdict(3)
"""
    assert "frame orbit sizes do not sum" in run_optimized(body)


def test_d4xy_line_gate_survives_optimize_flag():
    body = """
    zero = ss._Frame(3, (0, 0, 0), (0, 0, 0, 0))
    ss._frame_minimum(zero, None, [((0, 0, 0, 0, 1), 1)])  # one line of 121
"""
    assert "d4(xy) line weights do not sum" in run_optimized(body)


# --- the factored sweep against the page engine, choice by choice ---------------


def page_engine_choices(p, fr, d4x_values):
    """Every admissible DifferentialChoice over the frame whose d4x page
    coordinates lie in ``d4x_values`` (None when x is dead)."""
    om_dim = len(fr.page42_reps()) if fr.xy_alive4 else 0
    for cw in d4x_values:
        base = dict(a=fr.a, d3y=fr.v, d4x=cw)
        if not fr.xy_alive4:
            yield ss.DifferentialChoice(**base)
            continue
        w = gfp._combine(p, cw or (), fr.page40_reps(), ss.base_dim(4))
        tau_dim = len(fr.page60_reps(w))
        for com in product(range(p), repeat=om_dim):
            if any(com):
                yield ss.DifferentialChoice(**base, d4xy=com)
            else:
                for ct in product(range(p), repeat=tau_dim):
                    yield ss.DifferentialChoice(**base, d4xy=com, d6xy=ct)


def page_engine_minimum(p, fr, d4x_values):
    """(choices, min survivors at total degree 6) with every choice pushed
    through run_choice, the independent page engine."""
    totals = [ss.run_choice(p, ch).total_degree(6) for ch in page_engine_choices(p, fr, d4x_values)]
    return len(totals), min(totals)


@pytest.mark.parametrize("p", [3, pytest.param(5, marks=pytest.mark.slow)])
def test_frame_minimum_matches_page_engine(p):
    """Frame by frame over the orbit representatives (the zero frame once per
    d4 orbit representative), the factored _frame_minimum against every
    admissible choice run through the page engine."""
    checked = 0
    for (a, v), _ in ss._frame_orbits(p):
        fr = ss._Frame(p, a, v)
        if not any(a) and not any(v):
            cases = [([w], [((w, w), 1)]) for w, _ in ss._zero_frame_d4x_orbits(p)]
        elif fr.x_alive:
            cases = [(list(product(range(p), repeat=len(fr.page40_reps()))), None)]
        else:
            cases = [([None], None)]
        for d4x_values, d4x_classes in cases:
            cnt, mn, choice, _ = ss._frame_minimum(fr, d4x_classes)
            assert page_engine_minimum(p, fr, d4x_values) == (cnt, mn), (a, v, d4x_values)
            assert ss.run_choice(p, choice).total_degree(6) == mn
            checked += cnt
    assert checked == {3: 13289, 5: 364787}[p]
