import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from pcurv13 import gfp
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


# --- base dimensions ------------------------------------------------------


def test_bg_dims_paper_values():
    dims = ss.bg_dims(3, 7)
    assert dims[6] == 7 and dims[3] == 4 and dims[2] == 3 and dims[0] == 1
    assert dims[1] == 2


def test_bg_dims_generating_function():
    assert ss.bg_dims(5, 12) == poincare_series_oracle(12)


def test_bg_degree6_monomial_split():
    monos = ss.monomials(6)
    cubics = [m for m in monos if m[0] == 0 and m[1] == 0]
    s1s2 = [m for m in monos if m[0] == 1 and m[1] == 1]
    assert len(cubics) == 4 and len(s1s2) == 3


def test_bg_dims_requires_odd_prime():
    with pytest.raises(ValueError):
        ss.bg_dims(2, 5)
    with pytest.raises(ValueError):
        ss.bg_dims(9, 5)


# --- second page -----------------------------------------------------------


def test_e2_page_values():
    e2 = ss.e2_page(3)
    assert e2.dim(6, 0) == 7
    assert e2.dim(2, 2) == 3
    assert all(e2.dim(m, 1) == 0 for m in range(8))
    assert all(e2.dim(m, 4) == 0 for m in range(4))
    assert e2.dim(0, 5) == 1 and e2.dim(1, 3) == 2
    assert e2.total_degree(6) == 18


# --- single choices ----------------------------------------------------------


def test_zero_choice_keeps_everything():
    inf = ss.run_choice(3, ss.zero_choice(3))
    assert inf.dims == ss.e2_page(3).dims
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
    with pytest.raises(ValueError):
        ss.run_choice(3, ss.DifferentialChoice(a=(0, 0, 0), d3x=(1,)))


def _random_valid_choice(p, rng):
    while True:
        a = tuple(rng.randrange(p) for _ in range(3))
        try:
            frame = ss._Frame(p, a, (0, 0, 0, 0))
        except ValueError:
            continue
        vs = list(ss._compatible_d3y(p, a))
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
                    ss._combine(p, w, frame.page40_reps(), ss.base_dim(4))
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
        assert ss.e2_page(3).dim(6, 0) - inf.dim(6, 0) <= 8


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
        ss.exhaustive_verdict(11)


def test_verdict_report_shape():
    rep = ss.exhaustive_verdict(3)
    assert rep.choices_examined > 100_000
    assert rep.verdict == (rep.min_deg6_survivors >= 1)


def test_exhaustive_verdict_p7():
    rep = ss.exhaustive_verdict(7)
    assert rep.choices_examined == 675373861
    assert rep.verdict
    assert ss.run_choice(7, rep.minimizing_choice).total_degree(6) == rep.min_deg6_survivors


# --- symmetry reduction against the unreduced sweep -----------------------------


def unreduced_frames(p):
    """Every (d2, d3y) frame, in the sweep order of the nested loops."""
    return [
        ((a1, a2, a3), v)
        for a1 in range(p)
        for a2 in range(p)
        for a3 in range(p)
        for v in ss._compatible_d3y(p, (a1, a2, a3))
    ]


def unreduced_sweep(p):
    """Every frame through _frame_minimum, no symmetry used: the totals as
    (choices, min, minimizing choice) and (count, min) per frame."""
    per_frame = {}
    examined, best, best_choice = 0, None, None
    for a, v in unreduced_frames(p):
        cnt, mn, ch = ss._frame_minimum(ss._Frame(p, a, v))
        per_frame[(a, v)] = (cnt, mn)
        examined += cnt
        if best is None or mn < best:
            best, best_choice = mn, ch
    return (examined, best, best_choice), per_frame


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
        assert ss._substitution(p, g, 2)[s1s2] == tuple(det if i == s1s2 else 0 for i in range(3))
        for k1 in range(4):
            for k2 in range(4):
                for x in ss._std_basis(k1):
                    for y in ss._std_basis(k2):
                        lhs = apply_linear(p, ss._substitution(p, g, k1 + k2), ss._mul_vec(p, x, k1, y, k2))
                        rhs = ss._mul_vec(
                            p,
                            apply_linear(p, ss._substitution(p, g, k1), x), k1,
                            apply_linear(p, ss._substitution(p, g, k2), y), k2,
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
    closure = ss._orbits([identity], ss._gl2_generators(p), mul)
    assert closure == [(identity, order)]


def test_orbits_match_full_group_and_keep_frame_count_and_min_p3(unreduced_p3):
    p = 3
    frames = unreduced_frames(p)
    assert ss._frames(p) == frames

    def image_of(el, frame):
        g, lam, mu = el
        a, v = frame
        a2 = apply_linear(p, ss._substitution(p, g, 2), a)
        v2 = apply_linear(p, ss._substitution(p, g, 3), v)
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
        return tuple(lam * mu * x % p for x in apply_linear(p, ss._substitution(p, g, 4), w))

    orbits = ss._zero_frame_d4x_orbits(p)
    assert orbits == full_group_orbits(p, values, image_of)
    assert len(orbits) == 10
    zero = ss._Frame(p, (0, 0, 0), (0, 0, 0, 0))
    reduced = ss._frame_minimum(zero, [((w, w), n) for w, n in orbits])
    assert reduced == ss._frame_minimum(zero)


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


# --- the d6 minimum against every nonzero class -------------------------------------


@pytest.mark.parametrize("p", [3, 5])
def test_tau_minimum_matches_every_nonzero_class(p, monkeypatch):
    calls = []
    tau_minimum = ss._tau_minimum

    def spy(fr, w, tau_reps, s15):
        out = tau_minimum(fr, w, tau_reps, s15)
        calls.append((fr, w, tau_reps, s15, out))
        return out

    monkeypatch.setattr(ss, "_tau_minimum", spy)
    ss.exhaustive_verdict(p)
    assert calls
    zero4, zero6 = (0,) * ss.base_dim(4), (0,) * ss.base_dim(6)
    for fr, w, tau_reps, s15, (value, coords) in calls:
        assert tau_reps
        # the d6 = 0 baseline is one value per frame, whatever d4x is
        baseline = s15(zero4, zero6, w)
        assert baseline == s15(zero4, zero6, zero4)
        k = len(tau_reps)
        unit = [tuple(int(i == j) for j in range(k)) for i in range(k)]
        survivors = {
            c: s15(zero4, apply_linear(p, tau_reps, c), w)
            for c in gfp.span_vectors(unit, p, k)
            if any(c)
        }
        low = min(survivors.values())
        assert value == -1 + low < baseline
        assert survivors[coords] == low


def test_proof_gate_survives_optimize_flag():
    script = """
import sys
from pcurv13 import spectral as ss
print("optimize:", sys.flags.optimize)
orbits = ss._orbits
ss._orbits = lambda *args: orbits(*args)[:-1]  # lose the last orbit
try:
    ss.exhaustive_verdict(3)
except ss.ProofGateError as exc:
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
    assert "frame orbit sizes do not sum" in proc.stdout


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
        w = ss._combine(p, cw or (), fr.page40_reps(), ss.base_dim(4))
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
            cnt, mn, choice = ss._frame_minimum(fr, d4x_classes)
            assert page_engine_minimum(p, fr, d4x_values) == (cnt, mn), (a, v, d4x_values)
            assert ss.run_choice(p, choice).total_degree(6) == mn
            checked += cnt
    assert checked == {3: 13289, 5: 364787}[p]
