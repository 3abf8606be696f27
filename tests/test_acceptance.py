"""Acceptance suite: one test per criterion, exact tolerances, timed.

Run with `pytest -s tests/test_acceptance.py` to see one PASS line per
criterion."""

from __future__ import annotations

import random
import time
from fractions import Fraction

from h4approx.exact_field import ONE, SQRT2, QRt2, Surd, ZRt2
from h4approx.hecke_group import (
    DIGIT_MATRICES,
    H4Fraction,
    Mat2,
    canonicalize_pair,
    denominator_ladder,
    membership,
    numerators_near,
)
from h4approx.h4_expansion import Expansion, detect_period
from h4approx.rosen_cf import dual_rosen_digits, rosen_digits, select_M, select_N
from h4approx.best_approx import best_approximations, oracle_best_approximations
from h4approx.uniform_approx import (
    HALF,
    UPPER,
    k_exact,
    k_numeric,
    optimality_check,
    uniform_sequence,
)
from h4approx.cli import make_corpus

SURD17 = Surd(ZRt2(3, 0), ONE, ZRt2(17, 0), ZRt2(0, 2))
SQRT2_PLUS_1 = ZRt2(1, 1)

_corpus_cache: list[Surd] | None = None


def corpus() -> list[Surd]:
    global _corpus_cache
    if _corpus_cache is None:
        _corpus_cache = make_corpus(seed=1, size=100, coeff_bound=5)
    return _corpus_cache


def report(num: int, label: str, t0: float, limit: float) -> None:
    elapsed = time.perf_counter() - t0
    print(f"PASS criterion {num} ({label}): {elapsed:.2f}s (limit {limit:.0f}s)")
    assert elapsed < limit, f"criterion {num} exceeded its time budget"


def test_criterion_1_worked_example():
    t0 = time.perf_counter()
    stream = detect_period(SURD17)
    assert stream.preperiod == () and stream.period == (3, 2, 3, 1, 2, 1)
    exp = Expansion(SURD17)
    expected = {
        2: Mat2.of(ZRt2(0, 2), 3, 1, SQRT2),
        3: Mat2.of(ZRt2(0, 2), 7, 1, ZRt2(0, 2)),
        4: Mat2.of(ZRt2(0, 9), 7, 5, ZRt2(0, 2)),
        # det G_5 = 1 and G_6 = G_5·A1 force the lower-left entry 7√2.
        5: Mat2.of(25, ZRt2(0, 16), ZRt2(0, 7), 9),
        6: Mat2.of(57, ZRt2(0, 16), ZRt2(0, 16), 9),
    }
    for n, mat in expected.items():
        assert exp.matrix(n) == mat
    best = best_approximations(SURD17, max_count=4)
    assert [str(b.frac) for b in best] == ["2√2/1", "7/2√2", "16√2/9", "57/16√2"]
    report(1, "worked quadratic example", t0, 1.0)


def test_criterion_2_uniform_constant_at_one():
    t0 = time.perf_counter()
    res = k_exact(Surd.of(1))
    assert res.value is not None
    assert res.value == Surd.from_ratio(SQRT2_PLUS_1, ZRt2(2, 0))
    num = k_numeric(Surd.of(1), records=1000, window=200)
    assert abs(res.value.to_float() - num.estimate) < 1e-9
    report(2, "exact K at 1 + numeric limsup", t0, 5.0)


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    for alpha in corpus():
        fast = [b.frac for b in best_approximations(alpha, max_q=200)]
        slow = oracle_best_approximations(alpha, 200)
        assert fast == slow, f"mismatch for {alpha}"
    report(3, "enumerator == definitional oracle, q<=200, 100 surds", t0, 120.0)


def test_criterion_4_dirichlet_sweep():
    t0 = time.perf_counter()
    for alpha in corpus():
        best = best_approximations(alpha, max_q=500)
        idx = 0
        for n in range(1, 501):
            while idx + 1 < len(best) and best[idx + 1].q.cmp(n) <= 0:
                idx += 1
            b = best[idx]
            assert b.q.cmp(n) <= 0 and b.err is not None
            # |qα − p|·N < (√2+1)/2, exactly.
            assert (b.err * ZRt2(2 * n, 0)).cmp(SQRT2_PLUS_1) < 0
    report(4, "uniform theorem witnesses, N in 1..500, 100 surds", t0, 120.0)


def test_criterion_5_legendre_constants():
    t0 = time.perf_counter()
    for alpha in corpus():
        best = best_approximations(alpha, max_q=100)
        members = {b.frac for b in best}
        # Sufficiency: every canonical fraction within 1/(2q²) is a member.
        for q in denominator_ladder(100):
            for p in numerators_near(alpha, q):
                frac = canonicalize_pair(p, q)
                assert frac.q == q
                delta = abs(alpha - frac.value())
                if (delta * frac.q_squared() * 2).cmp(1) < 0:
                    assert frac in members, f"{frac} missing for {alpha}"
        # Necessity: every member is within 1/q².
        for b in best:
            delta = abs(alpha - b.frac.value())
            assert (delta * b.frac.q_squared()).cmp(1) < 0
    report(5, "1/(2q²) sufficient and 1/q² necessary, q<=100, 100 surds", t0, 120.0)


def _shared_witness(exp: Expansion, frac: H4Fraction, n1: int, n2: int) -> bool:
    """Whether a single index n of the range has M_n·∞ = N_n·∞ = frac."""
    for n in range(n1, n2 + 1):
        m, nn = select_M(exp, n), select_N(exp, n)
        if canonicalize_pair(m.t, m.u) == frac == canonicalize_pair(nn.t, nn.u):
            return True
    return False


def test_criterion_6_three_tier_bounds():
    """Three tiers of exact bounds on |α − p/q|·q², by family membership
    (the flags is_rosen and is_dual):

    - in exactly one family: 1/(√2+1) < |α − p/q|·q² < 1
    - in both families: |α − p/q|·q² < 1/√2
    - the literal 'both families ⇒ |α − p/q|·q² < 1/2' fails only where the
      two memberships are witnessed at different indices (no single n of
      the fraction's range with M_n·∞ = N_n·∞ = p/q).

    Two counterexamples to the literal 1/2 bound are pinned through the
    Gauss maps, independently of the selector flags: 9/(13√2) at
    α ≈ 0.48772 (corpus[0]), the index-3 convergent of both expansions and
    a best approximation with |α − p/q|·q² ≈ 0.614; and 0/1 for α in
    (1/2, 1/√2), which is r₀ = r̃₀ with |α − p/q|·q² = α.  The following
    test refines the both-family tier by witness index."""
    t0 = time.perf_counter()
    zero = canonicalize_pair(ZRt2(0, 0), ONE)
    pinned = canonicalize_pair(ZRt2(9, 0), ZRt2(0, 13))
    expected_split = {(0, pinned)}
    alpha = corpus()[0]
    assert rosen_digits(alpha, 4).convergents()[3].frac == pinned
    assert dual_rosen_digits(alpha, 4).convergents()[3].frac == pinned
    assert pinned in oracle_best_approximations(alpha, 20)
    gap = abs(alpha - pinned.value()) * pinned.q_squared()
    assert (gap * 2).cmp(1) > 0 and (gap * SQRT2).cmp(1) < 0
    for idx, alpha in enumerate(corpus()):
        if (alpha * 2).cmp(1) > 0 and (alpha * SQRT2).cmp(1) < 0:
            assert rosen_digits(alpha, 0).convergents()[0].frac == zero
            assert dual_rosen_digits(alpha, 0).convergents()[0].frac == zero
            expected_split.add((idx, zero))

    both = one_family = 0
    split: set[tuple[int, H4Fraction]] = set()
    for idx, alpha in enumerate(corpus()):
        exp = Expansion(alpha)
        for b in best_approximations(exp, max_q=1000):
            delta = abs(alpha - b.frac.value())
            q2 = b.frac.q_squared()
            if b.is_rosen and b.is_dual:
                both += 1
                assert (delta * q2 * SQRT2).cmp(1) < 0
                if not (delta * q2 * 2).cmp(1) < 0:
                    assert not _shared_witness(exp, b.frac, b.n_first, b.n_last), (
                        f"corpus[{idx}]: {b.frac} has a shared witness, "
                        f"|Δ|q² = {(delta * q2).decimal(6)} ≥ 1/2"
                    )
                    split.add((idx, b.frac))
            else:
                one_family += 1
                assert (delta * q2).cmp(1) < 0
                assert (delta * q2 * SQRT2_PLUS_1).cmp(1) > 0
    assert both and one_family
    assert expected_split <= split, expected_split - split
    label = f"three-tier bounds ({both} both, {len(split)} split ≥ 1/2, {one_family} single)"
    report(6, label, t0, 120.0)


def test_criterion_6_repaired_trichotomy():
    """The proof-level trichotomy, which does hold exactly: classify by
    whether both family memberships share a single witness index.

    - shared witness: |α − p/q| < 1/(2q²)
    - in one family only: 1/((√2+1)q²) < |α − p/q| < 1/q²
    - both families, split witnesses: 1/((√2+2)q²) < |α − p/q| < 1/(√2·q²)
    """
    t0 = time.perf_counter()
    sqrt2_plus_2 = ZRt2(2, 1)
    counts = {"common": 0, "single": 0, "mixed": 0}
    for alpha in corpus():
        for b in best_approximations(alpha, max_q=1000):
            delta = abs(alpha - b.frac.value())
            q2 = b.frac.q_squared()
            if b.common_witness:
                counts["common"] += 1
                assert (delta * q2 * 2).cmp(1) < 0
            elif b.is_rosen and b.is_dual:
                counts["mixed"] += 1
                assert (delta * q2 * sqrt2_plus_2).cmp(1) > 0
                assert (delta * q2 * SQRT2).cmp(1) < 0
            else:
                counts["single"] += 1
                assert (delta * q2).cmp(1) < 0
                assert (delta * q2 * SQRT2_PLUS_1).cmp(1) > 0
    assert all(counts.values()), counts
    report(6, f"repaired trichotomy {counts}", t0, 120.0)


def test_criterion_7_record_bounds():
    t0 = time.perf_counter()
    for alpha in corpus():
        seq = uniform_sequence(alpha, 50)  # each record asserts the strict bounds
        assert len(seq) == 50
        for r in seq:
            assert r.value is not None
            assert HALF.cmp(r.value) < 0 < UPPER.cmp(r.value)
    report(7, "records strictly inside (1/2, (√2+1)/2), 50 x 100", t0, 120.0)


def _convergent_fracs(alpha: Surd, kind: str, q_bound: int):
    digits_fn = rosen_digits if kind == "rosen" else dual_rosen_digits
    terms = 12
    while True:
        convs = digits_fn(alpha, terms).convergents()
        if convs[-1].s.cmp(q_bound) > 0:
            return [c for c in convs if c.s.cmp(q_bound) <= 0]
        terms *= 2
        assert terms <= 400, "convergent denominators failed to grow"


def test_criterion_8_convergent_set_equality():
    t0 = time.perf_counter()
    for alpha in corpus():
        best = best_approximations(alpha, max_q=1000)
        rosen = _convergent_fracs(alpha, "rosen", 1000)
        dual = _convergent_fracs(alpha, "dual", 1000)
        rosen_set = {c.frac for c in rosen}
        dual_full = {c.frac for c in dual}
        dual_tail = {c.frac for c in dual if c.index >= 1}
        assert {b.frac for b in best} == rosen_set | dual_tail, f"set mismatch for {alpha}"
        # The per-element family flags agree with the digit pipelines.
        for b in best:
            assert b.is_rosen == (b.frac in rosen_set)
            assert b.is_dual == (b.frac in dual_full)
    report(8, "best set == rosen(i>=0) ∪ dual(i>=1), q<=10³, 100 surds", t0, 120.0)


def test_criterion_9_sharpness_streams():
    t0 = time.perf_counter()
    tol = QRt2(ONE, 1000)
    points_a = optimality_check("A", i_max=5)
    main = [p for p in points_a if p.target == QRt2(ZRt2(-1, 1), 1)]
    aux = [p for p in points_a if p.target == QRt2(ONE, 1)]
    assert main[-1].i == 5 and aux[-1].i == 5
    assert main[-1].max_distance().cmp(tol) < 0
    assert aux[-1].max_distance().cmp(tol) < 0
    points_b = optimality_check("B", i_max=5)
    assert points_b[-1].max_distance().cmp(tol) < 0
    report(9, "stream checkers within 10⁻³ at i=5", t0, 60.0)


def test_criterion_10_algebraic_invariants():
    t0 = time.perf_counter()
    rng = random.Random(20260808)
    checks = 0

    # Sign multiplicativity and agreement with 50-digit evaluation.
    scale = 10**50
    from math import isqrt

    lo2, hi2 = Fraction(isqrt(2 * scale * scale), scale), Fraction(isqrt(2 * scale * scale) + 1, scale)
    for _ in range(4000):
        x = ZRt2(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
        y = ZRt2(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
        assert (x * y).sign() == x.sign() * y.sign()
        ev_lo = x.a + x.b * (lo2 if x.b >= 0 else hi2)
        ev_hi = x.a + x.b * (hi2 if x.b >= 0 else lo2)
        assert x.sign() == (1 if ev_lo > 0 else (-1 if ev_hi < 0 else 0))
        checks += 2

    # Total order: antisymmetry and transitivity on random surd triples.
    def rand_surd() -> Surd:
        while True:
            try:
                s = Surd(
                    ZRt2(rng.randint(-9, 9), rng.randint(-9, 9)),
                    ZRt2(rng.randint(-9, 9), rng.randint(-9, 9)),
                    ZRt2(13, 0),
                    ZRt2(rng.randint(-9, 9), rng.randint(-9, 9)),
                )
                return s
            except ValueError:
                continue

    for _ in range(500):
        xs = [rand_surd() for _ in range(3)]
        for a in xs:
            for b in xs:
                assert a.cmp(b) == -b.cmp(a)
                checks += 1
        for a in xs:
            for b in xs:
                for c in xs:
                    if a.cmp(b) <= 0 and b.cmp(c) <= 0:
                        assert a.cmp(c) <= 0
                        checks += 1

    # Mobius composition over random digit words.
    for _ in range(400):
        word = [rng.choice([1, 2, 3]) for _ in range(rng.randint(1, 12))]
        m = Mat2.identity()
        for d in word:
            m = m * DIGIT_MATRICES[d]
        val = rand_surd()
        if val.sign() <= 0:
            val = abs(val) + 1
        stepped = val
        for d in reversed(word):
            stepped = DIGIT_MATRICES[d].act(stepped)
        assert m.act(val) == stepped
        checks += 1

    # Determinant-1 and membership preservation along words; reversal law.
    for _ in range(600):
        word = [rng.choice([1, 2, 3]) for _ in range(rng.randint(1, 20))]
        m = Mat2.identity()
        for d in word:
            m = m * DIGIT_MATRICES[d]
        assert m.det() == ONE and membership(m)
        rev = Mat2.identity()
        for d in reversed(word):
            rev = rev * DIGIT_MATRICES[d]
        assert rev == Mat2(m.w, m.v, m.u, m.t)
        checks += 3

    # Interval nesting on the first 20 corpus elements.
    for alpha in corpus()[:20]:
        exp = Expansion(alpha)
        prev = None
        for n in range(1, 31):
            g = exp.matrix(n)
            if g.u.is_zero():
                continue
            lo = Surd.from_ratio(g.v, g.w)
            hi = Surd.from_ratio(g.t, g.u)
            assert lo < alpha < hi
            if prev is not None:
                assert prev[0].cmp(lo) <= 0 and hi.cmp(prev[1]) <= 0
            prev = (lo, hi)
            checks += 2

    assert checks >= 10_000, f"only {checks} randomized checks ran"
    report(10, f"algebraic invariant suite ({checks} checks)", t0, 60.0)
