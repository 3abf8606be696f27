"""Best-approximation enumeration vs the definitional oracle, successor cases,
and the two-constant classifier."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h4approx.exact_field import ONE, SQRT2, Surd, ZRt2, zrt2_sign
from h4approx.hecke_group import (
    DIGIT_MATRICES, IntMat, Mat2, canonicalize, canonicalize_pair, column_fraction, denominator_sq,
)
from h4approx.h4_expansion import DEFAULT_CAP, CapExceeded, Expansion
from h4approx.best_approx import (
    BEST_BY_SUFFICIENT,
    BEST_NOT_SUFFICIENT,
    NOT_BEST,
    BestApprox,
    _dual_a0,
    _rosen_a0,
    best_approximations,
    legendre_classify,
    oracle_best_approximations,
    successor_case,
)
from h4approx.rosen_cf import dual_flip, rosen_flip
from tests.test_rosen_cf import random_periodic_surd

SURD17 = Surd(ZRt2(3, 0), ONE, ZRt2(17, 0), ZRt2(0, 2))


def frac(m: int, n: int):
    return canonicalize(m, n)


def reference_best_approximations(source, *, max_q=None, max_count=None, cap=DEFAULT_CAP) -> list:
    """The per-index walk, the reference route for best_approximations:
    every index n > m(α) up to the stop is read in full, each emission is
    built as a fraction at once, and the errors are compared with
    Surd.linear_sign.  best_approximations reads the inside of a run of 1s
    or 3s once and must give the same list, and the same CapExceeded."""
    exp = source if isinstance(source, Expansion) else Expansion(source, cap)
    stop = None
    if max_q is not None:
        bound = ZRt2.of(max_q)
        stop = (bound * bound).pair() if bound.sign() > 0 else (0, 0)

    def past_stop(q_sq: int) -> bool:
        return zrt2_sign(q_sq - stop[0], -stop[1]) > 0

    m = exp.leading_threes()
    emissions = []
    ranges = {"tu": (m + 1, False, False, False), "vw": (m + 1, False, False, False)}
    for n in range(m + 1, cap + 1):
        g = exp.state(n)
        sigma, dual_sigma = rosen_flip(exp, n), dual_flip(exp, n)
        d_next = exp.digit(n + 1)
        for side, flipped, stay in (("tu", False, 3), ("vw", True, 1)):
            start, rosen, dual, both = ranges[side]
            rosen_n, dual_n = sigma == flipped, dual_sigma == flipped
            ranges[side] = (start, rosen or rosen_n, dual or dual_n, both or (rosen_n and dual_n))
            if d_next == stay:
                continue
            if rosen_n or dual_n:
                emissions.append(
                    (side, start, n, denominator_sq(g, side), column_fraction(g, side), *ranges[side][1:])
                )
            ranges[side] = (n + 1, False, False, False)
        low_sq = denominator_sq(g, "vw" if sigma else "tu")
        if stop is not None:
            if past_stop(low_sq):
                break
        elif len(emissions) >= max_count:
            if low_sq > sorted(e[3] for e in emissions)[max_count - 1]:
                break
    else:
        raise CapExceeded(f"enumeration did not finish within {cap} steps")

    rosen0, dual0 = canonicalize(_rosen_a0(exp), 1), canonicalize(_dual_a0(exp), 1)
    emissions.sort(key=lambda e: e[3])
    out = []
    prev = None
    alpha = exp.alpha
    for side, n1, n2, q_sq, f, is_rosen, is_dual, both in emissions:
        if stop is not None and past_stop(q_sq):
            continue
        err = None
        if alpha is not None:
            sq, sp = (-f.q, -f.p) if side == "tu" else (f.q, f.p)
            assert prev is None or alpha.linear_sign(sq - prev[0], sp - prev[1]) < 0, "errors must decrease"
            prev = (sq, sp)
            err = Surd(alpha.P * sq - sp * alpha.S, alpha.Q * sq, alpha.D, alpha.S)
        is_dual = f == dual0 or (is_dual and f != rosen0)
        out.append(BestApprox(f, side, n1, n2, is_rosen, is_dual, is_rosen and is_dual and both, err))
    return out if max_count is None else out[:max_count]


def walk_outcome(walk, source, **kwargs):
    """The list a walk returns, or the CapExceeded it raises, as comparable data."""
    try:
        return walk(source, **kwargs)
    except CapExceeded as exc:
        return ("CapExceeded", str(exc))


def long_runs(source, depth: int, length: int) -> list[tuple[int, int]]:
    """(s, e) for runs d_{s+1} = … = d_e of 1s or 3s, at least `length`
    long, that start after the leading 3s and end by digit `depth`."""
    exp = Expansion(source)
    word = exp.word(depth)
    m = exp.leading_threes()
    out, s = [], m
    for n in range(m + 1, depth + 1):
        if n == depth or word[n] != word[s]:
            if word[s] != 2 and n - s >= length:
                out.append((s, n))
            s = n
    return out


class TestSurd17Example:
    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one_rejected(self, count):
        with pytest.raises(ValueError, match="at least 1"):
            best_approximations(SURD17, max_count=count)

    def test_first_four(self):
        best = best_approximations(SURD17, max_count=4)
        assert [str(b.frac) for b in best] == ["2√2/1", "7/2√2", "16√2/9", "57/16√2"]

    def test_ranges_and_sides(self):
        best = best_approximations(SURD17, max_count=4)
        assert (best[0].side, best[0].n_first, best[0].n_last) == ("tu", 2, 3)
        assert (best[1].side, best[1].n_first, best[1].n_last) == ("vw", 3, 4)
        assert (best[2].side, best[2].n_first, best[2].n_last) == ("vw", 5, 6)
        assert best[3].side == "tu" and best[3].n_first == 6

    def test_all_four_in_both_families(self):
        best = best_approximations(SURD17, max_count=4)
        assert all(b.is_rosen and b.is_dual for b in best)

    def test_oracle_reproduces_them(self):
        got = oracle_best_approximations(SURD17, 30)
        assert [str(f) for f in got] == ["2√2/1", "7/2√2", "16√2/9", "57/16√2"]


class TestAlphaOne:
    def test_sequence_is_matrix_powers(self):
        # Oracle: exact powers of the middle digit matrix.
        best = best_approximations(Surd.of(1), max_count=5)
        m = Mat2.identity()
        expect = []
        for _ in range(5):
            m = m * DIGIT_MATRICES[2]
            expect.append(canonicalize_pair(m.t, m.u))
        assert [b.frac for b in best] == expect
        assert all(b.side == "tu" for b in best)

    def test_q_one_oracle(self):
        assert oracle_best_approximations(Surd.of(1), 1) == [frac(1, 1)]

    def test_oracle_equivalence_small(self):
        fast = [b.frac for b in best_approximations(Surd.of(1), max_q=150)]
        slow = oracle_best_approximations(Surd.of(1), 150)
        assert fast == slow


class TestEnumeratorProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.sampled_from([1, 2, 3]), min_size=2, max_size=5))
    def test_oracle_equivalence_random(self, word):
        alpha = random_periodic_surd(word)
        if alpha is None:
            return
        fast = [b.frac for b in best_approximations(alpha, max_q=60)]
        slow = oracle_best_approximations(alpha, 60)
        assert fast == slow

    def test_denominators_strictly_increase_errors_strictly_decrease(self):
        best = best_approximations(SURD17, max_count=10)
        for a, b in zip(best, best[1:]):
            assert a.q.cmp(b.q) < 0
            assert a.err is not None and b.err is not None
            assert b.err.cmp(a.err) < 0

    def test_first_is_nearest_sqrt2_multiple(self):
        from h4approx.rosen_cf import rosen_digits

        for alpha in (SURD17, Surd.of(1), Surd.from_ratio(ONE, ZRt2(3, 0))):
            best = best_approximations(alpha, max_count=1)[0]
            a0 = rosen_digits(alpha, 1).a0
            assert best.frac == frac(a0, 1)

    def test_min_error_among_smaller_denominators(self):
        # The error at step i−1 is the minimum over all q below q_i.
        best = best_approximations(SURD17, max_q=120)
        from h4approx.hecke_group import denominator_ladder
        from tests.test_hecke_group import numerators_near

        for prev, cur in zip(best, best[1:]):
            assert prev.err is not None
            for q in denominator_ladder(cur.q - 1):
                for p in numerators_near(SURD17, q):
                    err = abs(SURD17 * q - p)
                    assert err.cmp(prev.err) >= 0


class TestSuccessor:
    def test_surd17_chain(self):
        exp = Expansion(SURD17)
        best = best_approximations(exp, max_count=5)
        cases = []
        for cur, nxt in zip(best, best[1:]):
            case, nside, nn = successor_case(exp, cur.side, cur.n_last)
            cases.append(case)
            assert nside == nxt.side
            g = exp.matrix(nn)
            got = canonicalize_pair(g.t, g.u) if nside == "tu" else canonicalize_pair(g.v, g.w)
            assert got == nxt.frac
        assert cases == ["b1", "m2", "m1", "b2"]

    def test_alpha_one_all_b2(self):
        exp = Expansion(Surd.of(1))
        for n in range(1, 6):
            assert successor_case(exp, "tu", n) == ("b2", "tu", n + 1)


class TestLegendre:
    def test_first_best_is_sufficient(self):
        # |α − 2√2| ≈ 0.3100 < 1/2
        assert legendre_classify(SURD17, frac(2, 1)) == BEST_BY_SUFFICIENT

    def test_far_fraction_not_best(self):
        assert legendre_classify(SURD17, frac(1, 1)) == NOT_BEST

    def test_middle_band_fraction(self):
        # 2√2/1 for α = 1: |1 − 2√2| ≈ 1.83 ≥ 1/2 and not a best approximation.
        assert legendre_classify(Surd.of(1), frac(2, 1)) == NOT_BEST

    def test_every_member_obeys_upper_bound(self):
        for b in best_approximations(SURD17, max_q=100):
            delta = abs(SURD17 - b.frac.value())
            assert (delta * b.frac.q_squared()).cmp(1) < 0

    def test_sufficient_fractions_are_members(self):
        # Scan all canonical fractions with q ≤ 20 near alpha.
        from h4approx.hecke_group import denominator_ladder
        from tests.test_hecke_group import numerators_near

        members = {b.frac for b in best_approximations(SURD17, max_q=20)}
        for q in denominator_ladder(20):
            for p in numerators_near(SURD17, q):
                f = canonicalize_pair(p, q)
                if f.q != q:
                    continue
                delta = abs(SURD17 - f.value())
                if (delta * f.q_squared() * 2).cmp(1) < 0:
                    assert f in members


def surd_subtraction_oracle(alpha: Surd, q_max: int) -> list:
    """Reference oracle scan in Surd arithmetic: each error a Surd
    |q·α − p|, each comparison a Surd subtraction."""
    from h4approx.hecke_group import denominator_ladder
    from tests.test_hecke_group import numerators_near

    records = []
    best_err = None
    for q in denominator_ladder(q_max):
        lo, hi = numerators_near(alpha, q)
        err_lo, err_hi = abs(alpha * q - lo), abs(alpha * q - hi)
        c = err_lo.cmp(err_hi)
        assert c != 0
        p, err = (lo, err_lo) if c < 0 else (hi, err_hi)
        if best_err is None or err.cmp(best_err) < 0:
            records.append(canonicalize_pair(p, q))
            best_err = err
    return records


def spy_oracle_predicates(monkeypatch) -> dict:
    """Count the exact predicates the oracle can fall back to: floor_linear,
    linear_sign, and linear_sign_ints when not called from linear_sign."""
    calls = {"floor_linear": 0, "linear_sign": 0, "linear_sign_ints": 0}
    inside_linear_sign = []
    floor_linear, linear_sign, linear_sign_ints = Surd.floor_linear, Surd.linear_sign, Surd.linear_sign_ints

    def counting_floor(self, c, e, u):
        calls["floor_linear"] += 1
        return floor_linear(self, c, e, u)

    def counting_sign(self, c, d):
        calls["linear_sign"] += 1
        inside_linear_sign.append(True)
        try:
            return linear_sign(self, c, d)
        finally:
            inside_linear_sign.pop()

    def counting_ints(self, ca, cb, da, db):
        if not inside_linear_sign:
            calls["linear_sign_ints"] += 1
        return linear_sign_ints(self, ca, cb, da, db)

    monkeypatch.setattr(Surd, "floor_linear", counting_floor)
    monkeypatch.setattr(Surd, "linear_sign", counting_sign)
    monkeypatch.setattr(Surd, "linear_sign_ints", counting_ints)
    return calls


class TestOracleEnclosure:
    """The oracle reads each floor, nearer numerator and record comparison
    off integer bounds from one enclosure of α; the exact predicates decide
    only where the bounds straddle a boundary."""

    @pytest.mark.parametrize("bits", [2, 3, 4])
    def test_fallbacks_fire_and_agree_at_low_precision(self, monkeypatch, bits):
        from h4approx import best_approx
        from h4approx.cli import make_corpus

        alphas = [SURD17, Surd.of(1), Surd.of(ZRt2(1, 1)), *make_corpus(1, 30, 5)]
        want = [surd_subtraction_oracle(alpha, 80) for alpha in alphas]
        monkeypatch.setattr(best_approx, "_ORACLE_BITS", bits)
        calls = spy_oracle_predicates(monkeypatch)
        assert [oracle_best_approximations(alpha, 80) for alpha in alphas] == want
        assert calls["floor_linear"] > 2 * len(alphas), "no floor fell back"
        assert calls["linear_sign_ints"] > 0, "no nearer numerator fell back"
        assert calls["linear_sign"] > 0, "no record comparison fell back"

    def test_default_precision_decides_on_ints(self, monkeypatch):
        from h4approx.cli import make_corpus

        calls = spy_oracle_predicates(monkeypatch)
        assert oracle_best_approximations(Surd.of(1), 1) and calls["floor_linear"] == 2, "the spy must see floors"
        for alpha in make_corpus(1, 30, 5):
            calls["floor_linear"] = 0
            assert oracle_best_approximations(alpha, 150)
            assert calls["floor_linear"] == 2
        assert calls["linear_sign"] == calls["linear_sign_ints"] == 0

    def test_error_ties_fall_back_at_default_precision(self, monkeypatch):
        """α = 1 has errors that tie across denominators, which no bound
        separates; the exact comparison keeps the earlier record."""
        want = surd_subtraction_oracle(Surd.of(1), 150)
        calls = spy_oracle_predicates(monkeypatch)
        assert oracle_best_approximations(Surd.of(1), 150) == want
        assert calls["linear_sign"] > 0


class TestPredicateErrors:
    """The oracle, the enumerator's error checks and the Legendre bounds
    decide with exact signs; their answers match Surd arithmetic."""

    def test_oracle_matches_surd_subtraction_scan(self):
        from h4approx.cli import make_corpus

        for alpha in [SURD17, *make_corpus(1, 30, 5)]:
            assert oracle_best_approximations(alpha, 80) == surd_subtraction_oracle(alpha, 80)

    def test_oracle_builds_no_surd(self, monkeypatch):
        from h4approx.cli import make_corpus

        alphas = [SURD17, Surd.of(1), *make_corpus(1, 5, 5)]
        calls = {"enclosure": 0, "__post_init__": 0}
        for name in calls:
            orig = getattr(Surd, name)

            def counting(self, *args, _orig=orig, _name=name):
                calls[_name] += 1
                return _orig(self, *args)

            monkeypatch.setattr(Surd, name, counting)
        for alpha in alphas:
            assert oracle_best_approximations(alpha, 150)
        assert calls == {"enclosure": 0, "__post_init__": 0}

    def test_err_is_the_surd_difference(self):
        from h4approx.cli import make_corpus

        for alpha in [SURD17, Surd.of(1), *make_corpus(2, 10, 5)]:
            for b in best_approximations(alpha, max_count=12):
                assert b.err == abs(alpha * b.q - b.p)

    def test_walk_signs_errors_off_the_column(self, monkeypatch):
        """v/w < α < t/u fixes the sign of q·α − p by the emitting side, so
        the walk's only linear_sign calls are the decreasing-error checks,
        one per record after the first."""
        from h4approx.cli import make_corpus

        alpha = make_corpus(1, 5, 5)[3]
        calls = []
        linear_sign = Surd.linear_sign

        def counting(self, c, d):
            calls.append(1)
            return linear_sign(self, c, d)

        monkeypatch.setattr(Surd, "linear_sign", counting)
        best = best_approximations(alpha, max_count=100)
        assert len(best) == 100
        assert len(calls) <= len(best) - 1

    def test_legendre_bounds_match_surd_arithmetic(self):
        from h4approx.hecke_group import denominator_ladder
        from tests.test_hecke_group import numerators_near

        for alpha in (SURD17, Surd.of(1)):
            members = {b.frac for b in best_approximations(alpha, max_q=40)}
            for q in denominator_ladder(40):
                for p in numerators_near(alpha, q):
                    f = canonicalize_pair(p, q)
                    scaled = abs(alpha - f.value()) * f.q_squared()
                    if (scaled * 2).cmp(1) < 0:
                        want = BEST_BY_SUFFICIENT
                    else:
                        want = BEST_NOT_SUFFICIENT if f in members else NOT_BEST
                    assert legendre_classify(alpha, f) == want


class TestStreamBackend:
    def test_three_powers_only_tu_side(self):
        from h4approx.h4_expansion import three_powers_stream

        best = best_approximations(three_powers_stream(), max_count=8)
        assert all(b.side == "tu" for b in best)
        assert all(b.err is None for b in best)

    def test_four_blocks_enumerates(self):
        from h4approx.h4_expansion import four_blocks_stream

        best = best_approximations(four_blocks_stream(), max_count=6)
        for a, b in zip(best, best[1:]):
            assert a.q.cmp(b.q) < 0


def run_jump_sources() -> list:
    from h4approx.cli import make_corpus
    from h4approx.h4_expansion import PeriodicStream, STREAM_RULES

    corpus = [alpha for bound in (5, 9, 20) for alpha in make_corpus(1, 8, bound)]
    return [*corpus, *(rule() for rule in STREAM_RULES.values()), PeriodicStream((3, 1), (2,))]


class TestRunJumps:
    """best_approximations reads an index inside a run of 1s or 3s once and
    jumps to the run's last index; the per-index walk is its reference."""

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_count": 40}, {"max_q": 10**6}, {"max_count": 12, "max_q": 10**4}, {"max_count": 30, "cap": 90}],
    )
    def test_same_outputs_as_the_per_index_walk(self, kwargs):
        for source in run_jump_sources():
            want = walk_outcome(reference_best_approximations, source, **kwargs)
            assert walk_outcome(best_approximations, source, **kwargs) == want, source

    def test_caps_inside_long_runs(self):
        """Caps at the first, second, middle, second-to-last and last index
        of a run, with the walk stopped by the count or by the cap."""
        checked = 0
        for source in run_jump_sources():
            for s, e in long_runs(source, 400, 6)[:3]:
                for cap in (s, s + 1, (s + e) // 2, e - 1, e):
                    for kwargs in ({"max_count": 10**6}, {"max_count": 8}, {"max_q": 10**8}):
                        want = walk_outcome(reference_best_approximations, source, cap=cap, **kwargs)
                        assert walk_outcome(best_approximations, source, cap=cap, **kwargs) == want
                        checked += isinstance(want, tuple)
        assert checked > 100

    def test_reads_no_digit_past_cap_plus_one(self):
        """A run that crosses the cap raises CapExceeded, as the per-index
        walk does there, without reading a digit past cap + 1."""
        from h4approx.cli import make_corpus
        from h4approx.h4_expansion import four_blocks_stream
        from tests.test_rosen_cf import DigitBudget

        cases = [(four_blocks_stream(), 100)]  # digits 64 to 127 are 3s
        for alpha in make_corpus(1, 20, 5):
            cases += [(alpha, (s + e) // 2) for s, e in long_runs(alpha, 600, 20)[:1]]
        assert len(cases) > 5
        for source, cap in cases:
            word = Expansion(source).word(cap + 1)
            assert word[cap - 1] == word[cap] != 2
            for kwargs in ({"max_count": 10**6}, {"max_q": 10**300}):
                with pytest.raises(CapExceeded, match=f"within {cap} steps"):
                    best_approximations(DigitBudget(source, cap + 1), cap=cap, **kwargs)


class TestBoundedSigns:
    """Expansion.alpha_sign reads sign(α·c − d) off the integer bounds on
    α, α√2 and √2 kept for the tail box; the exact predicate decides only
    where those bounds straddle 0."""

    @staticmethod
    def spy_exact(monkeypatch) -> list:
        calls = []
        linear_sign_ints = Surd.linear_sign_ints

        def counting(self, ca, cb, da, db):
            calls.append((ca, cb, da, db))
            return linear_sign_ints(self, ca, cb, da, db)

        monkeypatch.setattr(Surd, "linear_sign_ints", counting)
        return calls

    @pytest.mark.parametrize("bits", [2, 3, 4])
    def test_fallbacks_fire_and_agree_at_low_precision(self, monkeypatch, bits):
        import random

        from h4approx import h4_expansion
        from h4approx.cli import make_corpus

        rng = random.Random(bits)
        alphas = [SURD17, *make_corpus(1, 12, 5)]
        want = [reference_best_approximations(alpha, max_count=30) for alpha in alphas]
        calls = self.spy_exact(monkeypatch)
        for alpha, expected in zip(alphas, want):
            exp = Expansion(alpha)
            exp.word(3000)
            exp._fixed = h4_expansion._fixed_bounds(alpha, bits)
            exp._tail_signs.clear()
            assert best_approximations(exp, max_count=30) == expected
            for n in range(200):
                assert exp.tail_cmp_one(n) == exp.tail(n).cmp(1)
            for _ in range(50):
                ca, cb, da, db = (rng.randint(-99, 99) for _ in range(4))
                c, d = ZRt2(ca, cb), ZRt2(da, db)
                assert exp.alpha_sign(c.a, c.b, d.a, d.b) == alpha.linear_sign(c, d)
        assert len(calls) > 100, "no exact fallback fired"

    def test_default_precision_decides_on_ints(self, monkeypatch):
        """corpus[3] × 1,000 records from scratch: the digits, the tail
        signs and the decreasing-error checks make at most a handful of
        exact calls, and the answers match Surd.linear_sign."""
        from h4approx.cli import make_corpus

        alpha = make_corpus(1, 5, 5)[3]
        want = reference_best_approximations(alpha, max_count=1000)
        calls = self.spy_exact(monkeypatch)
        exp = Expansion(alpha)
        assert best_approximations(exp, max_count=1000) == want
        assert len(calls) <= 5
        signed = [(-b.q, -b.p) if b.side == "tu" else (b.q, b.p) for b in want]
        for (sq0, sp0), (sq1, sp1) in zip(signed, signed[1:]):
            c, d = sq1 - sq0, sp1 - sp0
            assert exp.alpha_sign(c.a, c.b, d.a, d.b) == alpha.linear_sign(c, d) == -1


class TestOnePredicatePerIndex:
    def test_tail_sign_asked_once_per_walk_step(self, monkeypatch):
        """The walk reads sign(α_n − 1) once per index it visits, for σ̃_n
        and both emission tests, and visits at most two indices per run of
        equal digits besides each index before a 2.  A step is an index
        n > m(α) whose G_n the walk reads.  Only a next digit 2 whose tail
        box held 1 can cost the sign an exact predicate, once, and the
        reversal's sign costs no Z[√2] arithmetic at all."""
        import sys

        from h4approx.cli import make_corpus

        class Counting(Expansion):
            asked: list[int] = []
            read: set[int] = set()
            inside_tail = False

            def tail_cmp_one(self, n: int) -> int:
                Counting.asked.append(n)
                Counting.inside_tail = True
                try:
                    return super().tail_cmp_one(n)
                finally:
                    Counting.inside_tail = False

            def state(self, n: int) -> IntMat:
                Counting.read.add(n)
                return super().state(n)

        predicates = []
        linear_sign_ints = Surd.linear_sign_ints

        def counting(self, ca, cb, da, db):
            if Counting.inside_tail:
                predicates.append(1)
            return linear_sign_ints(self, ca, cb, da, db)

        alpha = make_corpus(1, 5, 5)[3]
        exp = Counting(alpha)
        best = best_approximations(exp, max_count=1000)
        m = exp.leading_threes()
        steps = sum(1 for n in Counting.read if n > m)
        assert len(best) == 1000
        assert len(Counting.asked) <= steps + len(best)
        last = max(Counting.read)
        walked = exp.word(last + 1)[m:]
        runs = 1 + sum(1 for a, b in zip(walked, walked[1:]) if a != b)
        assert steps <= 2 * runs + walked[1:].count(2)

        # Walk again over a fresh expansion of the same digits, whose boxes
        # have given their signs but which has asked no tail sign yet, so
        # that every predicate counted is a tail sign, not a new digit.
        fresh = Counting(alpha)
        fresh.word(len(exp.word(last + 1)))
        box_open = {n for n in range(last + 1) if fresh.digit(n + 1) == 2} - set(fresh._tail_signs)
        Counting.asked.clear()
        monkeypatch.setattr(Surd, "linear_sign_ints", counting)
        assert best_approximations(fresh, max_count=1000) == best
        before_two = sum(1 for n in Counting.asked if fresh.digit(n + 1) == 2)
        assert before_two == 384
        assert len(predicates) <= len(box_open & set(Counting.asked))
        asked = len(predicates)
        for n in set(Counting.asked):  # a second ask is answered from the cache
            fresh.tail_cmp_one(n)
        assert len(predicates) == asked

        exact_field_calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename.endswith("exact_field.py"):
                exact_field_calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            for n in sorted(Counting.read):
                exp.star_cmp_one(n)
        finally:
            sys.setprofile(None)
        assert exact_field_calls == []


class TestFlagsFromDefinitions:
    """is_rosen, is_dual and common_witness against their definitions: the
    selector fractions M_n·∞ and N_n·∞ over the walk and 60 indices beyond,
    with the 0-th convergents taken from the regrouping walks."""

    @staticmethod
    def check(source, max_count: int) -> None:
        from h4approx.rosen_cf import dual_from_h4, rosen_from_h4, select_M, select_N

        exp = Expansion(source)
        best = best_approximations(exp, max_count=max_count)
        indices = range(exp.leading_threes() + 1, max(b.n_last for b in best) + 61)
        inf = lambda g: canonicalize_pair(g.t, g.u)
        rosen_at = {n: inf(select_M(exp, n)) for n in indices}
        dual_at = {n: inf(select_N(exp, n)) for n in indices}
        r0, d0 = frac(rosen_from_h4(exp, 0).a0, 1), frac(dual_from_h4(exp, 0).a0, 1)
        dual = (set(dual_at.values()) - {r0}) | {d0}
        for b in best:
            assert b.is_rosen == (b.frac in rosen_at.values()), b
            assert b.is_dual == (b.frac in dual), b
            shared = any(
                rosen_at[n] == dual_at[n] == b.frac for n in range(b.n_first, b.n_last + 1)
            )
            assert b.common_witness == (b.is_rosen and b.is_dual and shared), b

    def test_corpus(self):
        from h4approx.cli import make_corpus

        for alpha in make_corpus(1, 30, 5):
            self.check(alpha, 40)

    @pytest.mark.parametrize("rule", ["four-blocks", "three-powers"])
    def test_rule_streams(self, rule):
        from h4approx.h4_expansion import STREAM_RULES

        self.check(STREAM_RULES[rule](), 40)

    def test_all_two_tail(self):
        # The tail α_n equals 1 from n = 2 on, so σ̃_n falls to the reversal.
        from h4approx.h4_expansion import PeriodicStream

        self.check(PeriodicStream((3, 1), (2,)), 40)
