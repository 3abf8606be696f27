"""Best-approximation enumeration vs the definitional oracle, successor cases,
and the two-constant classifier."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h4approx.exact_field import ONE, SQRT2, Surd, ZRt2
from h4approx.hecke_group import DIGIT_MATRICES, IntMat, Mat2, canonicalize, canonicalize_pair
from h4approx.h4_expansion import Expansion
from h4approx.best_approx import (
    BEST_BY_SUFFICIENT,
    BEST_NOT_SUFFICIENT,
    NOT_BEST,
    best_approximations,
    legendre_classify,
    oracle_best_approximations,
    successor_case,
)
from tests.test_rosen_cf import random_periodic_surd

SURD17 = Surd(ZRt2(3, 0), ONE, ZRt2(17, 0), ZRt2(0, 2))


def frac(m: int, n: int):
    return canonicalize(m, n)


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
        from h4approx.hecke_group import denominator_ladder, numerators_near

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
        from h4approx.hecke_group import denominator_ladder, numerators_near

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
    from h4approx.hecke_group import denominator_ladder, numerators_near

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
        from h4approx.hecke_group import denominator_ladder, numerators_near

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


class TestOnePredicatePerIndex:
    def test_tail_sign_asked_once_per_walk_step(self, monkeypatch):
        """The walk reads sign(α_n − 1) once per index, for σ̃_n and both
        emission tests.  A step is an index n > m(α) whose G_n the walk
        reads, however the step is computed.  Only a next digit 2 costs the
        sign an exact predicate, and the reversal's sign costs no Z[√2]
        arithmetic at all."""
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

        exp = Counting(make_corpus(1, 5, 5)[3])
        best = best_approximations(exp, max_count=1000)
        steps = sum(1 for n in Counting.read if n > exp.leading_threes())
        assert len(best) == 1000
        assert len(Counting.asked) <= steps + len(best)

        # Walk again over the digits now cached, so that every predicate
        # counted is a tail sign, not a new digit.
        Counting.asked.clear()
        monkeypatch.setattr(Surd, "linear_sign_ints", counting)
        assert best_approximations(exp, max_count=1000) == best
        before_two = sum(1 for n in Counting.asked if exp.digit(n + 1) == 2)
        assert len(predicates) == before_two == 384

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
