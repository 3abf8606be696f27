"""Uniform records, exact uniform constants, witnesses, sharpness streams."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h4approx.best_approx import classify_transition
from h4approx.exact_field import ONE, SQRT2, QRt2, Surd, ZRt2
from h4approx.hecke_group import DIGIT_MATRICES, Mat2
from h4approx.h4_expansion import Expansion, detect_period, three_powers_stream
from h4approx.uniform_approx import (
    HALF,
    UPPER,
    KResult,
    NonPeriodicInput,
    _case_coefficients,
    case_value,
    dirichlet_sweep,
    dirichlet_witness,
    k_exact,
    k_numeric,
    optimality_check,
    uniform_sequence,
)
from tests.test_rosen_cf import random_periodic_surd

SURD17 = Surd(ZRt2(3, 0), ONE, ZRt2(17, 0), ZRt2(0, 2))
EXACT_UPPER = Surd.from_ratio(ZRt2(1, 1), ZRt2(2, 0))


class TestUniformSequence:
    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            uniform_sequence(SURD17, -1)
        assert uniform_sequence(SURD17, 0) == []

    def test_k_numeric_needs_a_record(self):
        with pytest.raises(ValueError, match="at least one record"):
            k_numeric(SURD17, records=0)
        with pytest.raises(ValueError, match="window of at least one record"):
            k_numeric(SURD17, records=20, window=0)

    def test_alpha_one_records_increase_to_limit(self):
        seq = uniform_sequence(Surd.of(1), 12)
        assert all(r.case == "b2" for r in seq)
        prev = None
        for r in seq:
            assert r.value is not None
            if prev is not None:
                assert r.value.cmp(prev) > 0
            prev = r.value
        assert abs(seq[-1].value - EXACT_UPPER).to_float() < 1e-8

    def test_strict_bounds(self):
        for alpha in (SURD17, Surd.of(1)):
            for r in uniform_sequence(alpha, 30):
                assert r.value is not None
                assert HALF.cmp(r.value) < 0 < UPPER.cmp(r.value)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.sampled_from([1, 2, 3]), min_size=2, max_size=5))
    def test_case_formula_matches_direct_random(self, word):
        alpha = random_periodic_surd(word)
        if alpha is None:
            return
        # uniform_sequence internally asserts case == direct on every record.
        seq = uniform_sequence(alpha, 15)
        assert len(seq) == 15

    def test_stream_backend_encloses_exact(self):
        stream = detect_period(SURD17)
        exact = uniform_sequence(SURD17, 10)
        symbolic = uniform_sequence(Expansion(stream), 10)
        for e, s in zip(exact, symbolic):
            assert e.case == s.case and e.n == s.n
            assert s.lo is not None and s.hi is not None
            assert e.value is not None
            assert Surd.of(s.lo).cmp(e.value) <= 0 <= Surd.of(s.hi).cmp(e.value)


def assert_case_coefficients_match_tail_route(alpha: Surd, count: int) -> None:
    """Every record's case coefficients (c, d) give α·c − d equal to the
    case expression at the exact tail α_n = G_n⁻¹·α and α*_n = w_n/u_n,
    and equal to the record's value."""
    exp = Expansion(alpha)
    seq = uniform_sequence(exp, count)
    assert len(seq) == count
    for r in seq:
        c, d = _case_coefficients(r.case, exp.state(r.n))
        g = exp.matrix(r.n)
        reference = case_value(r.case, exp.tail(r.n), Surd.from_ratio(g.w, g.u))
        assert alpha * c - d == reference == r.value


class TestCaseCoefficients:
    """The case route of uniform_sequence is a coefficient pair read off the
    state of G_n; the tail-and-reversal route stays here as its reference."""

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.sampled_from([1, 2, 3]), min_size=2, max_size=6))
    def test_random_periodic_surds(self, word):
        alpha = random_periodic_surd(word)
        if alpha is None:
            return
        assert_case_coefficients_match_tail_route(alpha, 12)

    def test_corpus(self):
        from h4approx.cli import make_corpus

        for alpha in make_corpus(1, 20, 5):
            assert_case_coefficients_match_tail_route(alpha, 12)

    def test_wrong_case_is_caught(self, monkeypatch):
        from h4approx import uniform_approx

        assert len(uniform_sequence(SURD17, 12)) == 12
        wrong = {"b1": "b2", "b2": "b3", "b3": "b1", "m1": "m2", "m2": "m3", "m3": "m1"}
        successor_case = uniform_approx.successor_case

        def lying(exp, side, n):
            case, nside, nn = successor_case(exp, side, n)
            return wrong[case], nside, nn

        monkeypatch.setattr(uniform_approx, "successor_case", lying)
        with pytest.raises(AssertionError, match="case expression must match direct product"):
            uniform_sequence(SURD17, 12)

    def test_records_build_one_surd_each_and_no_matrix(self, monkeypatch):
        """Past the walk, a record costs one Surd normalization: no Mat2, no
        exact tail, no G_n over Z[√2] and no decimal enclosure."""
        from h4approx.best_approx import best_approximations
        from h4approx.cli import make_corpus

        alpha = make_corpus(1, 5, 5)[3]
        counts = {"Mat2": 0, "tail": 0, "matrix": 0, "enclosure": 0, "surd": 0}

        def count(owner, name, key):
            orig = getattr(owner, name)

            def counting(self, *args):
                counts[key] += 1
                return orig(self, *args)

            monkeypatch.setattr(owner, name, counting)

        count(Mat2, "__init__", "Mat2")
        count(Expansion, "tail", "tail")
        count(Expansion, "matrix", "matrix")
        count(Surd, "enclosure", "enclosure")
        count(Surd, "__post_init__", "surd")
        assert Expansion(SURD17).matrix(1) is not None
        assert counts == {"Mat2": 1, "tail": 0, "matrix": 1, "enclosure": 0, "surd": 0}, "the counters must see calls"
        counts.update(dict.fromkeys(counts, 0))
        best_approximations(Expansion(alpha), max_count=101)
        walk = counts["surd"]
        counts.update(dict.fromkeys(counts, 0))
        seq = uniform_sequence(alpha, 100)
        assert len(seq) == 100
        assert counts["surd"] <= walk + len(seq)
        assert counts == {"Mat2": 0, "tail": 0, "matrix": 0, "enclosure": 0, "surd": counts["surd"]}


class TestKExact:
    def test_alpha_one_is_upper_constant(self):
        res = k_exact(Surd.of(1))
        assert res.certified and res.value is not None
        assert res.value.cmp(EXACT_UPPER) == 0

    def test_surd17_matches_numeric(self):
        res = k_exact(SURD17)
        num = k_numeric(SURD17, records=400, window=60)
        assert res.value is not None
        assert abs(res.value.to_float() - num.estimate) < 1e-12

    def test_rejects_terminating(self):
        with pytest.raises(NonPeriodicInput):
            k_exact(Surd.from_ratio(ZRt2(5, 0), SQRT2))

    def test_upper_bound_never_exceeded(self):
        for word in ([2], [3, 2], [3, 2, 3, 1, 2, 1], [1, 2], [3, 1], [2, 2, 3]):
            alpha = random_periodic_surd(list(word))
            if alpha is None:
                continue
            res = k_exact(alpha)
            assert res.value is not None
            assert res.value.cmp(EXACT_UPPER) <= 0
            assert res.value.cmp(HALF) > 0

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=6))
    def test_exact_matches_windowed_numeric(self, word):
        alpha = random_periodic_surd(word)
        if alpha is None:
            return
        res = k_exact(alpha)
        num = k_numeric(alpha, records=250, window=40)
        assert res.value is not None
        assert abs(res.value.to_float() - num.estimate) < 1e-9


class TestDirichlet:
    def test_surd17_threshold_five(self):
        wit = dirichlet_witness(SURD17, 5)
        assert str(wit.frac) == "7/2√2"
        assert wit.verify()

    def test_alpha_one_threshold_one(self):
        wit = dirichlet_witness(Surd.of(1), 1)
        assert str(wit.frac) == "√2/1"
        # |1·1 − √2| ≈ 0.414 < (√2+1)/2 ≈ 1.207
        assert wit.verify()

    def test_thresholds_below_one_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            dirichlet_sweep(SURD17, 0)
        with pytest.raises(ValueError, match="at least 1"):
            dirichlet_witness(SURD17, 0)

    def test_sweep_exact(self):
        wits = dirichlet_sweep(SURD17, 60)
        assert len(wits) == 60
        assert all(w.verify() for w in wits)

    def test_sharpness_at_one(self):
        # For the unit value the records approach (√2+1)/2 from below, so no
        # constant below it can work for every threshold.
        seq = uniform_sequence(Surd.of(1), 40)
        last = seq[-1].value
        assert last is not None
        gap = abs(last - EXACT_UPPER)
        assert gap.to_float() < 1e-20

    def test_asymptotic_floor_at_one(self):
        # Past the small-q transient, min over the ladder of q·|q·1 − p| sits
        # just below 1/2 and climbs toward it: the asymptotic floor is 1/2,
        # approached from below.  (Checked empirically; not a certification.)
        from h4approx.hecke_group import denominator_ladder, numerators_near

        one = Surd.of(1)
        best = None
        for q in denominator_ladder(1000):
            if q.cmp(10) < 0:
                continue
            for p in numerators_near(one, q):
                val = abs(one * q - p) * q
                if best is None or val.cmp(best) < 0:
                    best = val
        assert best is not None
        x = best.to_float()
        assert 0.499 < x < 0.5


class TestOptimalityStreams:
    def test_stream_a_converges(self):
        points = optimality_check("A", i_max=3)
        mains = [p for p in points if p.target == QRt2(ZRt2(-1, 1), 1)]
        auxes = [p for p in points if p.target == QRt2(ONE, 1)]
        dm = [p.max_distance() for p in mains]
        da = [p.max_distance() for p in auxes]
        for seq in (dm, da):
            for a, b in zip(seq, seq[1:]):
                assert b.cmp(a) < 0  # distances shrink with i

    def test_stream_b_converges(self):
        points = optimality_check("B", i_max=3)
        dists = [p.max_distance() for p in points]
        for a, b in zip(dists, dists[1:]):
            assert b.cmp(a) < 0

    def test_stream_b_values_above_half(self):
        # Values stay strictly above 1/2 (approaching it only in the limit);
        # the gap shrinks like 5.83^(-3^i), so only small i are separable at
        # reasonable precision.
        for p in optimality_check("B", i_max=2, tol_digits=15):
            assert p.lo.cmp(QRt2(ONE, 2)) > 0


class TestKNumericFlag:
    def test_numeric_never_certified(self):
        res = k_numeric(three_powers_stream(), records=6, window=3)
        assert not res.certified and res.value is None
        assert 0.5 < res.estimate < 1.3


def _eventual_star_sign(pi: tuple[int, ...], j: int, rho: tuple[int, ...]) -> int:
    """Sign of α*_n − 1 for large n in phase j: first non-2 digit reading the
    expansion word backwards from position n (period, then preperiod, then
    the implicit 3-tail)."""
    P = len(pi)
    for k in range(1, P + 1):
        d = pi[(j - k) % P]
        if d != 2:
            return 1 if d == 3 else -1
    for d in reversed(rho):
        if d != 2:
            return 1 if d == 3 else -1
    return 1


def per_phase_word_rows(alpha: Surd):
    """k_exact's value key and phase rows with every phase's tail and
    reversal limit taken as the fixed points of that phase's own forward
    and backward period words, each word a product of its letters."""
    stream = detect_period(alpha)
    rho, pi = stream.preperiod, stream.period
    P = len(pi)
    rows = []
    for j in range(P):
        an = random_periodic_surd([pi[(j + k) % P] for k in range(P)])
        astar = random_periodic_surd([pi[(j - 1 - k) % P] for k in range(P)])
        star, tail, d_next = _eventual_star_sign(pi, j, rho), an.cmp(1), pi[j]
        for side, skip, qualifies in (("tu", 3, tail > 0 or star > 0), ("vw", 1, tail < 0 or star < 0)):
            if d_next != skip and qualifies:
                case, _, _ = classify_transition(side, star, tail, d_next)
                rows.append((j, side, case, case_value(case, an, astar)))
    k = rows[0][3]
    for row in rows[1:]:
        if row[3].cmp(k) > 0:
            k = row[3]
    return k.key(), tuple((j, side, case, v.key()) for j, side, case, v in rows)


def k_exact_rows(alpha: Surd):
    res = k_exact(alpha)
    assert res.value is not None
    return res.value.key(), tuple((p.phase, p.side, p.case, p.value.key()) for p in res.phases)


class TestKExactPhaseSteps:
    """One Möbius step per phase gives the same surds, key for key, as the
    fixed points of every phase's own period words."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.sampled_from([1, 2, 3]), max_size=4),
        st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=7),
    )
    def test_random_words(self, pre, period):
        x = random_periodic_surd(period)
        if x is None:
            return
        m = Mat2.identity()
        for d in pre:
            m = m * DIGIT_MATRICES[d]
        alpha = m.act(x)
        assert k_exact_rows(alpha) == per_phase_word_rows(alpha)

    @pytest.mark.parametrize(
        "literal",
        [
            '{"P":[16,-3],"Q":[0,0],"D":[1,0],"S":[4,0]}',  # period 107
            '{"P":[52,14],"Q":[0,0],"D":[1,0],"S":[7,0]}',  # period 369
        ],
    )
    def test_long_periods(self, literal):
        from h4approx.cli import parse_alpha

        alpha = parse_alpha(literal)
        assert k_exact_rows(alpha) == per_phase_word_rows(alpha)
