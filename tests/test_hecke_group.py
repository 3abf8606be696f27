"""Group matrices, membership forms, canonical fractions and Ford circles."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h4approx.exact_field import ONE, SQRT2, ZERO, QRt2, Surd, ZRt2
from h4approx.hecke_group import (
    A1,
    A2,
    A3,
    DIGIT_DUAL,
    DIGIT_MATRICES,
    H,
    H4Fraction,
    J,
    Mat2,
    NotInQH4,
    R,
    canonicalize,
    canonicalize_pair,
    coprime_neighbours,
    denominator_ladder,
    ford_tangent,
    IDENTITY,
    as_mat2,
    column_fraction,
    generators,
    membership,
    times_digit,
    times_run,
)


def proj_eq(m: Mat2, other: Mat2) -> bool:
    """Equality in PSL2: up to overall sign."""
    return m == other or m == -other


def fraction_of_surd(x: Surd) -> H4Fraction:
    """The canonical fraction of a surd with Q = 0."""
    if not x.is_degenerate():
        raise NotInQH4(f"{x} is irrational")
    return canonicalize_pair(x.P, x.S)


def ford_radius(x: H4Fraction) -> QRt2:
    """Euclidean radius 1/(2q²) of the horocycle based at x."""
    return QRt2.from_ratio(ONE, ZRt2(2, 0) * x.q_squared())


def numerators_near(alpha: Surd, q: ZRt2) -> list[ZRt2]:
    """Nearest admissible numerators on each side of q·α for the canonical
    denominator q: at most one coprime candidate below and one above.
    The floors of q·α and q·α/√2 are exact predicates on alpha."""
    if q.a != 0:
        lo, hi = coprime_neighbours(alpha.floor_linear(q, ZERO, SQRT2), q.a, True)
        return [ZRt2(0, lo), ZRt2(0, hi)]
    lo, hi = coprime_neighbours(alpha.floor_linear(q, ZERO, ONE), q.b, False)
    return [ZRt2(lo, 0), ZRt2(hi, 0)]


class TestGenerators:
    def test_det_a2(self):
        assert A2.det() == ONE

    def test_r_fourth_power_projective_identity(self):
        assert proj_eq(R**4, Mat2.identity())

    def test_digit_inverse_conjugation(self):
        for d, m in DIGIT_MATRICES.items():
            assert H * m * H == m.inverse()

    def test_digit_dual_conjugation(self):
        for d, m in DIGIT_MATRICES.items():
            assert J * m * J == DIGIT_MATRICES[DIGIT_DUAL[d]]

    def test_a_matrices_are_r_power_times_s(self):
        g = generators()
        assert A1 == R * g["S"]
        assert A2 == R * R * g["S"]
        assert A3 == R * R * R * g["S"]

    def test_interval_images(self):
        # A1·[0,∞] = [0,1/√2], A2·[0,∞] = [1/√2,√2], A3·[0,∞] = [√2,∞]
        inv_sqrt2 = Surd.from_ratio(ONE, SQRT2)
        assert A1.act(Surd.of(0)).cmp(0) == 0
        assert A2.act(Surd.of(0)).cmp(inv_sqrt2) == 0
        assert A3.act(Surd.of(0)).cmp(SQRT2) == 0
        assert A1.t == ONE and A1.u == SQRT2  # A1·∞ = 1/√2


class TestMembership:
    def test_generators_members(self):
        for m in (A1, A2, A3, R, generators()["T"], generators()["S"]):
            assert membership(m)

    def test_unit_translation_not_member(self):
        assert not membership(Mat2.of(1, 1, 0, 1))

    def test_involutions_not_members(self):
        assert not membership(H)
        assert not membership(J)

    @settings(max_examples=80)
    @given(st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=20))
    def test_words_stay_in_group(self, word):
        m = Mat2.identity()
        for d in word:
            m = m * DIGIT_MATRICES[d]
        assert m.det() == ONE
        assert membership(m)


class TestCanonicalize:
    def test_inv_sqrt2(self):
        # 1/√2 = √2·(1/2): p = 1, q = √2; Ford radius 1/4.
        f = canonicalize(1, 2)
        assert f.p == ONE and f.q == SQRT2
        assert ford_radius(f) == QRt2(ONE, 4)

    def test_two_sqrt2(self):
        f = canonicalize(2, 1)
        assert f.p == ZRt2(0, 2) and f.q == ONE

    def test_zero(self):
        f = canonicalize(0, 1)
        assert f.p == ZRt2(0, 0) and f.q == ONE

    def test_pair_reduction(self):
        # (2√2)/(2) = √2/1
        f = canonicalize_pair(ZRt2(0, 2), ZRt2(2, 0))
        assert f.p == SQRT2 and f.q == ONE

    def test_rejects_non_sqrt2_rational(self):
        with pytest.raises(NotInQH4):
            canonicalize_pair(ONE, ZRt2(3, 0))

    def test_fraction_of_surd(self):
        f = fraction_of_surd(Surd.from_ratio(ZRt2(7, 0), ZRt2(0, 2)))
        assert f.p == ZRt2(7, 0) and f.q == ZRt2(0, 2)

    @given(st.integers(-400, 400), st.integers(1, 400))
    def test_roundtrip(self, m, n):
        f = canonicalize(m, n)
        # Value round-trips exactly through the canonical pair.
        back = canonicalize_pair(f.p, f.q)
        assert back == f
        v = f.value_qrt2()
        assert (v - QRt2(ZRt2(0, m), n)).sign() == 0
        # Denominator family matches the reduced-denominator parity rule.
        from math import gcd

        g = gcd(m, n)
        if (n // g) % 2:
            assert f.family == "Sqrt2OverOdd"
        else:
            assert f.family == "OddOverSqrt2"


class TestFordTangency:
    def test_zero_and_inv_sqrt2(self):
        assert ford_tangent(canonicalize(0, 1), canonicalize(1, 2))

    def test_zero_and_sqrt2_not_tangent(self):
        assert not ford_tangent(canonicalize(0, 1), canonicalize(1, 1))

    def test_group_columns_always_tangent(self):
        m = A3 * A2 * A3 * A1
        x = canonicalize_pair(m.t, m.u)
        y = canonicalize_pair(m.v, m.w)
        assert ford_tangent(x, y)

    @settings(max_examples=40)
    @given(st.lists(st.sampled_from([1, 2, 3]), min_size=2, max_size=14))
    def test_tangency_from_determinant(self, word):
        m = Mat2.identity()
        for d in word:
            m = m * DIGIT_MATRICES[d]
        if m.u.is_zero() or m.w.is_zero():
            return
        assert ford_tangent(canonicalize_pair(m.t, m.u), canonicalize_pair(m.v, m.w))


class TestLadder:
    def test_prefix(self):
        got = [str(q) for q in denominator_ladder(5)]
        assert got == ["1", "√2", "2√2", "3", "3√2", "5"]

    def test_all_below_bound_and_sorted(self):
        vals = list(denominator_ladder(40))
        for a, b in zip(vals, vals[1:]):
            assert a.cmp(b) < 0
        assert all(v.cmp(40) <= 0 for v in vals)

    def test_numerators_bracket_target(self):
        alpha = Surd(ZRt2(3, 0), ONE, ZRt2(17, 0), ZRt2(0, 2))
        for q in denominator_ladder(12):
            lo, hi = numerators_near(alpha, q)
            target = alpha * q
            assert Surd.from_ratio(lo, ONE).cmp(target) <= 0 <= Surd.from_ratio(hi, ONE).cmp(target)


def oracle_between_fractions(a, c, b, d, qmax):
    """Brute enumeration of canonical fractions strictly between a/c and b/d
    with denominator value ≤ qmax (used as the Lemma-1 oracle)."""
    lo = QRt2.from_ratio(a, c)
    hi = QRt2.from_ratio(b, d)
    if lo.cmp(hi) > 0:
        lo, hi = hi, lo
    found = []
    for q in denominator_ladder(qmax):
        if q.a != 0:
            cands = [ZRt2(0, n) for n in range(-4 * q.a, 4 * q.a + 1)]
        else:
            cands = [ZRt2(n, 0) for n in range(-6 * q.b, 6 * q.b + 1, 2) if n % 2]
        for p in cands:
            v = QRt2.from_ratio(p, q)
            if lo.cmp(v) < 0 and v.cmp(hi) < 0:
                try:
                    f = canonicalize_pair(p, q)
                except NotInQH4:
                    continue
                if f.q == q:
                    found.append(f)
    return found


class TestBetweenTangentPairs:
    def test_denominator_lower_bound(self):
        # For tangent pairs from convergent columns, anything strictly between
        # has denominator at least the sum of the endpoint denominators.
        m = Mat2.identity()
        for d in (3, 2, 3, 1, 2, 1):
            m = m * DIGIT_MATRICES[d]
            if m.u.is_zero():
                continue
            c, dd = m.u, m.w
            qsum = c + dd
            for f in oracle_between_fractions(m.t, m.u, m.v, m.w, 50):
                assert f.q.cmp(qsum) >= 0


INTS = st.integers(-(10**30), 10**30)
WORDS = st.lists(st.sampled_from([1, 2, 3]), max_size=60)


class TestTimesDigit:
    @settings(max_examples=200, deadline=None)
    @given(INTS, INTS, INTS, INTS, st.sampled_from([0, 1]), WORDS)
    def test_integer_step_is_the_matrix_product(self, t, v, u, w, parity, word):
        """From a state of either parity, the integer step's Mat2 view
        equals the product of the digit matrices."""
        g = (t, v, u, w, parity)
        m = as_mat2(g)
        for d in word:
            g = times_digit(g, d)
            m = m * DIGIT_MATRICES[d]
            assert as_mat2(g) == m
        assert g[4] == (parity + word.count(2)) % 2

    @settings(max_examples=200, deadline=None)
    @given(INTS, INTS, INTS, INTS, st.sampled_from([0, 1]), st.sampled_from([1, 3]), st.integers(1, 60))
    def test_a_run_is_its_digits_one_at_a_time(self, t, v, u, w, parity, d, k):
        """times_run(G, d, k), the closed form of a run of 1s or 3s, is k
        calls of times_digit from a state of either parity."""
        g = (t, v, u, w, parity)
        step = g
        for _ in range(k):
            step = times_digit(step, d)
        assert times_run(g, d, k) == step

    @settings(max_examples=200, deadline=None)
    @given(WORDS)
    def test_digit_chains_are_group_members(self, word):
        """Every G_n has det 1 and a parity form, so its columns are
        canonical fractions as they stand."""
        g = IDENTITY
        for d in word:
            g = times_digit(g, d)
            m = as_mat2(g)
            assert membership(m)
            if g[2]:
                assert column_fraction(g, "tu") == canonicalize_pair(m.t, m.u)
            assert column_fraction(g, "vw") == canonicalize_pair(m.v, m.w)

    def test_digit_expansion_builds_no_zrt2_and_no_mat2(self, monkeypatch):
        """Digits and G_n advance on plain ints: word(1000) of a bound-5
        surd constructs no ZRt2 and no Mat2 (17,016 and 1,507 when G_n was
        a Mat2 over Z[√2]).  The walk over those digits builds no Mat2 and
        reads its fractions without canonicalize_pair."""
        from h4approx import best_approx
        from h4approx.cli import make_corpus
        from h4approx.h4_expansion import Expansion

        alpha = make_corpus(1, 5, 5)[3]
        built = {ZRt2: 0, Mat2: 0}

        def counted(cls):
            init = cls.__init__

            def counting(self, *args):
                built[cls] += 1
                init(self, *args)

            monkeypatch.setattr(cls, "__init__", counting)

        counted(ZRt2)
        counted(Mat2)
        assert ZRt2(1, 0) * ZRt2(0, 1) == SQRT2 and Mat2(ONE, SQRT2, SQRT2, ONE).v == SQRT2
        assert built == {ZRt2: 3, Mat2: 1}, "the counters must see construction"
        built.update({ZRt2: 0, Mat2: 0})
        exp = Expansion(alpha)
        assert len(exp.word(1000)) == 1000
        assert built == {ZRt2: 0, Mat2: 0}

        def refused(p, q):
            raise AssertionError("the walk called canonicalize_pair")

        monkeypatch.setattr(best_approx, "canonicalize_pair", refused)
        assert len(best_approx.best_approximations(exp, max_count=100, cap=1000)) == 100
        assert built[Mat2] == 0

    def test_no_matrix_product_on_production_paths(self, monkeypatch):
        """The walks, the tail window, the period phases and the selectors
        advance G by times_digit alone: Mat2.__mul__ is never called."""
        from h4approx.h4_expansion import Expansion, four_blocks_stream
        from h4approx.rosen_cf import rosen_convergents
        from h4approx.uniform_approx import k_exact, optimality_check

        calls = 0
        real_mul = Mat2.__mul__

        def counted_mul(self, other):
            nonlocal calls
            calls += 1
            return real_mul(self, other)

        surd17 = Surd(ZRt2(3, 0), ONE, ZRt2(17, 0), ZRt2(0, 2))
        monkeypatch.setattr(Mat2, "__mul__", counted_mul)
        assert A1 * A3 == real_mul(A1, A3) and calls == 1  # the patch is live
        calls = 0
        Expansion(four_blocks_stream()).word(2000)
        optimality_check("B", 3)
        k_exact(surd17)
        rosen_convergents(surd17, 8)
        assert calls == 0
