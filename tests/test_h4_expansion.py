"""Digit expansions: digits, convergent matrices, tails, reversals, periods."""

from __future__ import annotations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from h4approx import h4_expansion
from h4approx.exact_field import ONE, SQRT2, QRt2, Surd, ZRt2
from h4approx.hecke_group import DIGIT_MATRICES, DIGIT_MATRICES_INV, IDENTITY, Mat2, as_mat2, times_digit
from h4approx.h4_expansion import (
    CapExceeded,
    Expansion,
    FiniteWord,
    PeriodicStream,
    RuleStream,
    Terminated,
    detect_period,
    four_blocks_stream,
    normalize_alpha,
    three_powers_stream,
)
from tests.test_rosen_cf import HUGE_QUOTIENT, random_periodic_surd

SURD17 = Surd(ZRt2(3, 0), ONE, ZRt2(17, 0), ZRt2(0, 2))  # (3+√17)/(2√2)
INV_SQRT2 = Surd.from_ratio(ONE, SQRT2)


def terminated_length(exp: Expansion) -> int | None:
    """The length at which a √2·Q value's expansion ended, once reached."""
    return len(exp._digits) if exp._boundary is not None else None


def next_digit(x: Surd) -> tuple[int, Surd]:
    """The reference digit step on exact tails: the digit selecting the
    interval of x in (0,∞) and the tail A_d⁻¹·x.  x is placed against 1/√2
    by the sign of x·√2 − 1 and against √2 by one comparison.

    Raises Terminated when x is 0 or a boundary point (both in √2·Q).
    """
    s = x.sign()
    if s < 0:
        raise ValueError("expansion is defined for positive values")
    if s == 0:
        raise Terminated("zero")
    c1 = x.linear_sign(SQRT2, ONE)
    if c1 == 0:
        raise Terminated("inv_sqrt2")
    if c1 < 0:
        d = 1
    else:
        c2 = x.cmp(SQRT2)
        if c2 == 0:
            raise Terminated("sqrt2")
        d = 2 if c2 < 0 else 3
    return d, DIGIT_MATRICES_INV[d].act(x)


def chain_period(alpha: Surd, cap: int):
    """The reference period scan, with no certificate: the next_digit chain
    of exact tails, keyed by canonical surd equality.  The same outcome as
    detect_period, with CapExceeded returned rather than raised."""
    seen = {alpha.key(): 0}
    digits: list[int] = []
    tail = alpha
    for i in range(1, cap + 1):
        try:
            d, tail = next_digit(tail)
        except Terminated as exc:
            return FiniteWord(tuple(digits), exc.boundary)
        digits.append(d)
        if tail.key() in seen:
            start = seen[tail.key()]
            return PeriodicStream(tuple(digits[:start]), tuple(digits[start:i]))
        seen[tail.key()] = i
    return CapExceeded


def scan_period(alpha: Surd, cap: int):
    """detect_period's outcome, with CapExceeded returned rather than raised."""
    try:
        return detect_period(alpha, cap)
    except CapExceeded:
        return CapExceeded


class TestNextDigit:
    def test_one_is_fixed_by_middle_digit(self):
        d, tail = next_digit(Surd.of(1))
        assert d == 2 and tail.cmp(1) == 0

    def test_surd17_first_step(self):
        d, tail = next_digit(SURD17)
        assert d == 3
        assert tail == SURD17 - Surd.sqrt2()

    def test_three(self):
        d, tail = next_digit(Surd.of(3))
        assert d == 3 and tail.cmp(Surd.of(3) - Surd.sqrt2()) == 0

    def test_boundaries_terminate(self):
        with pytest.raises(Terminated):
            next_digit(INV_SQRT2)
        with pytest.raises(Terminated):
            next_digit(Surd.sqrt2())
        with pytest.raises(Terminated):
            next_digit(Surd.of(0))


class TestConvergents:
    def test_surd17_digits(self):
        exp = Expansion(SURD17)
        assert exp.word(7) == (3, 2, 3, 1, 2, 1, 3)

    def test_surd17_g2_through_g6(self):
        exp = Expansion(SURD17)
        # G_5's lower-left entry is forced to 7√2 by det G_5 = 1 and by
        # G_6 = G_5·A1; the value 9√2 sometimes quoted fails both.
        expect = {
            2: Mat2.of(ZRt2(0, 2), 3, 1, SQRT2),
            3: Mat2.of(ZRt2(0, 2), 7, 1, ZRt2(0, 2)),
            4: Mat2.of(ZRt2(0, 9), 7, 5, ZRt2(0, 2)),
            5: Mat2.of(25, ZRt2(0, 16), ZRt2(0, 7), 9),
            6: Mat2.of(57, ZRt2(0, 16), ZRt2(0, 16), 9),
        }
        for n, m in expect.items():
            assert exp.matrix(n) == m

    def test_surd17_star_signs(self):
        exp = Expansion(SURD17)
        # α*_2 = √2/1 > 1 and α*_3 > 1; α*_4, α*_5, α*_6 < 1.
        g2 = exp.matrix(2)
        assert not g2.u.is_zero() and Surd.from_ratio(g2.w, g2.u).cmp(SQRT2) == 0
        assert [exp.star_cmp_one(n) for n in range(2, 7)] == [1, 1, -1, -1, -1]

    def test_surd17_tail_signs(self):
        exp = Expansion(SURD17)
        assert [exp.tail_cmp_one(n) for n in range(2, 7)] == [1, -1, -1, -1, 1]

    def test_alpha_one_powers(self):
        exp = Expansion(Surd.of(1))
        m = Mat2.identity()
        for n in range(1, 7):
            m = m * DIGIT_MATRICES[2]
            assert exp.matrix(n) == m
            tail = exp.tail(n)
            assert tail is not None and tail.cmp(1) == 0

    def test_tail_matches_mobius_inverse(self):
        exp = Expansion(SURD17)
        for n in range(1, 10):
            tail = exp.tail(n)
            assert tail is not None
            assert exp.matrix(n).act(tail) == SURD17

    def test_interval_nesting(self):
        exp = Expansion(SURD17)
        prev_lo, prev_hi = None, None
        for n in range(1, 25):
            g = exp.matrix(n)
            if g.u.is_zero():
                continue
            lo = Surd.from_ratio(g.v, g.w)
            hi = Surd.from_ratio(g.t, g.u)
            assert lo < SURD17 < hi
            if prev_lo is not None:
                assert prev_lo <= lo and hi <= prev_hi
            prev_lo, prev_hi = lo, hi

    def test_det_one_and_reversal_identity(self):
        exp = Expansion(SURD17)
        for n in range(1, 16):
            g = exp.matrix(n)
            assert g.det() == ONE
            rev = Mat2.identity()
            for d in reversed(exp.word(n)):
                rev = rev * DIGIT_MATRICES[d]
            assert rev == Mat2(g.w, g.v, g.u, g.t)

    def test_min_denominator_nondecreasing(self):
        exp = Expansion(SURD17)
        prev = ZRt2(0, 0)
        for n in range(1, 30):
            g = exp.matrix(n)
            cur = g.u if (g.u - g.w).sign() < 0 else g.w
            assert cur.cmp(prev) >= 0
            prev = cur
        assert prev.cmp(100) > 0

    def test_alpha_star_is_reversed_word_value(self):
        exp = Expansion(SURD17)
        for n in range(2, 12):
            rev = Mat2.identity()
            for d in reversed(exp.word(n)):
                rev = rev * DIGIT_MATRICES[d]
            # [d_n, ..., d_1, 3^∞] = reversed-word image of ∞ = w_n/u_n
            g = exp.matrix(n)
            assert not g.u.is_zero()
            assert Surd.from_ratio(rev.t, rev.u) == Surd.from_ratio(g.w, g.u)


class TestDetectPeriod:
    def test_surd17(self):
        stream = detect_period(SURD17)
        assert isinstance(stream, PeriodicStream)
        assert stream.preperiod == ()
        assert stream.period == (3, 2, 3, 1, 2, 1)

    def test_one(self):
        stream = detect_period(Surd.of(1))
        assert isinstance(stream, PeriodicStream)
        assert stream.preperiod == () and stream.period == (2,)

    def test_inv_sqrt2_terminates_with_both_completions(self):
        stream = detect_period(INV_SQRT2)
        assert isinstance(stream, FiniteWord)
        assert stream.digits == () and stream.boundary == "inv_sqrt2"
        lo, hi = stream.completions()
        assert (lo.preperiod, lo.period) == ((1,), (3,))
        assert (hi.preperiod, hi.period) == ((2,), (1,))

    def test_five_over_sqrt2(self):
        stream = detect_period(Surd.from_ratio(ZRt2(5, 0), SQRT2))
        assert isinstance(stream, FiniteWord)
        assert stream.digits == (3, 3) and stream.boundary == "inv_sqrt2"

    def test_sqrt2_plus_one(self):
        # √2+1 is a quadratic unit: purely periodic expansion.
        stream = detect_period(Surd.of(ZRt2(1, 1)))
        assert isinstance(stream, PeriodicStream)
        value = Surd.of(ZRt2(1, 1))
        exp = Expansion(value)
        assert exp.word(len(stream.preperiod) + len(stream.period)) == (
            stream.preperiod + stream.period
        )

    def test_nonperiodic_surd_hits_cap(self):
        # 1+√7 is quadratic over Q(√2) but is not a fixed point of any group
        # element, so its expansion never cycles.
        from h4approx.h4_expansion import CapExceeded

        with pytest.raises(CapExceeded):
            detect_period(Surd(ONE, ONE, ZRt2(7, 0), ONE), cap=300)

    def test_certified_nonperiodic_builds_no_tail(self, monkeypatch):
        """A surd that fails may_be_periodic raises at once: no digit step
        and no Surd, whatever the cap."""
        inputs = [Surd(ONE, ONE, ZRt2(7, 0), ONE),  # 1 + √7
                  Surd(ZRt2(-3, -3), ZRt2(6, 4), ZRt2(-1, 2), ONE)]
        counts = {"digit": 0, "surd": 0}
        real_step, real_post_init = h4_expansion._beta_step, Surd.__post_init__

        def counted_step(*args):
            counts["digit"] += 1
            return real_step(*args)

        def counted_post_init(self):
            counts["surd"] += 1
            real_post_init(self)

        monkeypatch.setattr(h4_expansion, "_beta_step", counted_step)
        monkeypatch.setattr(Surd, "__post_init__", counted_post_init)
        assert detect_period(Surd.of(1)) == PeriodicStream((), (2,))
        assert counts == {"digit": 1, "surd": 1}, "the counters must see digit steps and surds"
        counts.update(digit=0, surd=0)
        for alpha in inputs:
            with pytest.raises(CapExceeded) as exc:
                detect_period(alpha)
            assert counts == {"digit": 0, "surd": 0}
            assert "not quadratic over Q" in str(exc.value)

    def test_certificate_agrees_with_the_scan_on_the_corpus(self):
        """With the certificate bypassed through the reference chain, each
        corpus input gets the same result at cap 300: every input it
        rejects still hits the cap."""
        from h4approx.cli import make_corpus

        corpus = make_corpus(1, 100, 5)
        rejected = [alpha for alpha in corpus if not h4_expansion.may_be_periodic(alpha)]
        assert [scan_period(alpha, 300) for alpha in corpus] == [chain_period(alpha, 300) for alpha in corpus]
        assert 0 < len(rejected) < len(corpus)

    @pytest.mark.parametrize("cap", [200, 20_000])
    def test_triple_scan_agrees_with_the_chain(self, cap):
        """The integer triple scan and the exact-tail chain give the same
        stream, finite word or tripped cap on passing corpus inputs, the
        period-107 and period-369 literals, and p√2/q, p/(q√2) and p/q."""
        from h4approx.cli import make_corpus

        inputs = [alpha for alpha in make_corpus(1, 2400, 5) if h4_expansion.may_be_periodic(alpha)]
        assert len(inputs) == 233
        inputs += [Surd.from_ratio(ZRt2(16, -3), ZRt2(4, 0)),  # period 107
                   Surd.from_ratio(ZRt2(52, 14), ZRt2(7, 0))]  # period 369
        for p in range(1, 10):
            for q in range(1, 10):
                inputs += [Surd.from_ratio(ZRt2(0, p), ZRt2(q, 0)), Surd.from_ratio(ZRt2(p, 0), ZRt2(0, q)),
                           Surd.from_ratio(ZRt2(p, 0), ZRt2(q, 0))]
        outcomes = [scan_period(alpha, cap) for alpha in inputs]
        assert outcomes == [chain_period(alpha, cap) for alpha in inputs]
        periods = {len(o.period) for o in outcomes if isinstance(o, PeriodicStream)}
        assert {107, 369} <= periods if cap > 369 else 107 in periods
        assert any(isinstance(o, FiniteWord) for o in outcomes)

    def test_scan_builds_no_surd_and_no_mat2(self, monkeypatch):
        """On inputs that pass may_be_periodic, detect_period runs on
        integer triples alone: no Surd and no Mat2 is constructed."""
        from h4approx.cli import make_corpus

        inputs = [alpha for alpha in make_corpus(1, 400, 5) if h4_expansion.may_be_periodic(alpha)]
        inputs += [Surd.from_ratio(ZRt2(52, 14), ZRt2(7, 0)), Surd.from_ratio(ZRt2(5, 0), SQRT2), Surd.of(3)]
        built = {Surd: 0, Mat2: 0}
        real_post_init, real_mat2_init = Surd.__post_init__, Mat2.__init__

        def counted_surd(self):
            built[Surd] += 1
            real_post_init(self)

        def counted_mat2(self, *args):
            built[Mat2] += 1
            real_mat2_init(self, *args)

        monkeypatch.setattr(Surd, "__post_init__", counted_surd)
        monkeypatch.setattr(Mat2, "__init__", counted_mat2)
        assert Surd.of(1) is not None and Mat2.identity() is not None
        assert built == {Surd: 1, Mat2: 1}, "the counters must see construction"
        built.update({Surd: 0, Mat2: 0})
        streams = [detect_period(alpha) for alpha in inputs]
        assert built == {Surd: 0, Mat2: 0}
        assert sum(isinstance(s, PeriodicStream) for s in streams) == len(inputs) - 1

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from([1, 2, 3]), max_size=5),
           st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=5))
    def test_eventually_periodic_surds_pass(self, rho, word):
        """α = G_ρ·x, x the attracting fixed point of a period word, passes
        the certificate and is found periodic."""
        from h4approx.hecke_group import IDENTITY, as_mat2, times_digit
        from h4approx.uniform_approx import _attracting_fixed_point

        if set(word) <= {1} or set(word) <= {3}:
            return  # parabolic: fixed point on the boundary
        x = _attracting_fixed_point(tuple(word))
        if x.is_sqrt2_rational():
            return
        g = IDENTITY
        for d in rho:
            g = times_digit(g, d)
        alpha = as_mat2(g).act(x)
        assert h4_expansion.may_be_periodic(alpha)
        stream = detect_period(alpha)
        assert isinstance(stream, PeriodicStream)
        upto = len(rho) + 2 * len(word)
        assert tuple(stream.digit(i) for i in range(1, upto + 1)) == tuple(rho) + tuple(word) * 2

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=6))
    def test_fixed_points_of_words_are_purely_periodic(self, word):
        from h4approx.exact_field import quad_root
        from h4approx.hecke_group import DIGIT_MATRICES as MATS

        if set(word) == {1} or set(word) == {3}:
            return  # parabolic: fixed point on the boundary
        m = Mat2.identity()
        for d in word:
            m = m * MATS[d]
        # Positive fixed point of the word matrix: u x² + (w−t) x − v = 0.
        try:
            x = quad_root(m.u, m.w - m.t, -m.v, "+")
        except ValueError:
            return
        if x.is_degenerate() and x.is_sqrt2_rational():
            return
        stream = detect_period(x, cap=200)
        assert isinstance(stream, PeriodicStream)
        assert stream.preperiod == ()
        upto = 2 * len(word)
        assert Expansion(x).word(upto) == tuple(
            stream.digit(i) for i in range(1, upto + 1)
        )
        # The period is the primitive root of the generating word.
        reps = len(word) // len(stream.period)
        assert stream.period * reps == tuple(word)


class TestCompareTail:
    def test_all_two_tail(self):
        stream = PeriodicStream((), (2,))
        assert Expansion(stream).tail_cmp_one(5) == 0

    def test_three_leads(self):
        stream = PeriodicStream((), (3, 2))
        assert Expansion(stream).tail_cmp_one(0) == 1

    def test_two_two_one(self):
        stream = PeriodicStream((2, 2, 1), (3,))
        assert Expansion(stream).tail_cmp_one(0) == -1
        # Cross-check on a matching exact value: A2·A2·A1·1 = (7+2√2)/(3+5√2)
        # has digits (2,2,1,2,2,...) and is below 1.
        alpha = Surd.from_ratio(ZRt2(7, 2), ZRt2(3, 5))
        exp = Expansion(alpha)
        assert exp.word(4) == (2, 2, 1, 2)
        assert alpha.cmp(1) == -1

    def test_rule_streams(self):
        fb = four_blocks_stream()
        assert [fb.digit(n) for n in range(1, 17)] == [3, 2, 1, 3, 3, 3, 3, 2, 2, 2, 2, 1, 1, 1, 1, 3]
        tp = three_powers_stream()
        assert [tp.digit(n) for n in range(1, 11)] == [3, 2, 3, 2, 2, 2, 2, 2, 3, 2]
        assert fb.next_non_two(8) == 12
        assert tp.next_non_two(9) == 27
        assert Expansion(tp).tail_cmp_one(9) == 1

    def test_stream_backed_expansion_matches_surd(self):
        stream = detect_period(SURD17)
        exact = Expansion(SURD17)
        symbolic = Expansion(stream)
        for n in range(1, 20):
            assert exact.digit(n) == symbolic.digit(n)
            assert exact.tail_cmp_one(n) == symbolic.tail_cmp_one(n)
            assert exact.star_cmp_one(n) == symbolic.star_cmp_one(n)

    def test_finite_words_agree_with_the_surd_up_to_the_end(self):
        """Where only 2s follow index n up to the end of a √2·Q value, its
        boundary decides sign(α_n − 1): A2 fixes 1 and is increasing, 1/√2
        lies below 1 and √2 above.  Both backends agree at every index up
        to the end, and past it both raise the same Terminated."""
        three_over_2rt2 = Surd.from_ratio(ZRt2(3, 0), ZRt2(0, 2))
        assert detect_period(three_over_2rt2) == FiniteWord((2,), "sqrt2")
        assert Expansion(detect_period(three_over_2rt2)).tail_cmp_one(0) == 1
        for a in range(1, 10):
            for b in range(1, 10):
                for alpha in (
                    Surd.from_ratio(ZRt2(0, a), ZRt2(b, 0)),  # a√2/b
                    Surd.from_ratio(ZRt2(a, 0), ZRt2(0, b)),  # a/(b√2)
                ):
                    word = detect_period(alpha)
                    assert isinstance(word, FiniteWord)
                    exact, symbolic = Expansion(alpha), Expansion(word)
                    end = len(word.digits)
                    for n in range(end + 1):
                        assert symbolic.tail_cmp_one(n) == exact.tail_cmp_one(n), (alpha, n)
                    for exp in (exact, symbolic):
                        with pytest.raises(Terminated) as info:
                            exp.tail_cmp_one(end + 1)
                        assert (info.value.boundary, info.value.length) == (word.boundary, end)

    def test_tail_bounds_enclose(self):
        stream = detect_period(SURD17)
        exact = Expansion(SURD17)
        symbolic = Expansion(stream)
        for n in (1, 4, 9):
            lo, hi = symbolic.tail_bounds(n, tol_digits=25)
            tail = exact.tail(n)
            assert tail is not None
            assert tail.cmp(Surd.of(lo)) > 0 and tail.cmp(Surd.of(hi)) < 0


def _chain(alpha: Surd, n_max: int):
    """The next_digit route: (digit, exact tail) for n = 1.. until n_max or
    the boundary, and the boundary reached (None when none was)."""
    steps, x = [], alpha
    try:
        while len(steps) < n_max:
            d, x = next_digit(x)
            steps.append((d, x))
    except Terminated as exc:
        return steps, exc.boundary
    return steps, None


class TestPredicateEngine:
    """The surd backend decides digits and tail signs by α.linear_sign on
    G_n alone; the next_digit chain of exact tails is the independent
    route it must agree with."""

    def test_agrees_with_next_digit_chain_on_corpus(self):
        from h4approx.cli import make_corpus

        for alpha in make_corpus(seed=1, size=20, coeff_bound=5):
            steps, boundary = _chain(alpha, 200)
            assert boundary is None
            exp = Expansion(alpha)
            assert exp.word(200) == tuple(d for d, _ in steps)
            for n, (_, tail) in enumerate(steps, start=1):
                assert exp.tail(n).key() == tail.key()
                assert exp.tail_cmp_one(n) == tail.cmp(1) == tail.cmp(Surd.of(1))

    def test_sqrt2_rationals_terminate_like_the_chain(self):
        seen = set()
        for a in range(1, 10):
            for b in range(1, 10):
                for alpha in (
                    Surd.from_ratio(ZRt2(0, a), ZRt2(b, 0)),  # a√2/b
                    Surd.from_ratio(ZRt2(a, 0), ZRt2(0, b)),  # a/(b√2)
                ):
                    steps, boundary = _chain(alpha, 10_000)
                    assert boundary is not None
                    exp = Expansion(alpha)
                    with pytest.raises(Terminated) as info:
                        exp.word(len(steps) + 1)
                    assert info.value.boundary == boundary
                    assert terminated_length(exp) == info.value.length == len(steps)
                    assert exp.word(len(steps)) == tuple(d for d, _ in steps)
                    seen.add(boundary)
        assert seen == {"inv_sqrt2", "sqrt2"}

    def test_digits_and_sign_queries_build_no_surd(self, monkeypatch):
        from h4approx.cli import make_corpus

        alpha = make_corpus(1, 5, 5)[3]
        built = []
        normalize = Surd.__post_init__

        def counting(self):
            built.append(1)
            normalize(self)

        monkeypatch.setattr(Surd, "__post_init__", counting)
        Surd.of(1)
        assert len(built) == 1, "the counter must see surd construction"
        built.clear()
        exp = Expansion(alpha)
        exp.word(500)
        for n in range(1, 501):
            exp.tail_cmp_one(n)
            exp.star_cmp_one(n)
        assert len(built) == 0


def _window_tail_sign(exp: Expansion, n: int) -> int:
    """sign(α_n − 1) from the matrices alone: the window W = A_{d_{n+1}}···A_{d_k}
    maps (0, ∞) onto an interval holding α_n, and the first k where W·0 and
    W·∞ lie on one side of 1 decides."""
    w = Mat2.identity()
    for k in range(n + 1, n + 10_000):
        w = w * DIGIT_MATRICES[exp.digit(k)]
        low, high = (w.v - w.w).sign(), (w.t - w.u).sign()
        if low == high != 0:
            return low
    raise AssertionError("window never left 1")


def _periodic_value(stream: PeriodicStream) -> Surd:
    """The value of an eventually periodic word: G_ρ applied to [π^∞]."""
    g = Mat2.identity()
    for d in stream.preperiod:
        g = g * DIGIT_MATRICES[d]
    return g.act(random_periodic_surd(list(stream.period)))


class TestSignsFromDigits:
    """star_cmp_one and tail_cmp_one read off the digit word, against the
    routes that do not: sign(w_n − u_n) of G_n for the reversal, and the
    next_digit chain's tail.cmp(1), or the lookahead window, for the tail."""

    N = 300

    def check_against_chain(self, exp: Expansion, alpha: Surd) -> int:
        """Both signs for n = 0..N or up to the boundary index; returns the
        last index checked."""
        steps, boundary = _chain(alpha, self.N)
        tails = [alpha] + [tail for _, tail in steps]
        for n, tail in enumerate(tails):
            g = exp.matrix(n)
            assert exp.star_cmp_one(n) == (g.w - g.u).sign(), n
            assert exp.tail_cmp_one(n) == tail.cmp(1), n
        if boundary is not None:
            for query in (exp.matrix, exp.tail_cmp_one, exp.star_cmp_one):
                with pytest.raises(Terminated) as info:
                    query(len(steps) + 1)
                assert (info.value.boundary, info.value.length) == (boundary, len(steps))
        return len(tails) - 1

    def test_corpus(self):
        from h4approx.cli import make_corpus

        for alpha in make_corpus(1, 20, 5):
            assert self.check_against_chain(Expansion(alpha), alpha) == self.N

    def test_one_is_an_all_two_tail(self):
        exp = Expansion(Surd.of(1))
        self.check_against_chain(exp, Surd.of(1))
        assert {exp.tail_cmp_one(n) for n in range(self.N)} == {0}
        assert {exp.star_cmp_one(n) for n in range(self.N)} == {1}

    def test_sqrt2_rationals_up_to_the_boundary(self):
        for a in range(1, 10):
            for b in range(1, 10):
                for alpha in (
                    Surd.from_ratio(ZRt2(0, a), ZRt2(b, 0)),  # a√2/b
                    Surd.from_ratio(ZRt2(a, 0), ZRt2(0, b)),  # a/(b√2)
                ):
                    exp = Expansion(alpha)
                    assert self.check_against_chain(exp, alpha) == terminated_length(exp)

    @pytest.mark.parametrize(
        "stream",
        [PeriodicStream((), (2,)), PeriodicStream((3, 1), (2,)), PeriodicStream((2, 2), (1, 2))],
        ids=lambda s: f"{s.preperiod}+{s.period}",
    )
    def test_periodic_streams(self, stream):
        alpha = _periodic_value(stream)
        assert Expansion(alpha).word(20) == Expansion(stream).word(20)
        assert self.check_against_chain(Expansion(stream), alpha) == self.N

    @pytest.mark.parametrize("stream", [four_blocks_stream(), three_powers_stream()], ids=lambda s: s.name)
    def test_rule_streams(self, stream):
        exp = Expansion(stream)
        for n in range(self.N + 1):
            g = exp.matrix(n)
            assert exp.star_cmp_one(n) == (g.w - g.u).sign(), n
            assert exp.tail_cmp_one(n) == _window_tail_sign(exp, n), n


class TestStreamDigitsChecked:
    """A stream digit outside {1, 2, 3} is refused where it is read, not
    taken as a 2."""

    @pytest.mark.parametrize(
        "stream, index, digit",
        [
            (PeriodicStream((1, 3), (2, 2, 4)), 5, 4),
            (RuleStream("zero-at-seven", lambda n: 0 if n == 7 else 2), 7, 0),
        ],
        ids=["periodic", "rule"],
    )
    def test_raises_at_first_bad_index(self, stream, index, digit):
        exp = Expansion(stream)
        assert len(exp.word(index - 1)) == index - 1
        with pytest.raises(ValueError, match=f"digit {digit} at index {index}"):
            exp.word(index)

    def test_walk_refuses_a_bad_period(self):
        from h4approx.best_approx import best_approximations

        with pytest.raises(ValueError, match="digit 7 at index 1"):
            best_approximations(PeriodicStream((), (7,)), max_count=3)


class TestNormalize:
    def test_negative_one(self):
        norm = normalize_alpha(Surd.of(-1))
        assert norm.shift_power == 1
        assert norm.value == Surd.of(ZRt2(-1, 1))
        assert not norm.in_qh4

    def test_one_unchanged(self):
        norm = normalize_alpha(Surd.of(1))
        assert norm.shift_power == 0 and norm.value.cmp(1) == 0

    def test_five_point_nine(self):
        alpha = Surd(ZRt2(59, 0), ZRt2(0, 0), ONE, ZRt2(10, 0))
        norm = normalize_alpha(alpha)
        assert norm.shift_power == -4
        assert norm.value.cmp(0) > 0 and norm.value.cmp(SQRT2) < 0
        assert norm.shift.act(alpha) == norm.value

    def test_sqrt2_integer_flagged(self):
        norm = normalize_alpha(Surd.of(ZRt2(0, 3)))
        assert norm.in_qh4 and norm.value.cmp(0) == 0


def qrt2_width_tail_bounds(exp: Expansion, n: int, tol_digits: int) -> tuple[QRt2, QRt2]:
    """The enclosure by its definition: the window's image of (0, ∞), built
    as two Q(√2) bounds per digit until their difference is below
    10^-tol_digits."""
    tol = QRt2(ONE, 10**tol_digits)
    w = Mat2.identity()
    k = n
    while True:
        k += 1
        w = w * DIGIT_MATRICES[exp.digit(k)]
        if w.u.is_zero():
            continue
        lo, hi = QRt2.from_ratio(w.v, w.w), QRt2.from_ratio(w.t, w.u)
        if (hi - lo).cmp(tol) < 0:
            return lo, hi


class TestTailBoundsWidth:
    """det W = 1 makes the window's width 1/(u·w); stopping on u·w gives
    the same window and bounds as subtracting the two bounds."""

    @pytest.mark.parametrize(
        "stream",
        [
            four_blocks_stream(),
            three_powers_stream(),
            PeriodicStream((), (3, 2, 3, 1, 2, 1)),
            PeriodicStream((1,), (2,)),
            PeriodicStream((3, 3), (1, 1, 1, 1, 2, 3, 3, 3)),
        ],
        ids=lambda s: getattr(s, "name", None) or f"{s.preperiod}+{s.period}",
    )
    @pytest.mark.parametrize("tol_digits", [6, 12, 25])
    def test_same_bounds_as_the_width_loop(self, stream, tol_digits):
        exp = Expansion(stream)
        for n in (0, 1, 2, 7, 30, 63, 64, 127, 200):
            assert exp.tail_bounds(n, tol_digits) == qrt2_width_tail_bounds(exp, n, tol_digits)


def _step_chain(alpha: Surd, n_max: int):
    """The exact route: digits and states from _surd_step alone, starting at
    G_0 = I, until n_max digits or the boundary; the boundary and the
    length where it was reached are None when there was none."""
    exp = Expansion(alpha)
    digits, states = [], [IDENTITY]
    try:
        while len(digits) < n_max:
            d, g = exp._surd_step(states[-1])
            digits.append(d)
            states.append(g)
    except Terminated as exc:
        return digits, states, exc.boundary, len(digits)
    return digits, states, None, None


def _block_chain(alpha: Surd, n_max: int):
    """The same four things from Expansion.word and Expansion.state, the
    block engine."""
    exp = Expansion(alpha)
    try:
        exp.word(n_max)
    except Terminated as exc:
        end, boundary, length = exc.length, exc.boundary, exc.length
    else:
        end, boundary, length = n_max, None, None
    return list(exp.word(end)), [exp.state(i) for i in range(end + 1)], boundary, length


COEFF = st.integers(-10**6, 10**6)


@st.composite
def big_surds(draw) -> Surd:
    """Positive surds with every coefficient up to 10^6 in absolute value,
    half of them translated by a multiple of √2 into [0, √2), which drops
    a leading run of 3s."""
    da = draw(st.integers(1, 10**6))
    D = ZRt2(da, draw(st.integers(-(da * 7 // 10), 10**6)))  # da + db√2 > 0
    P, Q = ZRt2(draw(COEFF), draw(COEFF)), ZRt2(draw(COEFF), draw(COEFF))
    alpha = Surd(P, Q, D, ZRt2(draw(st.integers(1, 10**6)), draw(COEFF)))
    assume(not alpha.is_zero())
    alpha = abs(alpha)
    if draw(st.booleans()):
        alpha = normalize_alpha(alpha).value
        assume(not alpha.is_zero())
    return alpha


class TestBlockDigits:
    """The surd backend reads digits off a 2^−128 box around the tail and
    asks the exact _surd_step only when a fresh box holds a boundary; the
    _surd_step chain alone is the route it must agree with."""

    @settings(max_examples=40, deadline=None)
    @given(big_surds(), st.integers(1, 2000))
    def test_random_surds_agree_with_the_step_chain(self, alpha, n):
        assert _block_chain(alpha, n) == _step_chain(alpha, n)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(-60, 60), st.integers(-60, 60), st.integers(1, 60), st.integers(1, 2000))
    def test_q_sqrt2_agrees_with_the_step_chain(self, a, b, c, n):
        alpha = abs(Surd.from_ratio(ZRt2(a, b), ZRt2(c, 0)))
        assume(not alpha.is_zero())
        assert _block_chain(alpha, n) == _step_chain(alpha, n)

    def test_sqrt2_rationals_end_like_the_step_chain(self):
        seen = set()
        for a in range(1, 10):
            for b in range(1, 10):
                for alpha in (
                    Surd.from_ratio(ZRt2(0, a), ZRt2(b, 0)),  # a√2/b
                    Surd.from_ratio(ZRt2(a, 0), ZRt2(0, b)),  # a/(b√2)
                ):
                    expected = _step_chain(alpha, 2000)
                    assert expected[2] is not None
                    assert _block_chain(alpha, 2000) == expected
                    seen.add(expected[2])
        assert seen == {"inv_sqrt2", "sqrt2"}

    @pytest.mark.parametrize("k", [128, 8])
    def test_box_holds_the_tail(self, monkeypatch, k):
        from h4approx.cli import make_corpus

        monkeypatch.setattr(h4_expansion, "_SCALE", h4_expansion._box_scale(k))
        one = ZRt2(1 << k, 0)
        checked = 0
        for alpha in (*make_corpus(1, 5, 5), SURD17, Surd.of(1), Surd.from_ratio(ZRt2(1, 1), ZRt2(3, 0))):
            exp = Expansion(alpha)
            for n in range(0, 400, 3):
                exp.word(n)
                if exp._box is None:
                    continue
                lo, hi = exp._box
                tail = exp.tail(n)
                assert tail.linear_sign(one, ZRt2(lo, 0)) >= 0 and tail.linear_sign(one, ZRt2(hi, 0)) <= 0
                checked += 1
        assert checked > 800

    def test_coarse_boxes_fall_back_and_agree(self, monkeypatch):
        from h4approx.cli import make_corpus

        fallbacks = 0
        real_step = Expansion._surd_step

        def counted_step(self, g):
            nonlocal fallbacks
            fallbacks += 1
            return real_step(self, g)

        inputs = (*make_corpus(1, 20, 5), Surd.from_ratio(ZRt2(0, 5), ZRt2(7, 0)))
        expected = [_step_chain(alpha, 300) for alpha in inputs]
        monkeypatch.setattr(h4_expansion, "_SCALE", h4_expansion._box_scale(4))
        monkeypatch.setattr(Expansion, "_surd_step", counted_step)
        assert [_block_chain(alpha, 300) for alpha in inputs] == expected
        assert fallbacks > 20

    def test_deep_word_is_block_digits(self, monkeypatch):
        """corpus[3] × 14,000 digits: few refreshes, no exact fallback, no
        G_n-sized predicate and no Fraction enclosure."""
        from h4approx.cli import make_corpus

        calls = {"refresh": 0, "fallback": 0, "linear_sign_ints": 0, "enclosure": 0}

        def counting(owner, name, key):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counting(Expansion, "_refresh", "refresh")
        counting(Expansion, "_surd_step", "fallback")
        counting(Surd, "linear_sign_ints", "linear_sign_ints")
        counting(Surd, "enclosure", "enclosure")
        exp = Expansion(make_corpus(1, 5, 5)[3])
        exp.word(14_000)
        assert 0 < calls["refresh"] <= 100
        assert calls["fallback"] == calls["linear_sign_ints"] == calls["enclosure"] == 0



def _gauss_states(alpha: Surd, n_terms: int) -> list:
    """The signed integer states G_0 = I, G_1, ... that the Rosen and dual
    Gauss maps visit on α, replayed with rosen_cf._step over each kind's
    a0 and terms; none for a value in √2·Q."""
    from h4approx import rosen_cf

    states = []
    for digits in (rosen_cf.rosen_digits, rosen_cf.dual_rosen_digits):
        try:
            cf = digits(alpha, n_terms)
        except rosen_cf.DomainError:
            return []
        g, a = IDENTITY, cf.a0
        states.append(g)
        for t in cf.terms:
            g = rosen_cf._step(g, a, t.eps)
            states.append(g)
            a = t.a
    return states


def _word_states(alpha: Surd, word: list[int]) -> list:
    """G for every prefix of a digit word, negated where t − uα < 0 (G and
    −G are one Möbius map), so that M = t − uα > 0; a prefix with M = 0
    is left out."""
    states, g = [], IDENTITY
    for d in word:
        g = times_digit(g, d)
        m = as_mat2(g)
        side = alpha.linear_sign(m.u, m.t)  # sign(α·u − t) = −sign(M)
        if side:
            states.append(g if side < 0 else (*(-e for e in g[:4]), g[4]))
    return states


class TestTailBox:
    """_tail_box is the one box of x = G⁻¹·α = (wα − v)/(t − uα): the
    digit engine's tail box and the Gauss map's iterate box."""

    @pytest.mark.parametrize("k", [2, 64, 128])
    @settings(max_examples=25, deadline=None)
    @given(alpha=big_surds(), word=st.lists(st.sampled_from([1, 2, 3]), max_size=40))
    @example(alpha=HUGE_QUOTIENT, word=[3, 2])  # an iterate of 300 bits needs the width rule
    @example(alpha=SURD17, word=[2] * 40)  # G of 51 bits: b = 512 where 2·bits(G) + 128 < 256
    def test_box_encloses_exactly(self, k, alpha, word):
        states = _word_states(alpha, word) + _gauss_states(alpha, 12)
        fixed = None
        for g in states:
            b_before = 0 if fixed is None else fixed[0]
            fixed, (m_lo, m_hi), (lo, hi) = h4_expansion._tail_box(alpha, fixed, g, k)
            b = fixed[0]
            assert b >= max(b_before, 2 * max(map(abs, g[:4])).bit_length() + k + h4_expansion._GUARD)
            assert fixed == h4_expansion._fixed_bounds(alpha, b)
            m = as_mat2(g)
            # m_lo ≤ M·2^b ≤ m_hi, M = t − uα > 0
            assert 0 < m_lo <= m_hi
            scale = ZRt2(1 << b, 0)
            assert alpha.linear_sign(-m.u * scale, ZRt2(m_lo, 0) - m.t * scale) >= 0
            assert alpha.linear_sign(-m.u * scale, ZRt2(m_hi, 0) - m.t * scale) <= 0
            # lo·2^−k ≤ x ≤ hi·2^−k: N·2^k − lo·M ≥ 0 and N·2^k − hi·M ≤ 0
            one = ZRt2(1 << k, 0)
            for end, sign in ((lo, 1), (hi, -1)):
                c, d = m.w * one + m.u * ZRt2(end, 0), m.v * one + m.t * ZRt2(end, 0)
                assert sign * alpha.linear_sign(c, d) >= 0
            assert hi - lo <= 4

    def test_one_precision_policy(self, monkeypatch):
        """Each consumer's bounds on α are built at b = 256·2^j, j strictly
        increasing: never rebuilt at the same or a smaller b."""
        from h4approx import rosen_cf
        from h4approx.cli import make_corpus

        alpha = make_corpus(1, 5, 5)[3]
        seen: list[int] = []
        real = h4_expansion._fixed_bounds

        def counted(a, b):
            seen.append(b)
            return real(a, b)

        monkeypatch.setattr(h4_expansion, "_fixed_bounds", counted)
        consumers = {
            "expansion": lambda: Expansion(alpha).word(14_000),
            "rosen": lambda: rosen_cf.rosen_digits(alpha, 200),
            "dual": lambda: rosen_cf.dual_rosen_digits(alpha, 200),
        }
        for name, run in consumers.items():
            seen.clear()
            run()
            assert seen, name
            js = [b.bit_length() - 9 for b in seen]
            assert seen == [256 << j for j in js], name
            assert all(i < j for i, j in zip(js, js[1:])), name


class TestCachedReads:
    def test_second_walk_does_not_extend(self, monkeypatch):
        from h4approx.best_approx import best_approximations
        from h4approx.cli import make_corpus

        exp = Expansion(make_corpus(1, 5, 5)[3])
        first = best_approximations(exp, max_count=1000)
        entries = []
        real_extend = Expansion._extend

        def counted(self, n):
            entries.append(n)
            real_extend(self, n)

        monkeypatch.setattr(Expansion, "_extend", counted)
        assert best_approximations(exp, max_count=1000) == first
        assert entries == []

    def test_an_override_sees_every_uncached_request(self):
        from tests.test_rosen_cf import DigitBudget

        class Recording(Expansion):
            def __init__(self, source):
                super().__init__(source)
                self.requests: list[int] = []

            def _extend(self, n: int) -> None:
                self.requests.append(n)
                super()._extend(n)

        exp = Recording(SURD17)
        exp.digit(3)
        exp.state(2)
        exp.state(5)
        exp.star_cmp_one(4)
        exp.star_cmp_one(7)
        exp.digit(7)
        exp.tail_cmp_one(7)
        exp.leading_threes()
        assert exp.requests == [3, 5, 7, 8]
        budget = DigitBudget(SURD17, 5)
        assert budget.word(5) == (3, 2, 3, 1, 2)
        for read in (budget.digit, budget.state, budget.star_cmp_one):
            with pytest.raises(AssertionError, match="past the budget"):
                read(6)


def _outcome(read):
    """A reader's answer, or the Terminated or CapExceeded it raised."""
    try:
        return read()
    except Terminated as exc:
        return ("terminated", exc.boundary, exc.length)
    except CapExceeded:
        return ("cap",)


def _readers(cls, source, n: int, cap: int) -> dict:
    """Every reader of a `cls` expansion up to index n, or up to the end of
    a √2·Q value: each on a fresh expansion first, where it is the one
    that extends, then all of them again on one expansion read in order."""
    fresh = {
        "word": _outcome(lambda: cls(source).word(n)),
        "state": _outcome(lambda: cls(source).state(n)),
        "star": _outcome(lambda: cls(source).star_cmp_one(n)),
        "tail": _outcome(lambda: cls(source).tail_cmp_one(n)),
        "run_end": _outcome(lambda: cls(source).run_end(1, n)),
        "leading": _outcome(lambda: cls(source, cap).leading_threes()),
    }
    exp, end = cls(source), n
    try:
        exp.word(n)
    except Terminated as exc:
        end = exc.length
    ends, i = [], 1
    while i <= end:  # the run ends met by a walk that jumps each run
        ends.append(exp.run_end(i, end))
        i = ends[-1] + 1
    return {
        **fresh,
        "end": end,
        "boundary": terminated_length(exp),
        "past": _outcome(lambda: exp.tail_cmp_one(end + 1)),
        "digits": [exp.digit(i) for i in range(1, end + 1)],
        "states": [exp.state(i) for i in range(end + 1)],
        "tails": [exp.tail_cmp_one(i) for i in range(end)],
        "stars": [exp.star_cmp_one(i) for i in range(end + 1)],
        "ends": ends,
        "run_ends": [exp.run_end(i, end) for i in range(1, end + 1)],
        "word_again": exp.word(end),
    }


def _same_as_the_reference(source, n: int, cap: int = 40) -> dict:
    from tests.digit_expansion import DigitExpansion

    got = _readers(Expansion, source, n, cap)
    assert got == _readers(DigitExpansion, source, n, cap)
    return got


DIGITS = st.sampled_from([1, 2, 3])


class TestRunLengthEngine:
    """Expansion keeps states only at segment starts and reads runs of 1s
    and 3s off the box in one step; the per-digit route of
    tests/digit_expansion.py is the reference every reader must equal."""

    @settings(max_examples=40, deadline=None)
    @given(big_surds(), st.integers(1, 1500), st.integers(0, 60))
    def test_random_surds(self, alpha, n, cap):
        _same_as_the_reference(alpha, n, cap)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(-60, 60), st.integers(-60, 60), st.integers(1, 60), st.integers(1, 600))
    def test_q_sqrt2_values(self, a, b, c, n):
        alpha = abs(Surd.from_ratio(ZRt2(a, b), ZRt2(c, 0)))
        assume(not alpha.is_zero())
        _same_as_the_reference(alpha, n)

    def test_sqrt2_rationals_and_long_runs(self):
        """The boundary values, SURD17, and surds whose words open with a
        run longer than the cap: 2,000,000 with over a million 3s and
        1/20000 with over ten thousand 1s."""
        for a in range(1, 10):
            for b in range(1, 10):
                for alpha in (Surd.from_ratio(ZRt2(0, a), ZRt2(b, 0)), Surd.from_ratio(ZRt2(a, 0), ZRt2(0, b))):
                    assert _same_as_the_reference(alpha, 200)["boundary"] is not None
        for alpha in (Surd.of(2_000_000), Surd.from_ratio(ONE, ZRt2(20_000, 0))):
            assert _same_as_the_reference(alpha, 300, cap=150)["ends"] == [300]
        _same_as_the_reference(SURD17, 300, cap=150)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(DIGITS, max_size=12), st.lists(DIGITS, min_size=1, max_size=6), st.integers(1, 200))
    def test_periodic_streams(self, pre, period, n):
        _same_as_the_reference(PeriodicStream(tuple(pre), tuple(period)), n)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(DIGITS, max_size=40), st.sampled_from(["inv_sqrt2", "sqrt2"]), st.integers(1, 60))
    def test_finite_words(self, digits, boundary, n):
        _same_as_the_reference(FiniteWord(tuple(digits), boundary), n)

    @pytest.mark.parametrize("stream", [four_blocks_stream(), three_powers_stream()], ids=lambda s: s.name)
    def test_rule_streams(self, stream):
        _same_as_the_reference(stream, 400)

    def test_states_are_kept_at_segment_starts(self):
        """A segment is a maximal run of 1s or 3s, or a single 2, and only
        its start keeps a state."""
        from h4approx.cli import make_corpus

        exp = Expansion(make_corpus(1, 5, 5)[3])
        word = exp.word(2000)
        starts = [0] + [i for i in range(1, 2000) if word[i] == 2 or word[i] != word[i - 1]]
        assert exp._starts == starts and len(exp._heads) == len(starts) < 2000 // 3


class TestExtendReadsNoFurther:
    """_extend(n) never makes index n + 1 readable, whichever reader asks,
    even where the box certifies a run far past n: DigitBudget and the
    benchmark's capped expansion refuse the first digit past their limit
    through _extend alone."""

    INPUTS = (Surd.of(2_000_000), Surd.from_ratio(ONE, ZRt2(20_000, 0)), SURD17, Surd.of(1),
              PeriodicStream((3, 3), (1, 1, 1, 1, 2, 3)), four_blocks_stream())

    @pytest.mark.parametrize("limit", [1, 2, 5, 17, 64])
    @pytest.mark.parametrize("source", INPUTS, ids=lambda s: str(getattr(s, "name", s))[:24])
    def test_every_reader_stops_at_its_index(self, source, limit):
        from tests.digit_expansion import DigitExpansion
        from tests.test_rosen_cf import DigitBudget

        class Budget(DigitBudget):
            def _extend(self, n: int) -> None:
                super()._extend(n)
                assert len(self._digits) == n, "_extend(n) made an index past n readable"

        reference = DigitExpansion(source)
        reads = [
            lambda e: e.word(limit), lambda e: e.digit(limit), lambda e: e.state(limit),
            lambda e: e.star_cmp_one(limit), lambda e: e.tail_cmp_one(limit - 1),
            lambda e: e.run_end(1, limit), lambda e: e.matrix(limit),
        ]
        for read in reads:
            assert read(Budget(source, limit)) == read(reference)
        for read in (lambda e: e.word(limit + 1), lambda e: e.state(limit + 1), lambda e: e.tail_cmp_one(limit)):
            with pytest.raises(AssertionError, match="past the budget"):
                read(Budget(source, limit))
        for i in range(1, limit + 1):  # run_end reads d_{limit+1} iff the run through d_i reaches the limit
            exp = Budget(source, limit)
            if reference.run_end(i, limit) == limit:
                with pytest.raises(AssertionError, match="past the budget"):
                    exp.run_end(i, limit + 1)
            else:
                assert exp.run_end(i, limit + 1) == reference.run_end(i, limit + 1)
        budget = Budget(source, limit)
        budget.cap = limit - 1
        assert _outcome(budget.leading_threes) == _outcome(lambda: DigitExpansion(source, limit - 1).leading_threes())


class TestMemory:
    def test_deep_word_holds_a_quarter_of_the_per_digit_states(self):
        """word(32000) on corpus[3] held 36.9 MiB with a state per digit;
        states at segment starts hold under a quarter of that."""
        import tracemalloc

        from h4approx.cli import make_corpus

        alpha = make_corpus(1, 5, 5)[3]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            exp = Expansion(alpha)
            exp.word(32_000)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(exp.word(32_000)) == 32_000
        assert held < 9.2 * 2**20
