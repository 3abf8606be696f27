"""Rosen / dual-Rosen digits, convergents, selectors, and pipeline agreement."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h4approx import rosen_cf
from h4approx.exact_field import ONE, SQRT2, TWO, Surd, ZRt2, quad_root
from h4approx.hecke_group import DIGIT_MATRICES, IDENTITY, J, Mat2, canonicalize_pair
from h4approx.h4_expansion import CapExceeded, Expansion, PeriodicStream, _box_scale, detect_period
from h4approx.rosen_cf import (
    CFExpansion,
    DomainError,
    RosenDigit,
    dual_from_h4,
    dual_rosen_digits,
    rosen_digits,
    rosen_from_h4,
    select_M,
    select_N,
)

SURD17 = Surd(ZRt2(3, 0), ONE, ZRt2(17, 0), ZRt2(0, 2))


def _rosen_window(x: Surd) -> int:
    # a√2 − 1/√2 < x < a√2 + 1/√2  ⟺  a = ⌊(√2·x + 1)/2⌋
    return x.floor_linear(SQRT2, -ONE, TWO)


def _dual_window(x: Surd) -> int:
    # (a−1)√2 + 1 ≤ x < a√2 + 1  ⟺  a = ⌊(x − 1)/√2⌋ + 1
    return x.floor_linear(ONE, ONE, SQRT2) + 1


def surd_gauss_map(alpha: Surd, n_terms: int, kind: str) -> CFExpansion:
    """The reference Gauss map on exact iterates: f(x) = 1/|x − a√2| with a
    from the window, each iterate one Möbius image [[0, 1], [ε, −ε·a√2]]·x
    normalized as a Surd, and every iterate after the first above `lower`."""
    window, lower = (_rosen_window, SQRT2) if kind == "rosen" else (_dual_window, ONE)
    if alpha.is_sqrt2_rational():
        raise DomainError("value lies in √2·Q")
    a0 = a = window(alpha)
    x = alpha
    terms: list[RosenDigit] = []
    while len(terms) < n_terms:
        eps = x.linear_sign(ONE, ZRt2(0, a))
        x = Mat2.of(0, 1, eps, ZRt2(0, -eps * a)).act(x)
        assert x.cmp(lower) > 0
        a = window(x)
        terms.append(RosenDigit(eps, a))
    return CFExpansion(kind, a0, tuple(terms))


GAUSS_MAPS = {"rosen": rosen_digits, "dual-rosen": dual_rosen_digits}

# Ties of the dual window's closed left end, where iterates in Q(√2) land on
# (ã − 1)√2 + 1.
TIE_INPUTS = [
    Surd.of(ZRt2(1, 1)), Surd.of(1), Surd.of(ZRt2(-1, 2)), Surd.of(ZRt2(-1, 1)),
    Surd.from_ratio(ZRt2(-1, 14), ZRt2(23, 0)),
]
# A partial quotient near 2^300, which needs α's bounds at more than the usual precision.
HUGE_QUOTIENT = Surd(ZRt2(2**300, 0), ONE, ZRt2(3, 0), ONE).reciprocal() + SQRT2  # √2 + 1/(2^300 + √3)


class DigitBudget(Expansion):
    """An expansion that fails on any request past digit `limit`."""

    def __init__(self, source, limit: int):
        super().__init__(source)
        self.limit = limit

    def _extend(self, n: int) -> None:
        if n > self.limit:
            raise AssertionError(f"digit {n} requested past the budget {self.limit}")
        super()._extend(n)


# Both convergent functions over a tampered regrouping, run by a `python -O` child.
TAMPERED_CHILD = """
import dataclasses, json, sys
from h4approx import rosen_cf
from tests.test_rosen_cf import SURD17
caught = []
for regroup, convergents in (("rosen_from_h4", "rosen_convergents"), ("dual_from_h4", "dual_rosen_convergents")):
    def tampered(source, n_terms, honest=getattr(rosen_cf, regroup)):
        cf = honest(source, n_terms)
        last = cf.terms[-1]
        return dataclasses.replace(cf, terms=(*cf.terms[:-1], rosen_cf.RosenDigit(last.eps, last.a + 1)))
    setattr(rosen_cf, regroup, tampered)
    try:
        getattr(rosen_cf, convergents)(SURD17, 6)
    except AssertionError as exc:
        caught.append(str(exc))
print(json.dumps({"optimize": sys.flags.optimize, "caught": caught}))
"""


# Both Gauss maps with their first window value one too low, in a `python -O` child.
TAMPERED_WINDOW_CHILD = """
import json, sys
from h4approx import rosen_cf
from tests.test_rosen_cf import SURD17, off_by_one_window
rosen_cf._window = off_by_one_window(rosen_cf._window)
caught = []
for digits in (rosen_cf.rosen_digits, rosen_cf.dual_rosen_digits):
    try:
        digits(SURD17, 6)
    except AssertionError as exc:
        caught.append(str(exc))
print(json.dumps({"optimize": sys.flags.optimize, "caught": caught}))
"""


def off_by_one_window(honest):
    """_window with a0, the first value of each map, taken one lower."""
    def tampered(alpha, g, box, gamma):
        a = honest(alpha, g, box, gamma)
        return a - 1 if g == IDENTITY else a

    return tampered


def run_child(code: str) -> subprocess.CompletedProcess:
    """`code` in a `python -O` child, where asserts vanish, with the repo on
    its path; it must exit 0."""
    root = Path(__file__).resolve().parent.parent
    path = [str(root / "src"), str(root), *filter(None, [os.environ.get("PYTHONPATH")])]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        cwd=root, env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc


def random_periodic_surd(word: list[int]) -> Surd | None:
    """Positive fixed point of the word matrix; None for parabolic words."""
    if set(word) <= {1} or set(word) <= {3}:
        return None
    m = Mat2.identity()
    for d in word:
        m = m * DIGIT_MATRICES[d]
    try:
        x = quad_root(m.u, m.w - m.t, -m.v, "+")
    except ValueError:
        return None
    if x.is_sqrt2_rational():
        return None
    return x


def selected_fractions(exp: Expansion, select, n_max: int) -> list:
    """Deduplicated M_n·∞ (select_M) or N_n·∞ (select_N) for n from
    m(α)+1 to n_max."""
    out = []
    for n in range(exp.leading_threes() + 1, n_max + 1):
        m = select(exp, n)
        frac = canonicalize_pair(m.t, m.u)
        if not out or out[-1] != frac:
            out.append(frac)
    return out


def assert_selectors_give_convergents(alpha: Surd, n_max: int) -> None:
    """The selector theorem at the fraction level: M_n·∞ runs through the
    Rosen convergents and N_n·∞ through the dual ones, from r̃_0 or r̃_1
    depending on the window case."""
    exp = Expansion(alpha)
    rosen_sel = selected_fractions(exp, select_M, n_max)
    rosen_dig = [c.frac for c in rosen_digits(alpha, n_max).convergents()]
    assert rosen_sel and rosen_sel == rosen_dig[: len(rosen_sel)]
    dual_sel = selected_fractions(exp, select_N, n_max)
    dual_dig = [c.frac for c in dual_rosen_digits(alpha, n_max).convergents()]
    if dual_sel[0] == dual_dig[0]:
        assert dual_sel == dual_dig[: len(dual_sel)]
    else:
        assert dual_sel == dual_dig[1 : len(dual_sel) + 1]


class TestGaussMapCap:
    @pytest.mark.parametrize("digits", [rosen_digits, dual_rosen_digits])
    def test_stops_at_cap(self, digits):
        with pytest.raises(CapExceeded):
            digits(SURD17, 6, cap=5)
        assert digits(SURD17, 6, cap=6) == digits(SURD17, 6)


@st.composite
def surds(draw) -> Surd:
    """(P + Q√D)/S with small coefficients of both signs; Q = 0 in a third
    of the draws, for values in Q(√2)."""
    small = st.integers(-9, 9)
    P = ZRt2(draw(small), draw(small))
    Q = ZRt2(0, 0) if draw(st.integers(0, 2)) == 0 else ZRt2(draw(small), draw(small))
    D = ZRt2(draw(st.integers(2, 30)), draw(st.integers(0, 3)))
    S = ZRt2(draw(st.integers(1, 12)), draw(st.integers(0, 3)))
    return Surd(P, Q, D, S)


@contextmanager
def counting_exact_signs():
    """A one-item list that counts Surd.linear_sign calls inside the block."""
    calls = [0]
    real = Surd.linear_sign

    def counting(self, c, d):
        calls[0] += 1
        return real(self, c, d)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Surd, "linear_sign", counting)
        yield calls


def integer_gauss_map(alpha: Surd, n_terms: int, kind: str) -> CFExpansion:
    return GAUSS_MAPS[kind](alpha, n_terms)


def expansions(gauss_map, alphas, n_terms: int) -> list:
    """(kind, a0, terms) of both kinds for each α, or "DomainError"."""
    out = []
    for alpha in alphas:
        for kind in GAUSS_MAPS:
            try:
                cf = gauss_map(alpha, n_terms, kind)
            except DomainError:
                out.append("DomainError")
            else:
                out.append((cf.kind, cf.a0, cf.terms))
    return out


class TestIntegerGaussMap:
    """The Gauss map on the integer state against the reference Surd map."""

    @settings(max_examples=80, deadline=None)
    @given(surds(), st.booleans())
    def test_random_surds_match_the_reference(self, alpha, coarse):
        with pytest.MonkeyPatch.context() as mp:
            if coarse:  # a 2^−2 box straddles often, so the exact signs decide
                mp.setattr(rosen_cf, "_ITERATE_SCALE", _box_scale(2))
            got = expansions(integer_gauss_map, [alpha], 12)
        assert got == expansions(surd_gauss_map, [alpha], 12)

    @pytest.fixture(scope="class")
    def reference(self):
        """The inputs, each with the reference expansions: the ties, the
        huge quotient, SURD17, 1/2, (3 + √2)/7 and the negative
        (−5 + 2√2 + √3)/2 at 30 terms, the corpus at 50."""
        from h4approx.cli import make_corpus

        specials = (*TIE_INPUTS, HUGE_QUOTIENT, SURD17, Surd.from_ratio(ONE, TWO),
                    Surd.from_ratio(ZRt2(3, 1), ZRt2(7, 0)), Surd(ZRt2(-5, 2), ONE, ZRt2(3, 0), TWO))
        corpus = make_corpus(seed=1, size=100, coeff_bound=5)
        return (specials, expansions(surd_gauss_map, specials, 30),
                corpus, expansions(surd_gauss_map, corpus, 50))

    @pytest.mark.parametrize("k", [64, 2])
    def test_ties_and_the_corpus_match_the_reference(self, monkeypatch, reference, k):
        specials, want_specials, corpus, want_corpus = reference
        monkeypatch.setattr(rosen_cf, "_ITERATE_SCALE", _box_scale(k))
        with counting_exact_signs() as tie_calls:
            assert expansions(integer_gauss_map, specials, 30) == want_specials
        with counting_exact_signs() as corpus_calls:
            assert expansions(integer_gauss_map, corpus, 50) == want_corpus
        assert tie_calls[0] > 0  # the ties reach the exact fallback at any scale
        # At 2^−64 only the ties of (−1 + 14√2)/23 do; at 2^−2 every input does.
        assert corpus_calls[0] < 100 if k == 64 else corpus_calls[0] > 1000

    def test_huge_quotient_doubles_the_precision(self):
        # x_1 ≈ 2^300 needs α's bounds at more than 2·bits(G) + 128 bits;
        # the box at too few would leave the window to ~90 exact signs.
        for digits in GAUSS_MAPS.values():
            with counting_exact_signs() as calls:
                assert digits(HUGE_QUOTIENT, 3).terms[0].a.bit_length() == 300
            assert calls[0] <= 2  # ε of α beside √2, and of x_1 beside a_1√2

    def test_deep_terms_build_no_surd_and_no_mat2(self, monkeypatch):
        """corpus[3] × 200 terms of either kind: no Surd, no Mat2 and no
        exact sign; the reference map builds a Surd per term."""
        from h4approx.cli import make_corpus

        alpha = make_corpus(1, 5, 5)[3]
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
        with counting_exact_signs() as calls:
            assert surd_gauss_map(alpha, 5, "rosen") is not None
            seen = (built[Surd], built[Mat2], calls[0])
            assert min(seen) >= 5, "the counters must see the reference"
            built.update({Surd: 0, Mat2: 0})
            calls[0] = 0
            for digits in GAUSS_MAPS.values():
                assert len(digits(alpha, 200).terms) == 200
        assert (built[Surd], built[Mat2], calls[0]) == (0, 0, 0)

    @pytest.mark.parametrize("kind", ["rosen", "dual-rosen"])
    def test_a_wrong_window_trips_the_iterate_check(self, monkeypatch, kind):
        # One window value one too low sends the next iterate to or below
        # the window's lower end, which must raise.
        monkeypatch.setattr(rosen_cf, "_window", off_by_one_window(rosen_cf._window))
        with pytest.raises(AssertionError, match="does not exceed the window's lower end"):
            GAUSS_MAPS[kind](SURD17, 6)

    def test_the_iterate_check_survives_python_O(self):
        proc = run_child(TAMPERED_WINDOW_CHILD)
        result = json.loads(proc.stdout)
        assert result["optimize"] == 1
        assert result["caught"] == ["Gauss-map iterate 1 does not exceed the window's lower end"] * 2


class TestConvergentRecurrence:
    def test_pairs_match_the_zrt2_recurrence(self):
        from h4approx.cli import make_corpus

        for alpha in (SURD17, Surd.of(1), *make_corpus(seed=1, size=10, coeff_bound=5)):
            for digits in GAUSS_MAPS.values():
                cf = digits(alpha, 30)
                r_prev, s_prev, r, s = ONE, ZRt2(0, 0), ZRt2(0, cf.a0), ONE
                want = [(r, s)]
                for t in cf.terms:
                    r, r_prev = ZRt2(0, t.a) * r + t.eps * r_prev, r
                    s, s_prev = ZRt2(0, t.a) * s + t.eps * s_prev, s
                    want.append((r, s))
                got = cf.convergents()
                assert [(c.r, c.s) for c in got] == want
                assert [c.index for c in got] == list(range(31)) and {c.kind for c in got} == {cf.kind}
                assert [c.frac for c in got] == [canonicalize_pair(r, s) for r, s in want]

    def test_denominators_must_increase(self):
        # ε = −1 after a_1 = 1 breaks the Rosen rule, so s_2 = 2·1·1 − 1 = 1 < s_1 = √2.
        cf = rosen_digits(SURD17, 2)
        object.__setattr__(cf, "terms", (RosenDigit(1, 1), RosenDigit(-1, 1)))
        with pytest.raises(AssertionError, match="denominators not increasing at i=2"):
            cf.convergents()


class TestRosenDigits:
    def test_alpha_one(self):
        cf = rosen_digits(Surd.of(1), 4)
        assert cf.a0 == 1
        assert cf.terms == tuple(RosenDigit(-1, 2) for _ in range(4))

    def test_surd17_first_digit(self):
        cf = rosen_digits(SURD17, 3)
        assert cf.a0 == 2 and cf.terms[0].eps == -1

    def test_rejects_qh4(self):
        with pytest.raises(DomainError):
            rosen_digits(Surd.sqrt2(), 2)

    def test_truncation_value_approaches(self):
        cf = rosen_digits(SURD17, 12)
        approx = cf.value()
        assert abs(approx - SURD17).cmp(Surd.from_ratio(ONE, ZRt2(10**6, 0))) < 0

    def test_convergent_zero_is_a0_sqrt2(self):
        cf = rosen_digits(SURD17, 2)
        conv = cf.convergents()
        assert conv[0].frac == canonicalize_pair(ZRt2(0, 2), ONE)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.sampled_from([1, 2, 3]), min_size=2, max_size=6))
    def test_uniqueness_rule_emerges(self, word):
        alpha = random_periodic_surd(word)
        if alpha is None:
            return
        cf = rosen_digits(alpha, 12)
        for i in range(len(cf.terms) - 1):
            if cf.terms[i].a == 1:
                assert cf.terms[i + 1].eps == 1


class TestDualDigits:
    def test_boundary_value_takes_closed_end(self):
        # √2+1 sits exactly on the closed left end of the ã=2 window.
        cf = dual_rosen_digits(Surd.of(ZRt2(1, 1)), 3)
        assert cf.a0 == 2 and cf.terms[0].eps == -1

    def test_surd17(self):
        cf = dual_rosen_digits(SURD17, 3)
        assert cf.a0 == 2 and cf.terms[0].eps == -1
        # -1 sign forces the next quotient to be at least 2.
        assert cf.terms[0].a >= 2

    def test_alpha_one(self):
        cf = dual_rosen_digits(Surd.of(1), 4)
        assert cf.a0 == 1
        assert all(t == RosenDigit(-1, 2) for t in cf.terms)

    def test_below_one(self):
        alpha = Surd.from_ratio(ONE, ZRt2(3, 0))  # 1/3
        cf = dual_rosen_digits(alpha, 4)
        assert cf.a0 == 0 and cf.terms[0].eps == 1

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.sampled_from([1, 2, 3]), min_size=2, max_size=6))
    def test_dual_uniqueness_rule(self, word):
        alpha = random_periodic_surd(word)
        if alpha is None:
            return
        cf = dual_rosen_digits(alpha, 12)
        for t in cf.terms:
            if t.eps == -1:
                assert t.a >= 2


class TestSelectors:
    def test_alpha_one_selects_tu(self):
        exp = Expansion(Surd.of(1))
        for n in range(1, 6):
            m = select_M(exp, n)
            assert m == exp.matrix(n)
            n_mat = select_N(exp, n)
            assert n_mat == exp.matrix(n)

    def test_surd17_m4_flips(self):
        exp = Expansion(SURD17)
        m4 = select_M(exp, 4)
        assert m4 == exp.matrix(4) * J
        assert canonicalize_pair(m4.t, m4.u) == canonicalize_pair(ZRt2(7, 0), ZRt2(0, 2))

    def test_surd17_n3_flips(self):
        exp = Expansion(SURD17)
        n3 = select_N(exp, 3)
        assert n3 == exp.matrix(3) * J
        assert canonicalize_pair(n3.t, n3.u) == canonicalize_pair(ZRt2(7, 0), ZRt2(0, 2))

    def test_j_involution(self):
        assert J * J == Mat2.identity()

    def test_selector_picks_smaller_denominator(self):
        exp = Expansion(SURD17)
        for n in range(2, 12):
            m = select_M(exp, n)
            g = exp.matrix(n)
            other = g.w if m.u == g.u else g.u
            assert m.u.cmp(other) < 0


class TestPipelineAgreement:
    def test_rosen_regrouping_matches_gauss_surd17(self):
        direct = rosen_digits(SURD17, 20)
        combinatorial = rosen_from_h4(Expansion(SURD17), 20)
        assert direct.a0 == combinatorial.a0
        assert direct.terms == combinatorial.terms

    def test_dual_regrouping_matches_gauss_surd17(self):
        direct = dual_rosen_digits(SURD17, 20)
        combinatorial = dual_from_h4(Expansion(SURD17), 20)
        assert direct.a0 == combinatorial.a0
        assert direct.terms == combinatorial.terms

    def test_regrouping_reads_only_the_digits_it_needs(self):
        # The regrouping walk must fit |a0| + Σa + 4 digits, the budget that
        # the benchmark's wide_shallow caps its convergent walks by.
        from h4approx.cli import make_corpus

        for alpha in [SURD17, *make_corpus(seed=1, size=100, coeff_bound=5)]:
            for gauss, regroup in ((rosen_digits, rosen_from_h4), (dual_rosen_digits, dual_from_h4)):
                direct = gauss(alpha, 10)
                limit = abs(direct.a0) + sum(t.a for t in direct.terms) + 4
                combino = regroup(DigitBudget(alpha, limit), 10)
                assert (combino.a0, combino.terms) == (direct.a0, direct.terms)

    def test_regrouping_walk_stops_at_the_expansion_cap(self):
        # All threes: A3 letters only, so no block ever closes.
        for regroup in (rosen_from_h4, dual_from_h4):
            with pytest.raises(CapExceeded):
                regroup(Expansion(PeriodicStream((), (3,)), cap=50), 3)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from([1, 2, 3]), min_size=2, max_size=6))
    def test_regrouping_matches_gauss_random(self, word):
        alpha = random_periodic_surd(word)
        if alpha is None:
            return
        for direct_fn, combino_fn in (
            (rosen_digits, rosen_from_h4),
            (dual_rosen_digits, dual_from_h4),
        ):
            direct = direct_fn(alpha, 8)
            combino = combino_fn(Expansion(alpha), 8)
            assert direct.a0 == combino.a0
            assert direct.terms == combino.terms[: len(direct.terms)]

    def test_m_relation_to_leading_threes(self):
        # ε_1 = +1 gives m = a0; ε_1 = −1 gives m = a0 − 1.
        for alpha in (SURD17, Surd.of(1), Surd.of(3), Surd.from_ratio(ONE, ZRt2(3, 0))):
            cf = rosen_digits(alpha, 1)
            m = Expansion(alpha).leading_threes()
            assert m == (cf.a0 if cf.terms[0].eps == 1 else cf.a0 - 1)

    def test_selector_fractions_match_convergents_surd17(self):
        assert_selectors_give_convergents(SURD17, 20)

    def test_selector_fractions_match_convergents_on_corpus(self):
        from h4approx.cli import make_corpus

        for alpha in make_corpus(seed=1, size=20, coeff_bound=5):
            assert_selectors_give_convergents(alpha, 40)

    def test_surd17_first_rosen_convergents(self):
        convs = [str(c.frac) for c in rosen_digits(SURD17, 3).convergents()]
        assert convs == ["2√2/1", "7/2√2", "16√2/9", "57/16√2"]

    def test_convergent_ops_cross_check_internally(self):
        from h4approx.rosen_cf import dual_rosen_convergents, rosen_convergents

        for alpha in (SURD17, Surd.of(1), Surd.from_ratio(ONE, ZRt2(3, 0))):
            rc = rosen_convergents(alpha, 8)
            assert len(rc) == 9 and rc[0].index == 0
            dc = dual_rosen_convergents(alpha, 8)
            assert len(dc) == 9

    @pytest.mark.parametrize(
        "regroup, convergents",
        [("rosen_from_h4", "rosen_convergents"), ("dual_from_h4", "dual_rosen_convergents")],
    )
    def test_convergents_check_the_regrouping(self, monkeypatch, regroup, convergents):
        # One changed term in the word route must trip the cross-check.
        from h4approx import rosen_cf

        honest = getattr(rosen_cf, regroup)

        def tampered(source, n_terms):
            cf = honest(source, n_terms)
            last = cf.terms[-1]
            return dataclasses.replace(cf, terms=(*cf.terms[:-1], RosenDigit(last.eps, last.a + 1)))

        convergent_fn = getattr(rosen_cf, convergents)
        assert len(convergent_fn(SURD17, 6)) == 7
        monkeypatch.setattr(rosen_cf, regroup, tampered)
        with pytest.raises(AssertionError, match="disagree"):
            convergent_fn(SURD17, 6)

    def test_convergents_check_the_regrouping_under_python_O(self):
        # The same tampering in a `python -O` child, where asserts vanish:
        # the cross-check must still raise.
        result = json.loads(run_child(TAMPERED_CHILD).stdout)
        assert result["optimize"] == 1
        assert result["caught"] == ["Gauss map and word regrouping disagree"] * 2

    def test_digit_map_equivalence_on_corpus(self):
        # Gauss-map iteration and word regrouping must agree for 50 digits
        # on the full 100-surd corpus.
        from h4approx.cli import make_corpus

        for alpha in make_corpus(seed=1, size=100, coeff_bound=5):
            exp = Expansion(alpha)
            direct = rosen_digits(alpha, 50)
            combino = rosen_from_h4(exp, 50)
            assert (direct.a0, direct.terms) == (combino.a0, combino.terms)
            direct = dual_rosen_digits(alpha, 50)
            combino = dual_from_h4(exp, 50)
            assert (direct.a0, direct.terms) == (combino.a0, combino.terms)
