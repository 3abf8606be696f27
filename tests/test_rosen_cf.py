"""Rosen / dual-Rosen digits, convergents, selectors, and pipeline agreement."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h4approx.exact_field import ONE, SQRT2, Surd, ZRt2, quad_root
from h4approx.hecke_group import DIGIT_MATRICES, J, Mat2, canonicalize_pair
from h4approx.h4_expansion import CapExceeded, Expansion, PeriodicStream, detect_period
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
        root = Path(__file__).resolve().parent.parent
        path = [str(root / "src"), str(root), *filter(None, [os.environ.get("PYTHONPATH")])]
        proc = subprocess.run(
            [sys.executable, "-O", "-c", TAMPERED_CHILD],
            cwd=root, env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        result = json.loads(proc.stdout)
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
