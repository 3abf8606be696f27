"""CLI behaviour: output formats, determinism, exit codes, golden corpus."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from h4approx.cli import make_corpus, parse_alpha, run, surd_to_json
from h4approx.exact_field import Surd, ZRt2
from h4approx.h4_expansion import Expansion, RuleStream


SRC = Path(__file__).resolve().parent.parent / "src"


def h4(*argv: str) -> subprocess.CompletedProcess:
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    return subprocess.run(
        [sys.executable, "-m", "h4approx.cli", *argv],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestParseAlpha:
    def test_presets(self):
        assert parse_alpha("one").cmp(1) == 0
        alpha = parse_alpha("surd17")
        assert isinstance(alpha, Surd) and not alpha.is_degenerate()

    def test_json(self):
        alpha = parse_alpha('{"P":[3,0],"Q":[1,0],"D":[17,0],"S":[0,2]}')
        assert alpha == parse_alpha("surd17")

    def test_streams(self):
        assert isinstance(parse_alpha("stream:three-powers"), RuleStream)
        assert isinstance(parse_alpha("stream:four-blocks"), RuleStream)

    def test_rejects_bad_json(self):
        from h4approx.cli import ParseError

        with pytest.raises(ParseError):
            parse_alpha('{"P":[3,0]}')
        with pytest.raises(ParseError):
            parse_alpha("nonsense")
        # JSON true and false are not integers, though Python's bool is an int.
        with pytest.raises(ParseError, match="P must be a pair of integers"):
            parse_alpha('{"P":[true,false],"Q":[false,false],"D":[true,false],"S":[true,false]}')

    def test_rejects_invalid_surd(self):
        from h4approx.cli import ValidationError

        with pytest.raises(ValidationError):
            parse_alpha('{"P":[1,0],"Q":[1,0],"D":[-3,0],"S":[1,0]}')
        with pytest.raises(ValidationError):
            parse_alpha('{"P":[1,0],"Q":[0,0],"D":[1,0],"S":[0,0]}')


class TestCommands:
    def test_expand_one_digits(self):
        res = h4("expand", "--alpha", "one", "--digits", "5")
        assert res.returncode == 0
        assert res.stdout == "2 2 2 2 2\n"

    def test_expand_terminating_value(self):
        res = h4("expand", "--alpha", '{"P":[5,0],"Q":[0,0],"D":[1,0],"S":[0,1]}',
                 "--digits", "10", "--json")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["digits"] == [3, 3] and payload["terminated"]
        assert payload["boundary"] == "inv_sqrt2"
        assert len(payload["completions"]) == 2

    def test_k_exact_one(self):
        res = h4("k", "--alpha", "one", "--exact", "--json")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["value"] == {"P": [1, 1], "Q": [0, 0], "D": [1, 0], "S": [2, 0]}
        assert payload["decimal"].startswith("1.2071067811865475244")

    def test_best_count_four(self):
        res = h4("best", "--alpha", "surd17", "--count", "4", "--json")
        payload = json.loads(res.stdout)
        got = [(b["p"], b["q"]) for b in payload["best"]]
        assert got == [
            ([0, 2], [1, 0]),
            ([7, 0], [0, 2]),
            ([0, 16], [9, 0]),
            ([57, 0], [0, 16]),
        ]
        assert all(b["is_rosen_convergent"] and b["is_dual_convergent"] for b in payload["best"])

    def test_rosen_csv(self):
        res = h4("rosen", "--alpha", "surd17", "--digits", "3", "--csv")
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "i,eps,a,p_a,p_b,q_a,q_b"
        assert lines[1].startswith("0,,,0,2,1,0")

    def test_legendre(self):
        res = h4("legendre", "--alpha", "surd17", "--p", "0,2", "--q", "1,0")
        assert res.returncode == 0
        assert "best-by-sufficient" in res.stdout

    def test_oracle_matches_best(self):
        a = h4("oracle", "--alpha", "surd17", "--max-q", "30", "--json")
        b = h4("best", "--alpha", "surd17", "--max-q", "30", "--json")
        fa = [(f["p"], f["q"]) for f in json.loads(a.stdout)["best"]]
        fb = [(f["p"], f["q"]) for f in json.loads(b.stdout)["best"]]
        assert fa == fb

    def test_dirichlet(self):
        res = h4("dirichlet", "--alpha", "surd17", "--n-max", "20", "--json")
        payload = json.loads(res.stdout)
        assert payload["all_verified"] and len(payload["witnesses"]) == 20

    def test_optimality_small(self):
        res = h4("optimality", "--stream", "B", "--i-max", "2", "--json")
        payload = json.loads(res.stdout)
        assert len(payload["points"]) == 2

    def test_optimality_bounds_past_the_str_limit(self, capsys):
        # The n = 49,150 bound has a denominator of 27,892 bits, past the
        # 4,300 digits that int-to-str conversion accepts.
        assert run(["optimality", "--stream", "A", "--i-max", "7"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 14
        assert lines[-2].startswith("i=7 n=49150 ") and lines[-1].startswith("i=7 n=32767 ")

    def test_stream_alpha_for_best(self):
        res = h4("best", "--alpha", "stream:three-powers", "--count", "3", "--json")
        assert res.returncode == 0
        assert len(json.loads(res.stdout)["best"]) == 3


class TestExitCodes:
    def test_bad_alpha_is_validation_error(self):
        res = h4("expand", "--alpha", "garbage", "--digits", "3")
        assert res.returncode == 2
        assert "error:" in res.stderr

    def test_k_exact_on_stream_is_validation_error(self):
        res = h4("k", "--alpha", "stream:three-powers", "--exact")
        assert res.returncode == 2

    def test_cap_exceeded(self):
        # 1+√7 never cycles, so period detection must hit the cap.
        res = h4("period", "--alpha", '{"P":[1,0],"Q":[1,0],"D":[7,0],"S":[1,0]}',
                 "--cap-iterations", "200")
        assert res.returncode == 3
        assert "cap exceeded" in res.stderr

    def test_rosen_rejects_sqrt2_rational(self):
        res = h4("rosen", "--alpha", '{"P":[0,1],"Q":[0,0],"D":[1,0],"S":[1,0]}',
                 "--digits", "3")
        assert res.returncode == 2


class TestDeterminismAndConfig:
    def test_byte_identical_runs(self):
        a = h4("best", "--alpha", "surd17", "--count", "6", "--json")
        b = h4("best", "--alpha", "surd17", "--count", "6", "--json")
        assert a.stdout == b.stdout

    def test_corpus_golden_seed1(self):
        got = [surd_to_json(s) for s in make_corpus(1, 3, 5)]
        assert got == [
            {"P": [-4, 5], "Q": [-2, 1], "D": [-2, 4], "S": [4, 0]},
            {"P": [1, 1], "Q": [5, -3], "D": [0, 3], "S": [5, 0]},
            {"P": [6, -2], "Q": [-4, 3], "D": [1, 3], "S": [8, 0]},
        ]

    def test_corpus_cli_respects_seed(self):
        a = h4("corpus", "--size", "2", "--seed", "7", "--json")
        b = h4("corpus", "--size", "2", "--seed", "7", "--json")
        c = h4("corpus", "--size", "2", "--seed", "8", "--json")
        assert a.stdout == b.stdout
        assert a.stdout != c.stdout

    def test_corpus_values_positive_irrational(self):
        for s in make_corpus(3, 20, 5):
            assert s.sign() > 0
            assert not s.is_rational() and not s.is_sqrt2_rational()

    def test_config_file_sets_format(self, tmp_path):
        cfg = tmp_path / "h4.cfg"
        cfg.write_text("format = json\ncorpus_rng = python-mersenne\n")
        res = h4("expand", "--alpha", "one", "--digits", "3", "--config", str(cfg))
        assert json.loads(res.stdout)["digits"] == [2, 2, 2]

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "h4.cfg"
        cfg.write_text("format = json\n")
        res = h4("expand", "--alpha", "one", "--digits", "3", "--format", "text",
                 "--config", str(cfg))
        assert res.stdout == "2 2 2\n"

    def test_config_rejects_other_rng(self, tmp_path):
        cfg = tmp_path / "h4.cfg"
        cfg.write_text("corpus_rng = xorshift\n")
        res = h4("corpus", "--size", "1", "--config", str(cfg))
        assert res.returncode == 2

    @pytest.mark.parametrize("line", ["cap_iterations = -1", "cap_iterations = ten",
                                      "format = xml", "formatt = json"])
    def test_config_rejects_bad_values_and_keys(self, line, tmp_path, capsys):
        cfg = tmp_path / "h4.cfg"
        cfg.write_text(line + "\n")
        assert run(["rosen", "--alpha", "surd17", "--digits", "3", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""

    def test_json_roundtrip_through_parse_alpha(self):
        for s in make_corpus(5, 5, 4):
            again = parse_alpha(json.dumps(surd_to_json(s)))
            assert again == s


class TestGlobalFlagPlacement:
    """Global flags are accepted before or after the subcommand; when both
    are given, the one after the subcommand wins."""

    def test_format_before_subcommand(self, capsys):
        assert run(["--json", "expand", "--alpha", "one", "--digits", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["digits"] == [2, 2, 2]

    def test_seed_before_subcommand(self, capsys):
        run(["corpus", "--size", "1", "--seed", "8"])
        after = capsys.readouterr().out
        run(["corpus", "--size", "1", "--seed", "1"])
        assert capsys.readouterr().out != after
        run(["--seed", "8", "corpus", "--size", "1"])
        assert capsys.readouterr().out == after

    def test_cap_before_subcommand(self, capsys):
        argv = ["best", "--alpha", "surd17", "--count", "50"]
        assert run(["--cap-iterations", "5", *argv]) == 3
        assert "cap exceeded" in capsys.readouterr().err
        assert run([*argv, "--cap-iterations", "5"]) == 3

    def test_flag_after_subcommand_wins(self, capsys):
        argv = ["expand", "--alpha", "one", "--digits", "2"]
        assert run(["--json", *argv, "--format", "csv"]) == 0
        assert capsys.readouterr().out == "n,digit\n1,2\n2,2\n"
        run(["corpus", "--size", "1", "--seed", "1"])
        seed1 = capsys.readouterr().out
        run(["--seed", "8", "corpus", "--size", "1", "--seed", "1"])
        assert capsys.readouterr().out == seed1


class TestCountsAndBudgets:
    """Negative counts are bad input (exit 2); the Gauss map, the walk and
    the oracle's ladder stop at the iteration budget (exit 3)."""

    @pytest.mark.parametrize(
        "argv",
        [
            "expand --alpha one --digits -2",
            "period --alpha surd17 --digits -1",
            "rosen --alpha surd17 --digits -1",
            "dual-rosen --alpha surd17 --digits -1",
            "best --alpha surd17 --count -3",
            "oracle --alpha surd17 --max-q -5",
            "k --alpha surd17 --numeric --records -4",
            "dirichlet --alpha surd17 --n-max -1",
            "optimality --stream A --i-max -1",
            "corpus --size -2",
            "expand --alpha one --digits 3 --cap-iterations -1",
        ],
    )
    def test_negative_count_is_validation_error(self, argv, capsys):
        assert run(argv.split()) == 2
        captured = capsys.readouterr()
        assert "must not be negative" in captured.err and captured.out == ""

    def test_zero_best_count_is_validation_error(self, capsys):
        assert run(["best", "--alpha", "surd17", "--count", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["rosen", "dual-rosen"])
    def test_gauss_map_respects_cap(self, command, capsys):
        argv = [command, "--alpha", "surd17", "--digits", "12"]
        assert run([*argv, "--cap-iterations", "11"]) == 3
        assert "cap exceeded" in capsys.readouterr().err
        assert run([*argv, "--cap-iterations", "12"]) == 0
        capped = capsys.readouterr().out
        assert run(argv) == 0
        assert capsys.readouterr().out == capped

    @pytest.mark.parametrize(
        "argv",
        [
            "oracle --alpha surd17 --max-q 200 --cap-iterations 10",
            "dirichlet --alpha surd17 --n-max 500 --cap-iterations 5",
            "legendre --alpha surd17 --p 1,0 --q 0,50000 --cap-iterations 10",
            "k --alpha surd17 --numeric --records 50 --cap-iterations 10",
        ],
    )
    def test_walk_and_ladder_respect_cap(self, argv, capsys):
        assert run(argv.split()) == 3
        captured = capsys.readouterr()
        assert "cap exceeded" in captured.err and captured.out == ""

    @pytest.mark.parametrize("command", [["best", "--count", "1"], ["k", "--numeric"]], ids=["best", "k"])
    def test_leading_threes_respect_cap(self, command, monkeypatch, capsys):
        """2,000,000 starts with over a million 3s: the run of leading 3s
        counts against the cap, so at most cap + 1 digits are expanded."""
        steps = 0
        real_step = Expansion._surd_digit

        def counted_step(self, g):
            nonlocal steps
            steps += 1
            return real_step(self, g)

        monkeypatch.setattr(Expansion, "_surd_digit", counted_step)
        big = '{"P":[2000000,0],"Q":[0,0],"D":[1,0],"S":[1,0]}'
        assert run([*command, "--alpha", big, "--cap-iterations", "10"]) == 3
        captured = capsys.readouterr()
        assert "leading 3 digits" in captured.err and captured.out == ""
        assert 0 < steps <= 11

    def test_period_digits_zero_is_a_bound(self, capsys):
        # surd17 has period 6: --digits 0 and 3 both trip, 6 does not.
        for digits in ("0", "3"):
            assert run(["period", "--alpha", "surd17", "--digits", digits]) == 3
            captured = capsys.readouterr()
            assert "cap exceeded" in captured.err and captured.out == ""
        assert run(["period", "--alpha", "surd17", "--digits", "6"]) == 0

    def test_k_numeric_empty_window_is_validation_error(self, capsys):
        argv = ["k", "--alpha", "surd17", "--numeric", "--records", "20"]
        assert run([*argv, "--window", "0"]) == 2
        captured = capsys.readouterr()
        assert "window" in captured.err and captured.out == ""
        assert run([*argv, "--window", "1"]) == 0

    def test_oracle_cap_counts_denominators(self, capsys):
        # 15 odd denominators and 21 multiples of √2 lie below 30.
        argv = ["oracle", "--alpha", "surd17", "--max-q", "30"]
        assert run([*argv, "--cap-iterations", "35"]) == 3
        capsys.readouterr()
        assert run([*argv, "--cap-iterations", "36"]) == 0
        capped = capsys.readouterr().out
        assert run(argv) == 0
        assert capsys.readouterr().out == capped

    @pytest.mark.parametrize("command", [["period"], ["k", "--exact"]], ids=["period", "k-exact"])
    def test_certified_nonperiodic_exits_before_a_digit(self, command, monkeypatch, capsys):
        """A surd proved not eventually periodic exits 3 at the default cap
        without a single digit step of period detection."""
        from h4approx import h4_expansion

        def no_digit(*args):
            raise AssertionError("period detection scanned a digit")

        monkeypatch.setattr(h4_expansion, "_beta_step", no_digit)
        with pytest.raises(AssertionError, match="scanned a digit"):
            run([*command, "--alpha", "one"])  # the guard sees a digit step
        literal = '{"P":[-3,-3],"Q":[6,4],"D":[-1,2],"S":[1,0]}'
        assert run([*command, "--alpha", literal]) == 3
        captured = capsys.readouterr()
        assert "cap exceeded" in captured.err and captured.out == ""

    def test_optimality_cap_precedes_the_digits(self, monkeypatch, capsys):
        """Stream B at i-max 10 reads index 2·3^10 = 118,098, so a cap of 10
        exits 3 before any digit is read."""
        def no_digit(self, n):
            raise AssertionError("optimality read a digit")

        monkeypatch.setattr(RuleStream, "digit", no_digit)
        assert run(["optimality", "--stream", "B", "--i-max", "10", "--cap-iterations", "10"]) == 3
        captured = capsys.readouterr()
        assert "cap exceeded" in captured.err and captured.out == ""

    def test_optimality_cap_counts_indices(self, capsys):
        # Stream A at i-max 2 reads indices up to 3·4^2 − 2 = 46, and each
        # tail window reads fewer than 100 digits.
        argv = ["optimality", "--stream", "A", "--i-max", "2"]
        assert run([*argv, "--cap-iterations", "45"]) == 3
        assert "index 46" in capsys.readouterr().err
        assert run([*argv, "--cap-iterations", "100"]) == 0
        capped = capsys.readouterr().out
        assert run(argv) == 0
        assert capsys.readouterr().out == capped


class TestDirichletRendering:
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_decimals_once_per_distinct_fraction(self, fmt, monkeypatch, capsys):
        """500 thresholds share 6 witness fractions; a fraction's decimal and
        its error's are each rendered once."""
        import h4approx.cli as cli
        from h4approx.uniform_approx import dirichlet_sweep

        calls = 0
        real_dec = cli.dec

        def counted_dec(*args, **kwargs):
            nonlocal calls
            calls += 1
            return real_dec(*args, **kwargs)

        monkeypatch.setattr(cli, "dec", counted_dec)
        assert run(["dirichlet", "--alpha", "surd17", "--n-max", "500", "--format", fmt]) == 0
        assert capsys.readouterr().out
        distinct = {w.frac for w in dirichlet_sweep(parse_alpha("surd17"), 500)}
        assert calls <= 2 * len(distinct)
