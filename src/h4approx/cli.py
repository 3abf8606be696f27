"""Command-line front end: input parsing, corpus generation, dispatch, and
deterministic text/json/csv output.

Exact values are always printed as coefficient pairs next to an advisory
30-digit decimal; identical invocations produce byte-identical output."""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Any, Sequence

from .exact_field import MixedRadicands, Surd, ZRt2
from .hecke_group import H4Fraction, NotInQH4, canonicalize_pair
from .h4_expansion import (
    CapExceeded,
    DigitStream,
    Expansion,
    FiniteWord,
    PeriodicStream,
    STREAM_RULES,
    Terminated,
    Undecidable,
    detect_period,
)
from .rosen_cf import CFExpansion, DomainError, dual_rosen_digits, rosen_digits
from .best_approx import best_approximations, legendre_classify, oracle_best_approximations
from .uniform_approx import (
    NonPeriodicInput,
    dirichlet_sweep,
    k_exact,
    k_numeric,
    optimality_check,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CAP = 3

DECIMAL_DIGITS = 30
CORPUS_RNG = "python-mersenne"

DEFAULTS = {"format": "text", "seed": 1, "cap_iterations": 100_000}

PRESETS = {
    "one": lambda: Surd.of(1),
    # (3+√17)/(2√2), the worked quadratic example used across commands.
    "surd17": lambda: Surd(ZRt2(3, 0), ZRt2(1, 0), ZRt2(17, 0), ZRt2(0, 2)),
}


class ParseError(ValueError):
    pass


class ValidationError(ValueError):
    pass


def surd_to_json(x: Surd) -> dict:
    return {
        "P": list(x.P.pair()),
        "Q": list(x.Q.pair()),
        "D": list(x.D.pair()),
        "S": list(x.S.pair()),
    }


def surd_from_json(obj: Any) -> Surd:
    if not isinstance(obj, dict) or set(obj) != {"P", "Q", "D", "S"}:
        raise ParseError("surd JSON needs exactly the keys P, Q, D, S")
    parts = {}
    for key in ("P", "Q", "D", "S"):
        pair = obj[key]
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(c, int) for c in pair)
        ):
            raise ParseError(f"{key} must be a pair of integers")
        parts[key] = ZRt2(pair[0], pair[1])
    try:
        return Surd(parts["P"], parts["Q"], parts["D"], parts["S"])
    except ValueError as exc:
        raise ValidationError(str(exc)) from None


def parse_alpha(spec: str) -> Surd | DigitStream:
    """A surd JSON object, a preset name, or stream:<rule>."""
    spec = spec.strip()
    if spec in PRESETS:
        return PRESETS[spec]()
    if spec.startswith("stream:"):
        rule = spec.split(":", 1)[1]
        if rule not in STREAM_RULES:
            raise ParseError(f"unknown stream rule {rule!r}; have {sorted(STREAM_RULES)}")
        return STREAM_RULES[rule]()
    if spec.startswith("{"):
        try:
            obj = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad surd JSON at position {exc.pos}: {exc.msg}") from None
        return surd_from_json(obj)
    raise ParseError(
        f"cannot interpret {spec!r}: expected a preset ({', '.join(sorted(PRESETS))}), "
        "stream:<rule>, or a surd JSON object"
    )


def require_surd(alpha: Surd | DigitStream, command: str) -> Surd:
    if not isinstance(alpha, Surd):
        raise ValidationError(f"{command} needs an exact value, not a digit stream")
    return alpha


def make_corpus(seed: int, size: int, coeff_bound: int) -> list[Surd]:
    """Reproducible random surds: coefficients drawn uniformly from
    [-bound, bound] in the fixed order P.a, P.b, Q.a, Q.b, D.a, D.b, S.a, S.b
    with the pinned Mersenne-Twister generator, filtered to positive
    irrational values outside √2·Q."""
    if size < 0 or coeff_bound < 1:
        raise ValidationError("corpus size and coefficient bound must be positive")
    rng = random.Random(seed)
    out: list[Surd] = []
    while len(out) < size:
        coeffs = [rng.randint(-coeff_bound, coeff_bound) for _ in range(8)]
        try:
            cand = Surd(
                ZRt2(coeffs[0], coeffs[1]),
                ZRt2(coeffs[2], coeffs[3]),
                ZRt2(coeffs[4], coeffs[5]),
                ZRt2(coeffs[6], coeffs[7]),
            )
        except ValueError:
            continue
        if cand.sign() <= 0:
            continue
        if cand.is_degenerate() and (cand.is_rational() or cand.is_sqrt2_rational()):
            continue
        out.append(cand)
    return out


def frac_payload(frac: H4Fraction) -> dict:
    obj = frac.to_json()
    obj["decimal"] = frac.value().decimal(DECIMAL_DIGITS)
    return obj


def _parse_pair(text: str, what: str) -> ZRt2:
    try:
        a, b = (int(part) for part in text.split(","))
    except ValueError:
        raise ParseError(f"{what} must be 'a,b' integers") from None
    return ZRt2(a, b)


class Output:
    def __init__(self) -> None:
        self.payload: dict = {}
        self.text: list[str] = []
        self.csv_header: list[str] = []
        self.csv_rows: list[list] = []

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return json.dumps(self.payload, sort_keys=True)
        if fmt == "csv":
            lines = [",".join(self.csv_header)]
            lines += [",".join(str(c) for c in row) for row in self.csv_rows]
            return "\n".join(lines)
        return "\n".join(self.text)


def cmd_expand(args, cap: int) -> Output:
    if getattr(args, "stream", None):
        alpha: Surd | DigitStream = STREAM_RULES[args.stream]()
    else:
        alpha = parse_alpha(args.alpha)
    out = Output()
    exp = Expansion(alpha)
    digits: list[int] = []
    boundary = None
    for n in range(1, args.digits + 1):
        try:
            digits.append(exp.digit(n))
        except Terminated as exc:
            boundary = exc.boundary
            break
    out.payload = {"digits": digits, "terminated": boundary is not None}
    out.text = [" ".join(str(d) for d in digits)]
    if boundary is not None:
        out.payload["boundary"] = boundary
        word = FiniteWord(tuple(digits), boundary)
        lo, hi = word.completions()
        out.payload["completions"] = [
            {"preperiod": list(s.preperiod), "period": list(s.period)} for s in (lo, hi)
        ]
        out.text.append(f"terminated at {boundary}")
        out.text.append(
            f"completions: {list(lo.preperiod)}+{list(lo.period)}^inf"
            f" | {list(hi.preperiod)}+{list(hi.period)}^inf"
        )
    out.csv_header = ["n", "digit"]
    out.csv_rows = [[i + 1, d] for i, d in enumerate(digits)]
    return out


def cmd_period(args, cap: int) -> Output:
    alpha = require_surd(parse_alpha(args.alpha), "period detection")
    stream = detect_period(alpha, cap=min(cap, args.digits if args.digits else cap))
    out = Output()
    if isinstance(stream, PeriodicStream):
        out.payload = {
            "kind": "eventually-periodic",
            "preperiod": list(stream.preperiod),
            "period": list(stream.period),
        }
        out.text = [f"preperiod {list(stream.preperiod)} period {list(stream.period)}"]
    else:
        assert isinstance(stream, FiniteWord)
        out.payload = {
            "kind": "finite",
            "digits": list(stream.digits),
            "boundary": stream.boundary,
        }
        out.text = [f"finite {list(stream.digits)} at {stream.boundary}"]
    out.csv_header = ["kind", "digits"]
    out.csv_rows = [[out.payload["kind"], " ".join(map(str, out.payload.get("period", out.payload.get("digits", []))))]]
    return out


def _cf_output(cf: CFExpansion) -> Output:
    out = Output()
    convs = cf.convergents()
    out.payload = {
        "kind": cf.kind,
        "a0": cf.a0,
        "terms": [[t.eps, t.a] for t in cf.terms],
        "convergents": [
            {"i": c.index, **frac_payload(c.frac)} for c in convs
        ],
    }
    terms_txt = " ".join(f"{'+' if t.eps > 0 else '-'}1/{t.a}" for t in cf.terms)
    out.text = [f"a0 = {cf.a0}; {terms_txt}"]
    out.text += [f"r_{c.index}/s_{c.index} = {c.frac} = {c.frac.value().decimal(DECIMAL_DIGITS)}" for c in convs]
    out.csv_header = ["i", "eps", "a", "p_a", "p_b", "q_a", "q_b"]
    out.csv_rows = [
        [c.index, "", "", *c.frac.p.pair(), *c.frac.q.pair()] for c in convs
    ]
    for row, t in zip(out.csv_rows[1:], cf.terms):
        row[1], row[2] = t.eps, t.a
    return out


def cmd_rosen(args, cap: int) -> Output:
    alpha = require_surd(parse_alpha(args.alpha), "rosen")
    return _cf_output(rosen_digits(alpha, args.digits, cap=cap))


def cmd_dual_rosen(args, cap: int) -> Output:
    alpha = require_surd(parse_alpha(args.alpha), "dual-rosen")
    return _cf_output(dual_rosen_digits(alpha, args.digits, cap=cap))


def cmd_best(args, cap: int) -> Output:
    alpha = parse_alpha(args.alpha)
    if args.max_q is None and args.count is None:
        raise ValidationError("need --max-q or --count")
    best = best_approximations(
        alpha,
        max_q=args.max_q,
        max_count=args.count,
        cap=cap,
    )
    out = Output()
    out.payload = {
        "best": [
            {
                **frac_payload(b.frac),
                "side": b.side,
                "n_first": b.n_first,
                "n_last": b.n_last,
                "is_rosen_convergent": b.is_rosen,
                "is_dual_convergent": b.is_dual,
            }
            for b in best
        ]
    }
    out.text = [
        f"{b.frac} = {b.frac.value().decimal(DECIMAL_DIGITS)}"
        f"  [{b.side} n={b.n_first}..{b.n_last}"
        f"{' rosen' if b.is_rosen else ''}{' dual' if b.is_dual else ''}]"
        for b in best
    ]
    out.csv_header = [
        "i", "p_a", "p_b", "q_a", "q_b", "family", "side",
        "n_first", "n_last", "is_rosen", "is_dual", "decimal",
    ]
    out.csv_rows = [
        [
            i + 1, *b.frac.p.pair(), *b.frac.q.pair(), b.frac.family, b.side,
            b.n_first, b.n_last, int(b.is_rosen), int(b.is_dual),
            b.frac.value().decimal(DECIMAL_DIGITS),
        ]
        for i, b in enumerate(best)
    ]
    return out


def cmd_oracle(args, cap: int) -> Output:
    alpha = require_surd(parse_alpha(args.alpha), "oracle")
    fracs = oracle_best_approximations(alpha, args.max_q)
    out = Output()
    out.payload = {"best": [frac_payload(f) for f in fracs]}
    out.text = [f"{f} = {f.value().decimal(DECIMAL_DIGITS)}" for f in fracs]
    out.csv_header = ["i", "p_a", "p_b", "q_a", "q_b", "family"]
    out.csv_rows = [
        [i + 1, *f.p.pair(), *f.q.pair(), f.family] for i, f in enumerate(fracs)
    ]
    return out


def cmd_legendre(args, cap: int) -> Output:
    alpha = require_surd(parse_alpha(args.alpha), "legendre")
    p = _parse_pair(args.p, "--p")
    q = _parse_pair(args.q, "--q")
    try:
        frac = canonicalize_pair(p, q)
    except NotInQH4 as exc:
        raise ValidationError(str(exc)) from None
    verdict = legendre_classify(alpha, frac)
    delta = abs(alpha - frac.value())
    out = Output()
    out.payload = {
        "fraction": frac_payload(frac),
        "classification": verdict,
        "distance_decimal": delta.decimal(DECIMAL_DIGITS),
    }
    out.text = [f"{frac}: {verdict} (|alpha - p/q| = {delta.decimal(DECIMAL_DIGITS)})"]
    out.csv_header = ["p_a", "p_b", "q_a", "q_b", "classification"]
    out.csv_rows = [[*frac.p.pair(), *frac.q.pair(), verdict]]
    return out


def cmd_k(args, cap: int) -> Output:
    alpha = parse_alpha(args.alpha)
    out = Output()
    if args.numeric:
        res = k_numeric(alpha, records=args.records, window=args.window)
        out.payload = {
            "method": res.method,
            "certified": res.certified,
            "estimate": res.estimate,
            "window": args.window,
            "records": args.records,
        }
        out.text = [f"K ~= {res.estimate!r} (windowed sup, not certified)"]
        out.csv_header = ["i", "value_decimal", "case", "exact_num", "exact_den"]
        for r in res.records:
            if r.value is not None:
                out.csv_rows.append(
                    [r.i, r.value.decimal(DECIMAL_DIGITS), r.case,
                     f"{r.value.P.pair()}+{r.value.Q.pair()}*sqrt{r.value.D.pair()}",
                     f"{r.value.S.pair()}"]
                )
            else:
                out.csv_rows.append([r.i, repr(r.midpoint()), r.case, "", ""])
    else:
        value = require_surd(alpha, "k --exact")
        res = k_exact(value, cap=cap)
        assert res.value is not None
        out.payload = {
            "method": res.method,
            "certified": res.certified,
            "value": surd_to_json(res.value),
            "decimal": res.value.decimal(DECIMAL_DIGITS),
            "phases": [
                {
                    "phase": ph.phase,
                    "side": ph.side,
                    "case": ph.case,
                    "decimal": ph.value.decimal(DECIMAL_DIGITS),
                }
                for ph in res.phases
            ],
        }
        out.text = [
            f"K = {json.dumps(surd_to_json(res.value), sort_keys=True)}",
            f"  = {res.value.decimal(DECIMAL_DIGITS)}",
        ]
        out.csv_header = ["i", "value_decimal", "case", "exact_num", "exact_den"]
        out.csv_rows = [
            [ph.phase, ph.value.decimal(DECIMAL_DIGITS), ph.case,
             f"{ph.value.P.pair()}+{ph.value.Q.pair()}*sqrt{ph.value.D.pair()}",
             f"{ph.value.S.pair()}"]
            for ph in res.phases
        ]
    return out


def cmd_dirichlet(args, cap: int) -> Output:
    alpha = require_surd(parse_alpha(args.alpha), "dirichlet")
    wits = dirichlet_sweep(alpha, args.n_max)
    out = Output()
    out.payload = {
        "n_max": args.n_max,
        "all_verified": all(w.verify() for w in wits),
        "witnesses": [
            {"N": w.n_bound, **frac_payload(w.frac), "err_decimal": w.err.decimal(DECIMAL_DIGITS)}
            for w in wits
        ],
    }
    out.text = [f"verified thresholds 1..{args.n_max}"]
    out.text += [
        f"N={w.n_bound}: {w.frac} err={w.err.decimal(12)}" for w in wits
    ]
    out.csv_header = ["N", "p_a", "p_b", "q_a", "q_b", "err_decimal"]
    out.csv_rows = [
        [w.n_bound, *w.frac.p.pair(), *w.frac.q.pair(), w.err.decimal(DECIMAL_DIGITS)]
        for w in wits
    ]
    return out


def cmd_optimality(args, cap: int) -> Output:
    points = optimality_check(args.stream, i_max=args.i_max)
    out = Output()
    out.payload = {
        "stream": args.stream,
        "points": [
            {
                "i": p.i,
                "n": p.n,
                "lo_decimal": p.lo.decimal(DECIMAL_DIGITS),
                "hi_decimal": p.hi.decimal(DECIMAL_DIGITS),
                "target_decimal": p.target.decimal(DECIMAL_DIGITS),
                "distance_decimal": p.max_distance().decimal(DECIMAL_DIGITS),
            }
            for p in points
        ],
    }
    out.text = [
        f"i={p.i} n={p.n} value~{p.lo.decimal(12)} target={p.target.decimal(12)}"
        f" dist<={p.max_distance().decimal(6)}"
        for p in points
    ]
    out.csv_header = ["i", "n", "lo", "hi", "target", "distance"]
    out.csv_rows = [
        [p.i, p.n, p.lo.decimal(DECIMAL_DIGITS), p.hi.decimal(DECIMAL_DIGITS),
         p.target.decimal(DECIMAL_DIGITS), p.max_distance().decimal(DECIMAL_DIGITS)]
        for p in points
    ]
    return out


def cmd_corpus(args, cap: int) -> Output:
    surds = make_corpus(args.seed, args.size, args.coeff_bound)
    out = Output()
    out.payload = {
        "seed": args.seed,
        "size": args.size,
        "coeff_bound": args.coeff_bound,
        "rng": CORPUS_RNG,
        "corpus": [
            {**surd_to_json(s), "decimal": s.decimal(DECIMAL_DIGITS)} for s in surds
        ],
    }
    out.text = [
        f"{json.dumps(surd_to_json(s), sort_keys=True)} = {s.decimal(DECIMAL_DIGITS)}"
        for s in surds
    ]
    out.csv_header = ["i", "P_a", "P_b", "Q_a", "Q_b", "D_a", "D_b", "S_a", "S_b", "decimal"]
    out.csv_rows = [
        [i + 1, *s.P.pair(), *s.Q.pair(), *s.D.pair(), *s.S.pair(), s.decimal(DECIMAL_DIGITS)]
        for i, s in enumerate(surds)
    ]
    return out


COMMANDS = {
    "expand": cmd_expand,
    "period": cmd_period,
    "rosen": cmd_rosen,
    "dual-rosen": cmd_dual_rosen,
    "best": cmd_best,
    "oracle": cmd_oracle,
    "legendre": cmd_legendre,
    "k": cmd_k,
    "dirichlet": cmd_dirichlet,
    "optimality": cmd_optimality,
    "corpus": cmd_corpus,
}


def _add_common(p: argparse.ArgumentParser, default: Any) -> None:
    """The global flags.  The subcommand copies default to SUPPRESS, so a
    flag given before the subcommand is kept unless it is given again after."""
    p.add_argument("--format", choices=["text", "json", "csv"], default=default)
    p.add_argument("--json", dest="format", action="store_const", const="json", default=default)
    p.add_argument("--csv", dest="format", action="store_const", const="csv", default=default)
    p.add_argument("--seed", type=int, default=default)
    p.add_argument("--cap-iterations", type=int, default=default)
    p.add_argument("--config", default=default)


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(prog="h4", description=__doc__)
    _add_common(root, None)
    subs = root.add_subparsers(dest="command", required=True)

    def sub(name: str, **kwargs) -> argparse.ArgumentParser:
        p = subs.add_parser(name, **kwargs)
        _add_common(p, argparse.SUPPRESS)
        return p

    p = sub("expand", help="digit expansion of a value or stream")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--alpha")
    src.add_argument("--stream", choices=sorted(STREAM_RULES))
    p.add_argument("--digits", type=int, required=True)

    p = sub("period", help="detect the eventually periodic digit structure")
    p.add_argument("--alpha", required=True)
    p.add_argument("--digits", type=int, default=None)

    for name in ("rosen", "dual-rosen"):
        p = sub(name, help=f"{name} continued fraction digits and convergents")
        p.add_argument("--alpha", required=True)
        p.add_argument("--digits", type=int, required=True)

    p = sub("best", help="ordered best approximations")
    p.add_argument("--alpha", required=True)
    p.add_argument("--max-q", type=int, default=None)
    p.add_argument("--count", type=int, default=None)

    p = sub("oracle", help="brute-force definitional scan")
    p.add_argument("--alpha", required=True)
    p.add_argument("--max-q", type=int, required=True)

    p = sub("legendre", help="classify one canonical fraction")
    p.add_argument("--alpha", required=True)
    p.add_argument("--p", required=True, help="numerator as a,b meaning a+b*sqrt2")
    p.add_argument("--q", required=True, help="denominator as a,b")

    p = sub("k", help="uniform approximation constant")
    p.add_argument("--alpha", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", default=True)
    mode.add_argument("--numeric", action="store_true", default=False)
    p.add_argument("--window", type=int, default=200)
    p.add_argument("--records", type=int, default=1000)

    p = sub("dirichlet", help="verify the uniform theorem for 1..N")
    p.add_argument("--alpha", required=True)
    p.add_argument("--n-max", type=int, required=True)

    p = sub("optimality", help="sharpness stream checkers")
    p.add_argument("--stream", choices=["A", "B"], required=True)
    p.add_argument("--i-max", type=int, default=5)

    p = sub("corpus", help="reproducible random surd corpus")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--coeff-bound", type=int, default=5)

    return root


def load_config(path: str) -> dict:
    cfg: dict = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ParseError(f"{path}:{lineno}: expected key = value")
                key, _, value = line.partition("=")
                cfg[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from None
    if "corpus_rng" in cfg and cfg["corpus_rng"] != CORPUS_RNG:
        raise ValidationError(
            f"config pins corpus_rng={cfg['corpus_rng']!r}; this build provides {CORPUS_RNG!r}"
        )
    return cfg


def _resolve(args: argparse.Namespace) -> None:
    cfg = load_config(args.config) if args.config else {}
    for key, builtin in DEFAULTS.items():
        if getattr(args, key, None) is None:
            value: Any = cfg.get(key, builtin)
            if key in ("seed", "cap_iterations"):
                value = int(value)
            setattr(args, key, value)


# Flags that count digits, terms, records or a bound; none may be negative.
COUNT_FLAGS = ("digits", "count", "max_q", "n_max", "records", "window", "i_max", "size")


def _check_counts(args: argparse.Namespace) -> None:
    for name in COUNT_FLAGS:
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise ValidationError(f"--{name.replace('_', '-')} must not be negative, got {value}")


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_counts(args)
        _resolve(args)
        out = COMMANDS[args.command](args, args.cap_iterations)
    except (ParseError, ValidationError, DomainError, NotInQH4, NonPeriodicInput,
            MixedRadicands, Terminated, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (CapExceeded, Undecidable) as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    rendered = out.render(args.format)
    if rendered:
        print(rendered)
    return EXIT_OK


def main() -> None:
    import os

    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # Downstream consumer (e.g. head) closed the pipe; exit quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    main()
