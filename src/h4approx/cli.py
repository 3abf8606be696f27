"""Command-line front end: input parsing, corpus generation, dispatch, and
deterministic text/json/csv output.

Exact values are always printed as coefficient pairs next to an advisory
30-digit decimal; identical invocations produce byte-identical output."""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .exact_field import MixedRadicands, QRt2, Surd, ZRt2
from .hecke_group import H4Fraction, NotInQH4, canonicalize_pair
from .h4_expansion import (
    DEFAULT_CAP,
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
from .rosen_cf import DomainError, dual_rosen_digits, rosen_digits
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

DEFAULTS = {"format": "text", "seed": 1, "cap_iterations": DEFAULT_CAP}
CONFIG_KEYS = (*DEFAULTS, "corpus_rng")
FORMATS = ("text", "json", "csv")

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
            or not all(type(c) is int for c in pair)  # JSON true/false are bools, not integers
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


def dec(x: Surd | QRt2, digits: int = DECIMAL_DIGITS) -> str:
    """The advisory decimal of an exact value."""
    return x.decimal(digits)


def frac_payload(frac: H4Fraction) -> dict:
    return {**frac.to_json(), "decimal": dec(frac.value())}


def frac_text(frac: H4Fraction) -> str:
    return f"{frac} = {dec(frac.value())}"


PQ_HEADER = ["p_a", "p_b", "q_a", "q_b"]
K_HEADER = ["i", "value_decimal", "case", "exact_num", "exact_den"]


def pq(frac: H4Fraction) -> list[int]:
    """The PQ_HEADER columns of a fraction."""
    return [*frac.p.pair(), *frac.q.pair()]


def k_row(i: int, case: str, x: Surd) -> list:
    """A K_HEADER row of an exact value: its decimal and its surd as
    numerator P + Q·sqrt(D) over denominator S."""
    return [i, dec(x), case, f"{x.P.pair()}+{x.Q.pair()}*sqrt{x.D.pair()}", f"{x.S.pair()}"]


def _parse_pair(text: str, what: str) -> ZRt2:
    try:
        a, b = (int(part) for part in text.split(","))
    except ValueError:
        raise ParseError(f"{what} must be 'a,b' integers") from None
    return ZRt2(a, b)


@dataclass(frozen=True)
class Output:
    """A command's result, computed once, seen through three zero-argument
    views: the JSON payload, the text lines, and the CSV table with its
    header as the first row.  Only the requested view is ever built."""

    payload: Callable[[], dict]
    text: Callable[[], list[str]]
    table: Callable[[], list[Sequence]]

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return json.dumps(self.payload(), sort_keys=True)
        if fmt == "csv":
            return "\n".join(",".join(str(c) for c in row) for row in self.table())
        return "\n".join(self.text())


def cmd_expand(args, cap: int) -> Output:
    exp = Expansion(parse_alpha(f"stream:{args.stream}" if args.stream else args.alpha))
    digits: list[int] = []
    boundary = None
    for n in range(1, args.digits + 1):
        try:
            digits.append(exp.digit(n))
        except Terminated as exc:
            boundary = exc.boundary
            break
    ends = FiniteWord(tuple(digits), boundary).completions() if boundary is not None else ()

    def payload() -> dict:
        obj: dict = {"digits": digits, "terminated": boundary is not None}
        if ends:
            obj["boundary"] = boundary
            obj["completions"] = [{"preperiod": list(s.preperiod), "period": list(s.period)}
                                  for s in ends]
        return obj

    def text() -> list[str]:
        lines = [" ".join(str(d) for d in digits)]
        if ends:
            lines.append(f"terminated at {boundary}")
            lines.append("completions: " + " | ".join(
                f"{list(s.preperiod)}+{list(s.period)}^inf" for s in ends))
        return lines

    return Output(payload, text, lambda: [["n", "digit"], *enumerate(digits, start=1)])


def cmd_period(args, cap: int) -> Output:
    alpha = require_surd(parse_alpha(args.alpha), "period detection")
    stream = detect_period(alpha, cap=cap if args.digits is None else min(cap, args.digits))
    if isinstance(stream, PeriodicStream):
        pre, digits = list(stream.preperiod), list(stream.period)
        record = {"kind": "eventually-periodic", "preperiod": pre, "period": digits}
        line = f"preperiod {pre} period {digits}"
    else:
        assert isinstance(stream, FiniteWord)
        digits = list(stream.digits)
        record = {"kind": "finite", "digits": digits, "boundary": stream.boundary}
        line = f"finite {digits} at {stream.boundary}"
    row = [record["kind"], " ".join(map(str, digits))]
    return Output(lambda: record, lambda: [line], lambda: [["kind", "digits"], row])


def cmd_cf(args, cap: int) -> Output:
    """rosen and dual-rosen: the digits and convergents of one Gauss map."""
    expand = rosen_digits if args.command == "rosen" else dual_rosen_digits
    cf = expand(require_surd(parse_alpha(args.alpha), args.command), args.digits, cap=cap)
    convs = cf.convergents()
    marks = [("", "")] + [(t.eps, t.a) for t in cf.terms]
    terms_txt = " ".join(f"{'+' if t.eps > 0 else '-'}1/{t.a}" for t in cf.terms)
    return Output(
        lambda: {"kind": cf.kind, "a0": cf.a0, "terms": [[t.eps, t.a] for t in cf.terms],
                 "convergents": [{"i": c.index, **frac_payload(c.frac)} for c in convs]},
        lambda: [f"a0 = {cf.a0}; {terms_txt}"]
        + [f"r_{c.index}/s_{c.index} = {frac_text(c.frac)}" for c in convs],
        lambda: [["i", "eps", "a", *PQ_HEADER]]
        + [[c.index, *mark, *pq(c.frac)] for c, mark in zip(convs, marks)],
    )


def cmd_best(args, cap: int) -> Output:
    alpha = parse_alpha(args.alpha)
    if args.max_q is None and args.count is None:
        raise ValidationError("need --max-q or --count")
    best = best_approximations(alpha, max_q=args.max_q, max_count=args.count, cap=cap)
    return Output(
        lambda: {"best": [
            {**frac_payload(b.frac), "side": b.side, "n_first": b.n_first, "n_last": b.n_last,
             "is_rosen_convergent": b.is_rosen, "is_dual_convergent": b.is_dual}
            for b in best
        ]},
        lambda: [
            f"{frac_text(b.frac)}  [{b.side} n={b.n_first}..{b.n_last}"
            f"{' rosen' if b.is_rosen else ''}{' dual' if b.is_dual else ''}]"
            for b in best
        ],
        lambda: [["i", *PQ_HEADER, "family", "side", "n_first", "n_last", "is_rosen", "is_dual",
                  "decimal"]]
        + [[i, *pq(b.frac), b.frac.family, b.side, b.n_first, b.n_last,
            int(b.is_rosen), int(b.is_dual), dec(b.frac.value())]
           for i, b in enumerate(best, start=1)],
    )


def cmd_oracle(args, cap: int) -> Output:
    alpha = require_surd(parse_alpha(args.alpha), "oracle")
    fracs = oracle_best_approximations(alpha, args.max_q, cap=cap)
    return Output(
        lambda: {"best": [frac_payload(f) for f in fracs]},
        lambda: [frac_text(f) for f in fracs],
        lambda: [["i", *PQ_HEADER, "family"]]
        + [[i, *pq(f), f.family] for i, f in enumerate(fracs, start=1)],
    )


def cmd_legendre(args, cap: int) -> Output:
    alpha = require_surd(parse_alpha(args.alpha), "legendre")
    p = _parse_pair(args.p, "--p")
    q = _parse_pair(args.q, "--q")
    try:
        frac = canonicalize_pair(p, q)
    except NotInQH4 as exc:
        raise ValidationError(str(exc)) from None
    verdict = legendre_classify(alpha, frac, cap=cap)
    delta = abs(alpha - frac.value())
    return Output(
        lambda: {"fraction": frac_payload(frac), "classification": verdict,
                 "distance_decimal": dec(delta)},
        lambda: [f"{frac}: {verdict} (|alpha - p/q| = {dec(delta)})"],
        lambda: [[*PQ_HEADER, "classification"], [*pq(frac), verdict]],
    )


def cmd_k(args, cap: int) -> Output:
    alpha = parse_alpha(args.alpha)
    if args.numeric:
        res = k_numeric(alpha, records=args.records, window=args.window, cap=cap)
        return Output(
            lambda: {"method": res.method, "certified": res.certified, "estimate": res.estimate,
                     "window": args.window, "records": args.records},
            lambda: [f"K ~= {res.estimate!r} (windowed sup, not certified)"],
            lambda: [K_HEADER] + [
                k_row(r.i, r.case, r.value) if r.value is not None
                else [r.i, repr(r.midpoint()), r.case, "", ""]
                for r in res.records
            ],
        )
    res = k_exact(require_surd(alpha, "k --exact"), cap=cap)
    value = res.value
    assert value is not None
    return Output(
        lambda: {
            "method": res.method, "certified": res.certified,
            "value": surd_to_json(value), "decimal": dec(value),
            "phases": [{"phase": ph.phase, "side": ph.side, "case": ph.case,
                        "decimal": dec(ph.value)} for ph in res.phases],
        },
        lambda: [f"K = {json.dumps(surd_to_json(value), sort_keys=True)}", f"  = {dec(value)}"],
        lambda: [K_HEADER] + [k_row(ph.phase, ph.case, ph.value) for ph in res.phases],
    )


def cmd_dirichlet(args, cap: int) -> Output:
    alpha = require_surd(parse_alpha(args.alpha), "dirichlet")
    wits = dirichlet_sweep(alpha, args.n_max, cap=cap)
    # Consecutive thresholds share a witness fraction and its error, so a
    # view renders its decimals once per distinct fraction.
    errs = {w.frac: w.err for w in wits}

    def by_frac(view: Callable) -> list:
        """Each witness with view(fraction, error), computed per fraction."""
        shown = {f: view(f, e) for f, e in errs.items()}
        return [(w, shown[w.frac]) for w in wits]

    return Output(
        lambda: {"n_max": args.n_max, "all_verified": all(w.verify() for w in wits),
                 "witnesses": [{"N": w.n_bound, **s} for w, s in by_frac(
                     lambda f, e: {**frac_payload(f), "err_decimal": dec(e)})]},
        lambda: [f"verified thresholds 1..{args.n_max}"]
        + [f"N={w.n_bound}: {w.frac} err={s}" for w, s in by_frac(lambda f, e: dec(e, 12))],
        lambda: [["N", *PQ_HEADER, "err_decimal"]]
        + [[w.n_bound, *pq(w.frac), s] for w, s in by_frac(lambda f, e: dec(e))],
    )


OPTIMALITY_COLUMNS = ["lo", "hi", "target", "distance"]


def cmd_optimality(args, cap: int) -> Output:
    points = optimality_check(args.stream, i_max=args.i_max, cap=cap)
    # The OPTIMALITY_COLUMNS values of each point.
    values = [(p.lo, p.hi, p.target, p.max_distance()) for p in points]
    return Output(
        lambda: {"stream": args.stream, "points": [
            {"i": p.i, "n": p.n, **{f"{k}_decimal": dec(x) for k, x in zip(OPTIMALITY_COLUMNS, v)}}
            for p, v in zip(points, values)
        ]},
        lambda: [
            f"i={p.i} n={p.n} value~{dec(lo, 12)} target={dec(target, 12)} dist<={dec(dist, 6)}"
            for p, (lo, _, target, dist) in zip(points, values)
        ],
        lambda: [["i", "n", *OPTIMALITY_COLUMNS]]
        + [[p.i, p.n, *map(dec, v)] for p, v in zip(points, values)],
    )


def cmd_corpus(args, cap: int) -> Output:
    surds = make_corpus(args.seed, args.size, args.coeff_bound)
    return Output(
        lambda: {"seed": args.seed, "size": args.size, "coeff_bound": args.coeff_bound,
                 "rng": CORPUS_RNG,
                 "corpus": [{**surd_to_json(s), "decimal": dec(s)} for s in surds]},
        lambda: [f"{json.dumps(surd_to_json(s), sort_keys=True)} = {dec(s)}" for s in surds],
        lambda: [["i", "P_a", "P_b", "Q_a", "Q_b", "D_a", "D_b", "S_a", "S_b", "decimal"]]
        + [[i, *s.P.pair(), *s.Q.pair(), *s.D.pair(), *s.S.pair(), dec(s)]
           for i, s in enumerate(surds, start=1)],
    )


COMMANDS = {
    "expand": cmd_expand,
    "period": cmd_period,
    "rosen": cmd_cf,
    "dual-rosen": cmd_cf,
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
    p.add_argument("--format", choices=FORMATS, default=default)
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
    unknown = sorted(set(cfg) - set(CONFIG_KEYS))
    if unknown:
        raise ValidationError(f"config {path}: unknown keys {unknown}; have {list(CONFIG_KEYS)}")
    if "corpus_rng" in cfg and cfg["corpus_rng"] != CORPUS_RNG:
        raise ValidationError(
            f"config pins corpus_rng={cfg['corpus_rng']!r}; this build provides {CORPUS_RNG!r}"
        )
    if cfg.get("format", "text") not in FORMATS:
        raise ValidationError(f"config {path}: format must be one of {list(FORMATS)}, "
                              f"got {cfg['format']!r}")
    for key in ("seed", "cap_iterations"):
        if key in cfg:
            cfg[key] = int(cfg[key])  # a ValueError here exits 2 like any bad value
    if cfg.get("cap_iterations", 0) < 0:
        raise ValidationError(f"config {path}: cap_iterations must not be negative, "
                              f"got {cfg['cap_iterations']}")
    return cfg


def _resolve(args: argparse.Namespace) -> None:
    cfg = load_config(args.config) if args.config else {}
    for key, builtin in DEFAULTS.items():
        if getattr(args, key, None) is None:
            setattr(args, key, cfg.get(key, builtin))


# Flags that count digits, terms, records or a bound; none may be negative.
COUNT_FLAGS = ("digits", "count", "max_q", "n_max", "records", "window", "i_max", "size",
               "cap_iterations")


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
        rendered = COMMANDS[args.command](args, args.cap_iterations).render(args.format)
    except (ParseError, ValidationError, DomainError, NotInQH4, NonPeriodicInput,
            MixedRadicands, Terminated, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (CapExceeded, Undecidable) as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
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
