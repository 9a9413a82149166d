"""Deterministic command-line surface.

Every subcommand writes to stdout (or --output) and depends only on its
flags, so identical invocations give byte-identical artifacts.  Field
elements on the command line use the four-integer form
a_num,a_den,b_num,b_den for a + b*phi.
"""

from __future__ import annotations

import argparse
import sys

from . import birkhoff, words
from .refine import complexity_table
from .exchange import (ExchangeError, build_base_exchange,
                       build_translation_exchange, exchange_tower,
                       renormalization_checks)
from .field import QPhi
from .render import exchange_svg, serialize_exchange

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _qphi_arg(text: str) -> QPhi:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            "expected four comma-separated integers a_num,a_den,b_num,b_den")
    try:
        return QPhi.from_ints([int(p) for p in parts])
    except (ValueError, ZeroDivisionError) as e:
        raise argparse.ArgumentTypeError(str(e))


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="phiplane",
        description="Exact golden-mean plane exchanges and their codings.")
    ap.add_argument("--output", "-o", help="write to this file instead of stdout")
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("base", help="serialize the level-1 exchange")

    p = sub.add_parser("renorm", help="serialize a renormalized exchange")
    p.add_argument("--level", type=int, default=2)

    p = sub.add_parser("complexity", help="CSV factor-complexity table")
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--max-n", type=int, default=8)

    p = sub.add_parser("language", help="iterate a language under 1->12, 2->1")
    p.add_argument("--seed-lang", choices=("min", "full"), default="min")
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--max-len", type=int, default=12)

    p = sub.add_parser("translation",
                       help="CSV complexity of the four-rectangle exchange")
    p.add_argument("--alpha", type=_qphi_arg, default=QPhi.from_ints([2, 1, -1, 1]))
    p.add_argument("--beta", type=_qphi_arg, default=QPhi.from_ints([-3, 1, 2, 1]))
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--allow-dependent", action="store_true",
                   help="skip the rational-independence precondition")

    p = sub.add_parser("theorem1", help="transition-scenario case reports")
    p.add_argument("--n", type=int, default=2)

    p = sub.add_parser("sums", help="CSV of ergodic sums S_n with records")
    p.add_argument("--max-n", type=int, default=1000)
    p.add_argument("--x0", type=_qphi_arg, default=QPhi(0))

    p = sub.add_parser("render", help="SVG picture of an exchange level")
    p.add_argument("--level", type=int, default=1)

    sub.add_parser("verify", help="run the full acceptance suite")
    return ap


def _positive(ap: argparse.ArgumentParser, **named: int) -> None:
    for name, value in named.items():
        if value < 1:
            ap.error(f"--{name.replace('_', '-')} must be >= 1")


def run(argv: list[str]) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    lines: list[str] = []
    emit = lines.append

    if args.command == "base":
        emit(serialize_exchange(build_base_exchange()).rstrip("\n"))
    elif args.command == "renorm":
        _positive(ap, level=args.level)
        tower = exchange_tower(args.level)
        for before, after in zip(tower, tower[1:]):
            checks = renormalization_checks(before, after)
            if not all(checks.values()):
                bad = ", ".join(k for k, v in checks.items() if not v)
                print(f"hypothesis check failed at level {after.level}: {bad}",
                      file=sys.stderr)
                return EXIT_CHECK_FAILED
        emit(serialize_exchange(tower[-1]).rstrip("\n"))
    elif args.command == "complexity":
        _positive(ap, level=args.level, max_n=args.max_n)
        E = exchange_tower(args.level)[-1]
        emit("level,n,p_n")
        for n, p in complexity_table(E, args.max_n):
            emit(f"{args.level},{n},{p}")
    elif args.command == "language":
        _positive(ap, iters=args.iters, max_len=args.max_len)
        if args.seed_lang == "min":
            lang = words.Language.from_words([(1,), (2,)], 2, args.max_len)
        else:
            lang = words.Language.full(2, args.max_len)
        lang = words.iterate_language(lang, args.iters, args.max_len)
        emit(lang.export())
    elif args.command == "translation":
        _positive(ap, max_n=args.max_n)
        try:
            E = build_translation_exchange(
                args.alpha, args.beta,
                check_independence=not args.allow_dependent)
        except ExchangeError as e:
            print(f"hypothesis check failed: {e}", file=sys.stderr)
            return EXIT_CHECK_FAILED
        emit("n,p_n")
        for n, p in complexity_table(E, args.max_n):
            emit(f"{n},{p}")
    elif args.command == "theorem1":
        _positive(ap, n=args.n)
        from . import scenarios     # sympy loads only for this command
        for sc in scenarios.enumerate_scenarios(args.n):
            emit(scenarios.scenario_report(sc))
            emit("")
    elif args.command == "sums":
        if args.max_n < 0:
            ap.error("--max-n must be >= 0")
        emit(birkhoff.sums_csv(args.x0, args.max_n))
    elif args.command == "render":
        _positive(ap, level=args.level)
        emit(exchange_svg(exchange_tower(args.level)[-1]).rstrip("\n"))
    elif args.command == "verify":
        from . import acceptance    # imports sympy through scenarios
        ok = acceptance.run_all(emit)
        _write(args.output, lines)
        return EXIT_OK if ok else EXIT_CHECK_FAILED

    _write(args.output, lines)
    return EXIT_OK


def _write(output: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
