"""Command-line entry point.

Analyses run on a problem file or a named corpus entry; output is the
line-oriented text report or canonical JSON.  Exit code 0 means every
requested certificate passed, 1 a verification mismatch, 2 an input
error.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources

from . import __version__
from .errors import DieudonneError, ParseError
from .problems import ANALYSES, emit, emit_spec, parse_dict, parse_file, run

import json


def corpus_names():
    base = resources.files("dieudonne") / "corpus"
    return sorted(p.name[:-5] for p in base.iterdir()
                  if p.name.endswith(".json"))


def load_corpus(name):
    base = resources.files("dieudonne") / "corpus"
    path = base / f"{name}.json"
    try:
        text = path.read_text(encoding="utf-8")
    except (FileNotFoundError, OSError):
        raise ParseError(
            f"no corpus entry '{name}' (available: "
            f"{', '.join(corpus_names())})")
    return parse_dict(json.loads(text), name=name)


def _add_common(sp):
    sp.add_argument("file", nargs="?", default=None,
                    help="problem file (JSON); omit when using --corpus")
    sp.add_argument("--corpus", default=None,
                    help="run on a built-in corpus entry")
    sp.add_argument("--precision", type=int, default=None,
                    help="override the working precision exponent")
    sp.add_argument("--degree", type=int, default=None,
                    help="override the series truncation degree")
    sp.add_argument("--seed", type=int, default=0,
                    help="seed for randomized property checks")
    sp.add_argument("--format", choices=("text", "structured"),
                    default="text", help="report format")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dieudonne",
        description="Exact invariants of p-divisible groups presented as "
                    "Dieudonne modules over truncated Witt rings.")
    parser.add_argument("--version", action="version",
                        version=f"dieudonne {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ANALYSES:
        sp = sub.add_parser(name, help=f"run the '{name}' analysis")
        _add_common(sp)
    sp = sub.add_parser("report-all", help="run every applicable analysis")
    _add_common(sp)
    sp = sub.add_parser("emit-spec",
                        help="print the canonical form of a problem file")
    _add_common(sp)
    sub.add_parser("corpus-list", help="list built-in corpus entries")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "corpus-list":
        for name in corpus_names():
            sys.stdout.write(name + "\n")
        return 0
    try:
        if args.corpus is not None:
            spec = load_corpus(args.corpus)
        elif args.file is not None:
            spec = parse_file(args.file)
        else:
            raise ParseError("supply a problem file or --corpus NAME")
        overrides = {}
        if args.precision is not None:
            overrides["precision"] = args.precision
        if args.degree is not None:
            overrides["degree"] = args.degree
        if overrides:
            # overrides pass the same checks as the file's own fields
            spec = parse_dict({**spec.as_dict(), **overrides})
        if args.command == "emit-spec":
            sys.stdout.buffer.write(emit_spec(spec))
            return 0
        analyses = ANALYSES if args.command == "report-all" \
            else [args.command]
        report = run(spec, analyses, seed=args.seed)
        sys.stdout.buffer.write(emit(report, args.format))
        return 0 if report["all_ok"] else 1
    except ParseError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except DieudonneError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
