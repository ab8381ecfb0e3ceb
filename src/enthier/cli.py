"""Command-line surface.

Subcommands: measure, locc, wootters, scan, paper-examples, schmidt,
emit-state. Exit codes: 0 success, 1 domain error, out of memory or
stdout closed by its reader, 2 parse/usage error, 3 self-check failure.
``scan`` takes its per-sample streams from ``linalg.seeded_streams`` and
keeps only the chunking and the counting.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import EnthierError, ParseError
from .linalg import seeded_streams
from .locc import (
    COMPARABLE,
    INCOMPARABLE_FULL,
    INCOMPARABLE_MIXED,
    conversion_class,
    hierarchy_dominance,
    nielsen_verdict,
)
from .measures import (
    af_concurrence,
    eof_from_concurrence,
    eof_pure,
    hierarchies,
    hierarchy,
    hierarchy_via_invariants,
    hierarchy_via_minors,
    invariants,
    ppt_check,
    renyi_entropy,
    rungta_concurrence,
    spin_flip_lambdas,
    wootters_concurrence,
)
from .reference import build_report
from .report import ReportDocument
from .statefile import parse_density, parse_state, state_document, write_state
from .states import random_pure, schmidt_rank, schmidt_spectrum

_HIERARCHY_PATHS = {
    "eig": hierarchy,
    "minors": hierarchy_via_minors,
    "newton": hierarchy_via_invariants,
}

# Amplitude entries per stacked SVD in scan: a chunk holds this many // (2 d^2)
# pairs, at least one. Bounds the stack to 2^16 complex entries (1 MB), so
# scan --dims 48 --samples 2000 takes 14 pairs at a time instead of stacking
# 147 MB; at d = 3 one chunk covers 3640 pairs.
_SCAN_CHUNK_ENTRIES = 1 << 16

def _report(args, results: dict, **provenance) -> ReportDocument:
    return ReportDocument(args.command, results, {"tool": "enthier", "version": __version__, **provenance})


def _renyi_orders(raw: str) -> list[float]:
    try:
        orders = [float(part) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad order list {raw!r}") from exc
    if not orders:
        raise argparse.ArgumentTypeError("need at least one order")
    if not all(order > 0 for order in orders):
        raise argparse.ArgumentTypeError(f"orders must be positive, got {raw!r}")
    return orders


def _int_at_least(lowest: int):
    """argparse type: an integer no smaller than ``lowest``."""

    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be at least {lowest}")
        return value

    return parse


def _cmd_measure(args) -> tuple[ReportDocument, int]:
    state, digest = parse_state(args.state, renormalize=args.renormalize)
    spectrum = schmidt_spectrum(state)
    # Each quantity once per call: the state memoizes its spectrum, hierarchy and
    # power sums, so the routes and both two-level concurrences share them.
    renyi = {order: renyi_entropy(state, order) for order in args.renyi}
    results = {
        "dims": [state.dim_a, state.dim_b],
        "schmidt_spectrum": spectrum.tolist(),
        "schmidt_rank": schmidt_rank(spectrum),
        "hierarchy_path": args.path,
        "hierarchy": _HIERARCHY_PATHS[args.path](state).tolist(),
        "invariants": invariants(state).tolist(),
        "renyi": {str(order): value for order, value in renyi.items()},
        "eof": renyi[1.0] if 1.0 in renyi else eof_pure(state),
        "af_concurrence": af_concurrence(state),
        "rungta_concurrence": rungta_concurrence(state),
    }
    return _report(args, results, input_digest=digest), 0


def _cmd_locc(args) -> tuple[ReportDocument, int]:
    source, source_digest = parse_state(args.source, renormalize=args.renormalize)
    target, target_digest = parse_state(args.target, renormalize=args.renormalize)
    verdict = nielsen_verdict(source, target)
    dominance = hierarchy_dominance(source, target)
    results = {
        "verdict": verdict.verdict.value,
        "source_prefix_sums": list(verdict.source_prefix_sums),
        "target_prefix_sums": list(verdict.target_prefix_sums),
        "dominance": {
            "slacks": list(dominance.slacks),
            "source_dominates": dominance.source_dominates,
            "target_dominates": dominance.target_dominates,
            "mixed": dominance.mixed,
        },
        "conversion_class": conversion_class(source, target, verdict, dominance),
    }
    return _report(args, results, source_digest=source_digest, target_digest=target_digest), 0


def _cmd_wootters(args) -> tuple[ReportDocument, int]:
    density, digest = parse_density(args.density)
    concurrence = wootters_concurrence(density)
    results = {
        "concurrence": concurrence,
        "eof": eof_from_concurrence(concurrence),
        "lambdas": spin_flip_lambdas(density).tolist(),
        "ppt": ppt_check(density).value,
    }
    return _report(args, results, input_digest=digest), 0


def _cmd_schmidt(args) -> tuple[ReportDocument, int]:
    state, digest = parse_state(args.state, renormalize=args.renormalize)
    spectrum = schmidt_spectrum(state)
    results = {
        "dims": [state.dim_a, state.dim_b],
        "schmidt_coefficients": np.sqrt(spectrum).tolist(),
        "schmidt_spectrum": spectrum.tolist(),
        "schmidt_rank": schmidt_rank(spectrum),
    }
    return _report(args, results, input_digest=digest), 0


def _cmd_scan(args) -> tuple[ReportDocument, int]:
    counts = {COMPARABLE: 0, INCOMPARABLE_MIXED: 0, INCOMPARABLE_FULL: 0}
    pairs_per_chunk = max(1, _SCAN_CHUNK_ENTRIES // (2 * args.dims * args.dims))
    for start in range(0, args.samples, pairs_per_chunk):
        # one stream per sample, so the pairs do not depend on the chunking
        streams = seeded_streams(args.seed, start, min(start + pairs_per_chunk, args.samples))
        chunk = [random_pure(args.dims, args.dims, rng) for rng in streams for _ in (0, 1)]  # pairs side by side
        hierarchies(chunk)  # one SVD call and one e_k pass fill every state's caches
        for first, second in zip(chunk[::2], chunk[1::2]):
            counts[conversion_class(first, second)] += 1
    results = {
        "dims": args.dims,
        "samples": args.samples,
        "counts": counts,
        "frequencies": {key: value / args.samples for key, value in counts.items()},
    }
    return _report(args, results, seed=args.seed), 0


def _cmd_paper_examples(args) -> tuple[ReportDocument, int]:
    results, failures = build_report()
    if failures:
        print(f"self-check failed: {', '.join(failures)}", file=sys.stderr)
    return _report(args, results), 3 if failures else 0


def _cmd_emit_state(args) -> tuple[str, int]:
    state, _ = parse_state(args.state, renormalize=args.renormalize)
    if not args.output:
        return json.dumps(state_document(state), indent=2), 0
    try:
        write_state(state, args.output)
    except OSError as exc:
        raise ParseError(f"cannot write {args.output}: {exc}") from exc
    return f"wrote {args.output}", 0


_PARSER: argparse.ArgumentParser | None = None
# each subcommand's parser by name, filled when _PARSER is built
_COMMANDS: dict[str, argparse.ArgumentParser] = {}


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one.

    Parsing never writes to the parser, and no handler writes to the parsed
    defaults; beyond the parser, calls share only ``statefile``'s immutable
    last document, keyed by its bytes and arguments, so calls in one process
    stay independent. ``main`` gives a call that names its subcommand first
    straight to that subcommand's parser, and every other call to this one.
    """
    global _PARSER
    if _PARSER is None:
        _PARSER = _make_parser()
    return _PARSER


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enthier",
        description="Concurrence hierarchies, Schmidt spectra, and LOCC convertibility.",
    )
    parser.add_argument("--version", action="version", version=f"enthier {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    def add_json(sub):
        sub.add_argument("--json", action="store_true", help="machine-readable output")

    def add_renormalize(sub):
        sub.add_argument(
            "--renormalize",
            action="store_true",
            help="accept states whose norm deviates from 1 beyond the default gate",
        )

    def add_command(name, **kwargs):
        sub = _COMMANDS[name] = commands.add_parser(name, **kwargs)
        return sub

    measure = add_command("measure", help="all measures of one pure state")
    measure.add_argument("state", help="state document (JSON)")
    measure.add_argument(
        "--path",
        choices=sorted(_HIERARCHY_PATHS),
        default="eig",
        help="hierarchy computation route",
    )
    measure.add_argument(
        "--renyi",
        type=_renyi_orders,
        default=(0.5, 1.0, 2.0),
        help="comma-separated positive Renyi orders, inf for the min-entropy (default 0.5,1,2)",
    )
    add_renormalize(measure)
    add_json(measure)
    measure.set_defaults(handler=_cmd_measure)

    locc = add_command("locc", help="convertibility verdict for a state pair")
    locc.add_argument("source")
    locc.add_argument("target")
    add_renormalize(locc)
    add_json(locc)
    locc.set_defaults(handler=_cmd_locc)

    wootters = add_command("wootters", help="two-qubit mixed-state concurrence")
    wootters.add_argument("density", help="density document (JSON)")
    add_json(wootters)
    wootters.set_defaults(handler=_cmd_wootters)

    schmidt = add_command("schmidt", help="Schmidt coefficients and rank")
    schmidt.add_argument("state")
    add_renormalize(schmidt)
    add_json(schmidt)
    schmidt.set_defaults(handler=_cmd_schmidt)

    scan = add_command(
        "scan", help="frequencies of convertibility classes over random pairs"
    )
    scan.add_argument("--dims", type=_int_at_least(1), default=3, help="local dimension")
    scan.add_argument("--samples", type=_int_at_least(1), default=1000)
    scan.add_argument("--seed", type=_int_at_least(0), default=0)
    add_json(scan)
    scan.set_defaults(handler=_cmd_scan)

    examples = add_command(
        "paper-examples", help="recompute the pinned worked examples and self-check them"
    )
    add_json(examples)
    examples.set_defaults(handler=_cmd_paper_examples)

    emit = add_command(
        "emit-state", help="canonicalize a state document at full precision"
    )
    emit.add_argument("state")
    emit.add_argument("-o", "--output", help="write here instead of stdout")
    add_renormalize(emit)
    emit.set_defaults(handler=_cmd_emit_state)

    return parser


def _parse_args(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """``parser.parse_args(argv)``, in one argparse pass where it can be.

    When argv names its subcommand first, the top-level pass only hands the
    rest to that subcommand's ``parse_known_args`` and refuses what it leaves
    over, so that call alone gives the same namespace or usage error. All
    else takes the full parse and its messages: leftovers, any other first
    word, and an argument starting ``--=``, which the top-level pass refuses
    as ambiguous between ``--help`` and ``--version``.
    """
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is not None and not any(arg.startswith("--=") for arg in argv):
        args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extras:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _parse_args(parser, sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (None, 0) else 2
    try:
        output, exit_code = args.handler(args)
    except EnthierError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ParseError) else 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    if isinstance(output, ReportDocument):
        output = output.to_json() if args.json else output.render()
    try:
        if sys.stdout is None:  # closed at start, as by `>&-`
            raise OSError("standard output is closed")
        print(output)
        sys.stdout.flush()
    except OSError as exc:
        # A reader that closed stdout early (say, `| head`) is silent. Point
        # fd 1 at devnull so the interpreter's flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    return exit_code


__all__ = ["build_parser", "main"]
