"""Command-line front end.

Commands: construct, analyze, pvt, tiso, reproduce.  Exit codes: 0 success,
1 usage error (bad arguments, a graph file that fails to load or parse, or an
--out file that cannot be written: "error: ..."), 2 analysis failure after the
graph loaded ("analysis error: ..."), 3 reproduction mismatch.  Any other
exception is reported as one line, "internal error: <type>: <message>", with
exit 2; no command prints a traceback.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from pathlib import Path

from . import __version__
from .analysis import AnalysisError, analyze_graph, report_to_json
from .families import FAMILY_ARITY, FamilySpec, construct
from .graph_core import GraphError, load_graph, save_graph
from .pvt import check_pvt, t_isomorphic_srg
from .tables import TABLES, reproduce_table

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ANALYSIS = 2
EXIT_MISMATCH = 3

_SLOW_GATE = 100  # --all-vertices above this size needs --slow

_LOAD_ERRORS = (GraphError, OSError, ValueError)
# NotDistanceRegularError, InfeasibleSrgError and GraphError are ValueErrors
_ANALYSIS_ERRORS = (AnalysisError, ValueError)


def _parse_params(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad --params {text!r}: comma-separated integers")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it as
    it was, so every command of a long-lived process shares it."""
    parser = argparse.ArgumentParser(
        prog="drgkit",
        description="Exact Terwilliger-algebra analysis of small distance-regular graphs",
    )
    parser.add_argument("--version", action="version", version=f"drgkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a named graph and write it to a file")
    c.add_argument("--family", required=True, choices=sorted(FAMILY_ARITY))
    c.add_argument("--params", type=_parse_params, default=(),
                   help="comma-separated integer parameters")
    c.add_argument("--out", required=True, help="output JSON graph path")

    a = sub.add_parser("analyze", help="full Terwilliger analysis of a graph file")
    a.add_argument("graph", help="graph file (JSON or edge list)")
    a.add_argument("--base-vertex", type=int, default=0)
    a.add_argument("--all-vertices", action="store_true")
    a.add_argument("--slow", action="store_true",
                   help="allow expensive sweeps (all vertices of large graphs)")
    a.add_argument("--float-fallback", action="store_true",
                   help="accept float spectra when exact eigenvalues are unavailable")
    a.add_argument("--out", help="report path (default: stdout)")

    p = sub.add_parser("pvt", help="pseudo-vertex-transitivity verdict")
    p.add_argument("graph")

    t = sub.add_parser("tiso", help="T-isomorphism of two strongly regular graphs")
    t.add_argument("graph1")
    t.add_argument("graph2")

    r = sub.add_parser("reproduce", help="recompute a published table and compare")
    r.add_argument("--table", required=True, choices=sorted(TABLES))
    return parser


def _load(path):
    """load_graph without its disconnection warning: every command that loads a
    graph file needs a connected graph and reports one as an analysis error."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return load_graph(path)


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def cmd_construct(args) -> int:
    try:
        g = construct(FamilySpec(args.family, args.params))
    except GraphError as e:
        return _fail(EXIT_USAGE, f"error: {e}")
    try:
        save_graph(g, args.out)
    except OSError as e:
        return _fail(EXIT_USAGE, f"error: {e}")
    k = g.is_regular()
    reg = f"{k}-regular" if k is not None else "irregular"
    print(f"wrote {args.out}: {g.label or 'graph'} with n={g.n}, {reg}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    try:
        g = _load(args.graph)
    except _LOAD_ERRORS as e:
        return _fail(EXIT_USAGE, f"error: {e}")
    if args.all_vertices and g.n > _SLOW_GATE and not args.slow:
        return _fail(EXIT_USAGE, f"error: --all-vertices on {g.n} vertices needs --slow "
                                 "(spectra, a T(x) closure and a module decomposition "
                                 "at every vertex)")
    if not (args.all_vertices or 0 <= args.base_vertex < g.n):
        return _fail(EXIT_USAGE, f"error: base vertex {args.base_vertex} out of range")
    vertices = list(range(g.n)) if args.all_vertices else [args.base_vertex]
    try:
        report = analyze_graph(g, vertices, allow_float=args.float_fallback)
    except _ANALYSIS_ERRORS as e:
        return _fail(EXIT_ANALYSIS, f"analysis error: {e}")
    text = report_to_json(report)
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as e:
            return _fail(EXIT_USAGE, f"error: {e}")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_pvt(args) -> int:
    try:
        g = _load(args.graph)
    except _LOAD_ERRORS as e:
        return _fail(EXIT_USAGE, f"error: {e}")
    try:
        verdict = check_pvt(g)
    except _ANALYSIS_ERRORS as e:
        return _fail(EXIT_ANALYSIS, f"analysis error: {e}")
    print(f"verdict: {verdict.verdict} (method: {verdict.method})")
    if verdict.detail:
        print(f"detail: {verdict.detail}")
    if verdict.witness:
        print(f"witness: {verdict.witness}")
    return EXIT_OK


def cmd_tiso(args) -> int:
    try:
        g1, g2 = _load(args.graph1), _load(args.graph2)
    except _LOAD_ERRORS as e:
        return _fail(EXIT_USAGE, f"error: {e}")
    try:
        result = t_isomorphic_srg(g1, g2)
    except _ANALYSIS_ERRORS as e:
        return _fail(EXIT_ANALYSIS, f"analysis error: {e}")
    print(f"T-isomorphic: {result.isomorphic}")
    if result.note:
        print(f"note: {result.note}")
    if result.witness:
        print(f"witness: {result.witness}")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    ok, lines = reproduce_table(args.table)
    for line in lines:
        print(line)
    print(f"table {args.table}: {'all rows match' if ok else 'MISMATCH'}")
    return EXIT_OK if ok else EXIT_MISMATCH


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors; the contract says 1
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    handler = {
        "construct": cmd_construct,
        "analyze": cmd_analyze,
        "pvt": cmd_pvt,
        "tiso": cmd_tiso,
        "reproduce": cmd_reproduce,
    }[args.command]
    try:
        return handler(args)
    except Exception as e:  # last resort: one line, never a traceback
        message = " ".join(str(e).split())
        return _fail(EXIT_ANALYSIS, f"internal error: {type(e).__name__}: {message}")


if __name__ == "__main__":
    sys.exit(main())
