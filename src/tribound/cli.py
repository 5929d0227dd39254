"""Command-line front end.

Subcommands: ``validate``, ``colorings``, ``weight``, ``delta``,
``certify`` and ``reproduce`` (the one-shot harness re-running every
bundled reference computation).  All commands accept ``--json`` for a
machine-readable report with stable field names.

Exit codes: 0 success/valid, 1 usage error, 2 validation/parse error,
3 reproduction mismatch, 4 resource cap exceeded, 5 certification found
no obstruction (m = 0), 141 stdout closed by its reader before the
output was written in full, or closed before the command ran (as a
shell reports a death by SIGPIPE).

``main`` returns the exit code, so it can run in-process; ``entry``,
which the ``tribound`` script and ``python -m tribound.cli`` run, calls
it and exits the process.

Every call is a fresh interpreter, so each command imports the modules
it runs when it runs: ``validate`` loads only ``diagram``, which also
holds what dispatch needs (``DiagramError`` and ``ResourceCapExceeded``).
The imports read module attributes at call time, so a function replaced
in its defining module is the one called.  A plain command line is
parsed by ``_recognize``, from the table that ``build_parser`` turns
into the argparse parser of every command; argparse is imported only
for the rest: help, usage errors and the forms only it accepts.
"""

from __future__ import annotations

import codecs
import gc
import json
import os
import re
import sys
import time
from collections.abc import Iterator
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, NoReturn

from .diagram import DiagramError, ResourceCapExceeded

if TYPE_CHECKING:
    from argparse import ArgumentParser, Namespace
    from pathlib import Path

    from .cochain import DeltaReach
    from .poly import CochainFn

__all__ = ["entry", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_MISMATCH = 3
EXIT_RESOURCE = 4
EXIT_NO_BOUND = 5
EXIT_BROKEN_PIPE = 141

_INLINE_SET_LIMIT = 64


class RunReport:
    def __init__(self, command: str, inputs: dict[str, Any]):
        self.command = command
        self.inputs = inputs
        self.results: dict[str, Any] = {}
        self.start = time.perf_counter()
        self.cache = {"hits": 0, "misses": 0}

    def to_dict(self) -> dict[str, Any]:
        """The report for ``_write_json``: ``timing_s`` is read when the
        writer reaches it, after any results that are produced as they
        are written."""
        return {
            "schema": 1,
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "timing_s": lambda: round(time.perf_counter() - self.start, 6),
            "cache": self.cache,
        }


def _write_json(obj: Any, write: Callable[[str], object]) -> None:
    """Write ``json.dumps(obj)`` and a newline through ``write``, a piece
    at a time, so that no string of the whole report is ever built.

    Dicts are walked key by key and each list item is encoded whole.  An
    iterator, as a dict value or the whole of obj, is written as a list,
    item by item as it yields them, and a zero-argument callable as
    what it returns when the writer reaches it.  Brackets and separators
    ride with the next piece: one call per dict key whose value is not
    itself walked, one per list item, one last.
    """
    write(_write_pieces(obj, write, "") + "\n")


def _write_pieces(obj: Any, write: Callable[[str], object], head: str) -> str:
    """Write head, then obj but for its closing brackets, which are
    returned for the caller to put before its next piece."""
    if callable(obj):
        obj = obj()
    if isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj):
        sep = "{"
        for key, value in obj.items():
            head = _write_pieces(value, write, f"{head}{sep}{json.dumps(key)}: ")
            sep = ", "
        return head + "}"
    if isinstance(obj, (list, tuple, Iterator)):
        sep = "["
        for item in obj:
            write(f"{head}{sep}{json.dumps(item)}")
            head, sep = "", ", "
        if sep == ", ":
            return "]"
        obj = []  # it held no item
    write(head + json.dumps(obj))
    return ""


def _diagram_text(path: str) -> str:
    """Text of a diagram file; bare bundled names (d1..d6, or d1.json..
    d6.json) work anywhere."""
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    # the bundled diagrams load only when named
    from .fixtures import fixture_dict, fixture_names

    name = path.removesuffix(".json")  # exactly dN or dN.json
    if name in fixture_names():
        return json.dumps(fixture_dict(name))
    raise DiagramError(f"no such file or bundled diagram: {path}")


def _set_summary(values: tuple[int, ...], dump: Path | None = None) -> dict[str, Any]:
    out: dict[str, Any] = {"size": len(values)}
    if len(values) <= _INLINE_SET_LIMIT:
        out["values"] = list(values)
    else:
        out["min"] = values[0]
        out["max"] = values[-1]
        if dump:
            out["file"] = str(dump)
    return out


def _print_set(label: str, values: tuple[int, ...], dump: Path | None = None) -> None:
    if len(values) <= _INLINE_SET_LIMIT:
        print(f"{label}: {{{', '.join(map(str, values))}}}")
    else:
        where = f" (full set in {dump})" if dump else ""
        print(f"{label}: {len(values)} values in [{values[0]}, {values[-1]}]{where}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_validate(args: Namespace, report: RunReport) -> int:
    from .diagram import derived_dict, parse_diagram

    text = _diagram_text(args.path)  # a missing file is an error, not a report
    try:
        d = parse_diagram(text)
        issues = ()
    except DiagramError as exc:
        issues = exc.issues
    report.results["valid"] = not issues
    report.results["issues"] = [
        {"kind": i.kind, "message": i.message} for i in issues
    ]
    if issues:
        if not args.json:
            for i in issues:
                print(f"INVALID [{i.kind}] {i.message}")
        return EXIT_INVALID
    report.results["summary"] = {
        "name": d.name,
        "crossings": len(d.crossings),
        "edges": len(d.edges),
        "arcs": len(d.arcs),
        "faces": len(d.faces),
        "components": len(d.components),
        "outer_face": d.outer_face,
    }
    if args.emit_derived:
        report.results["derived"] = derived_dict(d)
    if not args.json:
        s = report.results["summary"]
        print(
            f"valid: {s['name']} with {s['crossings']} crossings, "
            f"{s['edges']} edges, {s['arcs']} arcs, {s['faces']} faces "
            f"({s['components']} component(s); outer face {s['outer_face']})"
        )
        if args.emit_derived:
            print(json.dumps(report.results["derived"], indent=2))
    return EXIT_OK


def cmd_colorings(args: Namespace, report: RunReport) -> int:
    from .coloring import (
        _check_outer_color,
        enumerate_colorings,
        extend_coloring,
        is_trivial,
    )
    from .diagram import parse_diagram

    d = parse_diagram(_diagram_text(args.path))
    if args.outer_color is not None:
        _check_outer_color(args.outer_color, args.n)
    cols = enumerate_colorings(d, args.n)

    def rows() -> Iterator[dict[str, Any]]:
        """One row per coloring, built as the report reaches it."""
        for cid, c in enumerate(cols):
            row: dict[str, Any] = {
                "id": cid,
                "trivial": is_trivial(c),
                "arc_colors": [[a.id, c.arc_colors[a.id]] for a in d.arcs],
            }
            if args.outer_color is not None:
                ec = extend_coloring(d, c, args.outer_color)
                row["region_colors"] = [
                    [f.id, ec.region_colors[f.id]] for f in d.faces
                ]
            yield row

    report.results["count_total"] = len(cols)
    report.results["count_listed"] = len(cols)
    report.results["colorings"] = rows()
    if not args.json:
        print(f"{d.name}: {len(cols)} coloring(s) over Z({args.n})")
        for row in report.results["colorings"]:
            vec = " ".join(str(v) for _, v in row["arc_colors"])
            extra = ""
            if "region_colors" in row:
                extra = "  regions: " + " ".join(
                    str(v) for _, v in row["region_colors"]
                )
            marker = " (trivial)" if row["trivial"] else ""
            print(f"  #{row['id']:<3} arcs: {vec}{marker}{extra}")
    return EXIT_OK


def cmd_weight(args: Namespace, report: RunReport) -> int:
    from .coloring import (
        _check_outer_color,
        enumerate_colorings,
        extend_coloring,
        is_trivial,
    )
    from .diagram import parse_diagram
    from .invariant import PhiSet, crossing_terms, weight
    from .poly import CochainFn

    d = parse_diagram(_diagram_text(args.path))
    f = CochainFn.build(args.f, args.n)
    # the arguments first, so that a bad one is reported, not the coloring cap
    if args.coloring != "all" and not re.fullmatch("-?[0-9]+", args.coloring):
        error = f"--coloring must be an id or 'all', got {args.coloring!r}"
        report.results["error"] = error
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    _check_outer_color(args.s, args.n)
    cols = enumerate_colorings(d, args.n)
    wanted: range | list[int] = range(len(cols))
    if args.coloring != "all":
        idx = int(args.coloring)
        if not 0 <= idx < len(cols):
            raise DiagramError(
                f"coloring id {idx} out of range (0..{len(cols) - 1})"
            )
        wanted = [idx]
    nontrivial: list[tuple[int, int]] = []  # (id, W), filled by rows()

    def rows() -> Iterator[dict[str, Any]]:
        """One row per wanted coloring, built as the report reaches it;
        the per-crossing terms only for the ``--json`` report."""
        for cid in wanted:
            trivial = is_trivial(cols[cid])
            ec = extend_coloring(d, cols[cid], args.s)
            w = weight(d, ec, f)
            if not trivial:
                nontrivial.append((cid, w))
            row: dict[str, Any] = {"id": cid, "trivial": trivial, "w": w}
            if args.json:  # a literal, twice as fast as t._asdict()
                row["per_crossing"] = [
                    {"crossing": t.crossing, "epsilon": t.epsilon, "s": t.s,
                     "a": t.a, "b": t.b, "term": t.term}
                    for t in crossing_terms(d, ec, f)
                ]
            yield row

    def phi() -> dict[str, Any]:
        """Phi of the rows' weights: call it after the last row."""
        p = PhiSet.from_weights(nontrivial)
        return {
            "values": list(p.values),
            "witnesses": {str(v): list(ids) for v, ids in p.witnesses.items()},
        }

    report.results["weights"] = rows()
    if args.coloring == "all":
        report.results["phi"] = phi
    if not args.json:
        for row in report.results["weights"]:
            marker = " (trivial)" if row["trivial"] else ""
            print(f"  coloring #{row['id']:<3} W = {row['w']}{marker}")
        if args.coloring == "all":
            vals = phi()["values"]
            print(f"Phi({d.name}, {args.s}) = {{{', '.join(map(str, vals))}}}")
    return EXIT_OK


def cmd_delta(args: Namespace, report: RunReport) -> int:
    from .cache import cache_path, load_reach, store_reach
    from .cochain import check_image_cap, delta_reach
    from .poly import CochainFn

    check_image_cap(args.n)  # before f's table of n^3 values
    f = CochainFn.build(args.f, args.n)
    im_delta = load_reach(f, args.cache)
    reach = delta_reach(f, args.max_m, im_delta)
    if im_delta is None:  # stored once the levels are built
        store_reach(reach, args.cache)
    report.cache["misses" if im_delta is None else "hits"] += 1
    dump = cache_path(f, args.cache)
    report.results["f_canonical"] = f.canonical()
    report.results["im_size"] = len(reach.im_delta)
    report.results["im"] = _set_summary(reach.im_delta, dump)
    report.results["levels"] = [_set_summary(lv) for lv in reach.levels]
    report.results["cache_file"] = str(dump)
    if not args.json:
        print(f"f = {f.canonical()}  over Z({args.n})")
        print(f"|Im(df)| = {len(reach.im_delta)}")
        _print_set("Im(df)", reach.im_delta, dump)
        for m, lv in enumerate(reach.levels):
            _print_set(f"Delta_{m}", lv)
    return EXIT_OK


def cmd_certify(args: Namespace, report: RunReport) -> int:
    from .cache import load_reach, store_reach
    from .cochain import check_image_cap, delta_reach
    from .diagram import parse_diagram
    from .invariant import certify_lower_bound, verify_certificate
    from .poly import CochainFn

    d = parse_diagram(_diagram_text(args.path_d))
    d2 = parse_diagram(_diagram_text(args.path_d2))
    check_image_cap(args.n)  # before f's table of n^3 values
    f = CochainFn.build(args.f, args.n)

    def levels(f: CochainFn, h: int) -> DeltaReach:
        im_delta = load_reach(f, args.cache)
        reach = delta_reach(f, h, im_delta)
        if im_delta is None:  # stored once the levels are built
            try:
                store_reach(reach, args.cache)
            except OSError as exc:  # a cache that cannot be written is a miss
                print(f"warning: cache not written: {exc}", file=sys.stderr)
        report.cache["misses" if im_delta is None else "hits"] += 1
        return reach

    cert = certify_lower_bound(d, d2, args.s, f, args.max_m, levels=levels)
    report.results["certificate"] = cert.to_dict()
    report.results["verified"] = verify_certificate(cert, d, d2)
    if not args.json:
        print(f"pair ({d.name}, {d2.name}), n={args.n}, s={args.s}")
        for line in cert.level_verdicts:
            print(f"  {line}")
        print(f"certified: at least {cert.m} type-III move(s)")
        print(f"re-verification: {'ok' if report.results['verified'] else 'FAILED'}")
    if not report.results["verified"]:
        return EXIT_MISMATCH
    return EXIT_OK if cert.m >= 1 else EXIT_NO_BOUND


def cmd_reproduce(args: Namespace, report: RunReport) -> int:
    from .fixtures import reproduce_checks

    checks = reproduce_checks()
    report.results["checks"] = [
        {"name": name, "pass": ok, **({"detail": detail} if not ok else {})}
        for name, ok, detail in checks
    ]
    all_ok = all(ok for _, ok, _ in checks)
    report.results["pass"] = all_ok
    if not args.json:
        for name, ok, detail in checks:
            status = "PASS" if ok else "FAIL"
            suffix = f"  ({detail})" if not ok and detail else ""
            print(f"[{status}] {name}{suffix}")
        print("all checks passed" if all_ok else "REPRODUCTION MISMATCH")
    return EXIT_OK if all_ok else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

# The one description of every command's arguments: its help line, its
# positionals, then its options, each in the order its parser declares
# them, and the function that runs it.  An option is (flag, dest, type,
# default, help, metavar): type bool is a store-true flag, and default
# REQUIRED marks an option that must be given.  Every command also takes
# JSON, after its own options.  build_parser makes the argparse parser of
# this table and _recognize parses the plain command lines by it; the
# table's order is the order in which the full parser lists the commands.
REQUIRED = object()
JSON = ("--json", "json", bool, False, "machine-readable report", None)
ARGUMENTS: dict[str, tuple[str, tuple[str, ...], tuple[tuple, ...], Callable]] = {
    "validate": ("check a diagram file", ("path",), (
        ("--emit-derived", "emit_derived", bool, False,
         "include derived arcs/faces/signs in the output", None),
    ), cmd_validate),
    "colorings": ("enumerate Fox n-colorings", ("path",), (
        ("-n", "n", int, REQUIRED, "modulus", None),
        ("--outer-color", "outer_color", int, None,
         "also list region colors for outer color S", "S"),
    ), cmd_colorings),
    "weight": ("crossing-weight sums and Phi sets", ("path",), (
        ("-n", "n", int, REQUIRED, None, None),
        ("-f", "f", str, REQUIRED, "weight function, e.g. '(x-y)*(y-z)*z'", None),
        ("-s", "s", int, REQUIRED, "outer region color", None),
        ("--coloring", "coloring", str, "all",
         "coloring id, or 'all' (default) for every coloring plus Phi", "ID|all"),
    ), cmd_weight),
    "delta": ("coboundary image and level sets", (), (
        ("-n", "n", int, REQUIRED, None, None),
        ("-f", "f", str, REQUIRED, None, None),
        ("--max-m", "max_m", int, 1, "highest level to compute", None),
        ("--cache", "cache", str, None, "cache directory", None),
    ), cmd_delta),
    "certify": ("certify a lower bound on type-III moves for a pair", ("path_d", "path_d2"), (
        ("-n", "n", int, REQUIRED, None, None),
        ("-f", "f", str, REQUIRED, None, None),
        ("-s", "s", int, REQUIRED, None, None),
        ("--max-m", "max_m", int, 3, None, None),
        ("--cache", "cache", str, None, None, None),
    ), cmd_certify),
    "reproduce": ("re-run all bundled reference computations and compare", (), (), cmd_reproduce),
}


def build_parser() -> ArgumentParser:
    """The ``tribound`` parser of ``ARGUMENTS``, with one subcommand per
    command."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="tribound",
        description=(
            "Fox colorings, region colorings, crossing-weight invariants "
            "and certified lower bounds on type-III moves between link "
            "diagrams."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, positionals, options, func) in ARGUMENTS.items():
        p = sub.add_parser(name, help=help_line)
        for dest in positionals:
            p.add_argument(dest)
        for flag, dest, kind, default, help_text, metavar in (*options, JSON):
            if kind is bool:
                p.add_argument(flag, dest=dest, action="store_true", help=help_text)
            else:
                required = default is REQUIRED
                p.add_argument(flag, dest=dest, type=kind, required=required,
                               default=None if required else default,
                               help=help_text, metavar=metavar)
        p.set_defaults(func=func)
    return parser


def _recognize(argv: list[str]) -> SimpleNamespace | None:
    """The namespace that ``build_parser().parse_args(argv)`` returns,
    with its keys in the same order, for a plain command line: a command,
    then only its own flags and options, spelt out in full, each option
    with a value that does not start with ``-``, and positionals that do
    not either.  None for anything else, which argparse then parses (and
    explains, if it is wrong); nothing is printed here."""
    if not argv or argv[0] not in ARGUMENTS:
        return None
    _, positionals, options, func = ARGUMENTS[argv[0]]
    flags = {option[0]: option for option in (*options, JSON)}
    values: dict[str, Any] = {"command": argv[0], **dict.fromkeys(positionals)}
    for _, dest, _, default, _, _ in (*options, JSON):
        values[dest] = None if default is REQUIRED else default
    values["func"] = func
    missing = {dest for _, dest, _, default, _, _ in options if default is REQUIRED}
    given = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            given.append(token)
            continue
        if token not in flags:
            return None
        _, dest, kind, _, _, _ = flags[token]
        if kind is bool:
            values[dest] = True
            continue
        value = next(tokens, "-")  # "-": no value follows
        if value.startswith("-"):
            return None
        try:
            values[dest] = kind(value)  # a repeated option keeps its last value
        except ValueError:
            return None
        missing.discard(dest)
    if missing or len(given) != len(positionals):
        return None
    values.update(zip(positionals, given))
    return SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args: Namespace | SimpleNamespace | None = _recognize(argv)
    if args is None:  # argparse parses it, or writes its usage, help or error
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # usage error (argparse's 2) or --help (0)
            return EXIT_USAGE if exc.code == 2 else int(exc.code or 0)
    if sys.stdout is None:  # fd 1 was closed before the process started
        return _stdout_closed()
    func: Callable[[Namespace, RunReport], int] = args.func
    inputs = {
        k: v
        for k, v in vars(args).items()
        if k not in ("func", "json") and v is not None
    }
    report = RunReport(command=args.command, inputs=inputs)
    try:
        code = func(args, report)
    except BrokenPipeError:  # text output to a reader that stopped early
        return _stdout_closed()
    except (DiagramError, ValueError, OSError) as exc:
        report.results["error"] = str(exc)
        code = EXIT_INVALID
        if not args.json:
            print(f"error: {exc}", file=sys.stderr)
    except ResourceCapExceeded as exc:
        report.results["error"] = str(exc)
        code = EXIT_RESOURCE
        if not args.json:
            print(f"resource cap: {exc}", file=sys.stderr)
    try:
        if args.json:
            _write_json(report.to_dict(), sys.stdout.write)
        sys.stdout.flush()
    except BrokenPipeError:
        return _stdout_closed()
    return code


def _stdout_closed() -> int:
    """stdout's reader is gone (``tribound ... | head``), or fd 1 was
    closed before the process started (``tribound ... >&-``), when
    ``sys.stdout`` is None.  Point a stdout at devnull, so that the flush
    at exit has nothing to fail on, and exit quietly, as the Python docs'
    note on SIGPIPE advises."""
    if sys.stdout is not None:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return EXIT_BROKEN_PIPE


def _escape(exc: UnicodeError) -> tuple[str | bytes, int]:
    """Error handler of text output.  A byte that ``surrogateescape``
    decoded from argv or the environment (a path that is not UTF-8)
    goes out as that byte; any other character the locale cannot
    encode is escaped by ``backslashreplace``, the handler of
    ``sys.stderr``."""
    try:
        return codecs.lookup_error("surrogateescape")(exc)
    except UnicodeError:
        return codecs.backslashreplace_errors(exc)


def entry() -> NoReturn:
    """Run ``main`` as the process and exit with its code.

    Text goes out through ``_escape``, so a diagram name the locale
    cannot encode is escaped rather than fatal; a ``--json`` report is
    ASCII either way.  Once the report is out, every live object dies
    with the process, so the heap is frozen: the collections that
    finalization runs find nothing to scan, while the ``atexit``
    handlers and the flush of the standard streams still run.
    """
    # stdout is None when fd 1 was closed at start-up, and a handler set
    # in PYTHONIOENCODING stays; strict and surrogateescape are the defaults
    if sys.stdout is not None and sys.stdout.errors in ("strict", "surrogateescape"):
        codecs.register_error("tribound.escape", _escape)
        sys.stdout.reconfigure(errors="tribound.escape")
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
