from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tribound.cache as cache
import tribound.cli as cli
import tribound.cochain as cochain
import tribound.coloring as coloring
import tribound.diagram as diagram
import tribound.fixtures as fixtures
import tribound.invariant as invariant
from tribound.cli import main
from tribound.fixtures import closed_braid_code, fixture_dict, fixture_names, load_fixture
from tribound.invariant import phi_set
from tribound.poly import CochainFn

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def write_fixtures(directory: Path) -> Path:
    """Write the six bundled diagrams as dN.json files into directory."""
    directory.mkdir(exist_ok=True)
    for name in fixture_names():
        (directory / f"{name}.json").write_text(json.dumps(fixture_dict(name)))
    return directory


def test_missing_subcommand_is_usage_error(capsys, tmp_path):
    code, out, _ = run(capsys, str(write_fixtures(tmp_path) / "d1.json"))
    assert code == 1


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=40,
)


def pieces(obj) -> list[str]:
    """What the report writer passes to write, call by call."""
    out: list[str] = []
    cli._write_json(obj, out.append)
    return out


def walked(obj) -> int:
    """The dict keys and list items the report writer reaches: it walks
    into dicts and encodes each list item whole."""
    if isinstance(obj, dict):
        return len(obj) + sum(walked(v) for v in obj.values())
    return len(obj) if isinstance(obj, list) else 0


@given(JSON_VALUES)
@example({})
@example([])
@example({"a": {}, "b": [], "c": {"d": {"e": [{}, []]}}, "f": {"g": 0}})
@example(["\"\\\n\t\x00\u2028", "ünïcødé ✓ 😀", {"ключ": ["€"]}])
@example({"x": [1.5, -0.0, 1e300, 2**70, -3, True, False, None]})
@example({"a": {1: "x", None: 2.5, True: []}})  # keys json.dumps converts
@settings(max_examples=300, deadline=None)
def test_report_writer_matches_json_dumps(obj):
    out = pieces(obj)
    assert "".join(out) == json.dumps(obj) + "\n"
    # the newline rides alone after a bare value or an empty container
    assert len(out) <= max(walked(obj), 1) + 1
    # the same bytes, a list at a time, from iterators and callables
    out = pieces(lazy(obj))
    assert "".join(out) == json.dumps(obj) + "\n"
    assert len(out) <= max(walked(obj), 1) + 1


def lazy(obj):
    """obj with each list turned into an iterator over its items, and
    each other value under a walked dict into a callable returning it."""
    if isinstance(obj, list):
        return iter(obj)
    if not (isinstance(obj, dict) and all(isinstance(k, str) for k in obj)):
        return obj
    return {
        k: lazy(v) if isinstance(v, (dict, list)) else (lambda v=v: v)
        for k, v in obj.items()
    }


def test_report_writer_streams_iterators():
    assert pieces(iter([])) == ["[]", "\n"]
    assert "".join(pieces({"rows": iter(()), "n": lambda: 0})) == '{"rows": [], "n": 0}\n'
    rows = ({"id": i} for i in range(3))
    assert pieces({"rows": rows, "then": lambda: [1]}) == [
        '{"rows": [{"id": 0}', ', {"id": 1}', ', {"id": 2}', '], "then": [1', ']}\n',
    ]
    # a callable is called when the writer reaches it, after the items before it
    seen = []
    report = {"rows": (seen.append(i) or i for i in range(2)), "count": lambda: len(seen)}
    assert "".join(pieces(report)) == '{"rows": [0, 1], "count": 2}\n'


def report_of(monkeypatch, capsys, *argv):
    """Exit code, the report main hands to the writer, the number of
    pieces it wrote, and stdout."""
    seen, written = [], []
    real = cli._write_json

    def keep(obj, write):
        seen.append(obj)
        real(obj, lambda piece: written.append(piece) or write(piece))

    monkeypatch.setattr(cli, "_write_json", keep)
    code = main([*argv, "--json"])
    (report,) = seen
    return code, report, len(written), capsys.readouterr().out


def x48_weight_argv(directory: Path) -> tuple[str, ...]:
    """weight --coloring all on a 48-crossing closure with 81 colorings:
    a cube of one generator acts trivially on 3-colorings, so a word of
    cubes lets the four strands take any colors."""
    path = directory / "x48.json"
    word = [(k % 3, "L") for k in range(16) for _ in range(3)]
    path.write_text(json.dumps(closed_braid_code(4, word, name="x48")))
    return ("weight", str(path), "-n", "3", "-f", "(x-y)*(y-z)*z", "-s", "0",
            "--coloring", "all")


def weight_report(path: str, f_text: str, n: int, s: int, got: dict) -> dict:
    """The report of ``weight PATH -n N -f F -s S --coloring all --json``,
    built eagerly from the public ``weight()`` and ``crossing_terms()`` of
    each coloring and from ``phi_set``; its inputs and timing_s are taken
    from got."""
    d = diagram.parse_diagram(Path(path).read_text())
    f = CochainFn.build(f_text, n)
    rows = []
    for cid, col in enumerate(coloring.enumerate_colorings(d, n)):
        ec = coloring.extend_coloring(d, col, s)
        rows.append({
            "id": cid,
            "trivial": coloring.is_trivial(col),
            "w": invariant.weight(d, ec, f),
            "per_crossing": [
                {"crossing": t.crossing, "epsilon": t.epsilon, "s": t.s,
                 "a": t.a, "b": t.b, "term": t.epsilon * f(t.s, t.a, t.b)}
                for t in invariant.crossing_terms(d, ec, f)
            ],
        })
    phi = phi_set(d, s, f)
    return {
        "schema": 1,
        "command": "weight",
        "inputs": got["inputs"],
        "results": {
            "weights": rows,
            "phi": {
                "values": list(phi.values),
                "witnesses": {str(v): list(ids) for v, ids in phi.witnesses.items()},
            },
        },
        "timing_s": got["timing_s"],
        "cache": {"hits": 0, "misses": 0},
    }


def test_reports_are_written_as_json_dumps(capsys, monkeypatch, tmp_path):
    argv = x48_weight_argv(tmp_path)
    code, _, calls, out = report_of(monkeypatch, capsys, *argv)
    got = json.loads(out)
    assert code == 0
    assert got["inputs"] == {"command": "weight", "path": argv[1], "n": 3,
                             "f": "(x-y)*(y-z)*z", "s": 0, "coloring": "all"}
    reference = weight_report(argv[1], "(x-y)*(y-z)*z", 3, 0, got)
    assert len(reference["results"]["weights"]) == 81
    assert out == json.dumps(reference) + "\n"
    assert calls <= walked(reference)
    cases = (
        (0, ("certify", "d3", "d4", "-n", "5", "-f", "(x+y)^3*(y+z)*(y-z)^3*z^5",
             "-s", "2", "--max-m", "3", "--cache", str(tmp_path / "cache"))),
        (0, ("validate", "d3", "--emit-derived")),
        (2, ("validate", str(tmp_path / "missing.json"))),
    )
    for want, argv in cases:
        code, report, calls, out = report_of(monkeypatch, capsys, *argv)
        assert code == want, argv
        report["timing_s"] = json.loads(out)["timing_s"]
        assert out == json.dumps(report) + "\n", argv
        assert calls <= walked(report), argv


class CountingStdout:
    """A stdout that keeps only the number of characters written."""

    def __init__(self):
        self.written = 0

    def write(self, piece: str) -> int:
        self.written += len(piece)
        return len(piece)

    def flush(self) -> None:
        pass


def test_report_writer_holds_one_item_at_a_time(monkeypatch, tmp_path):
    # all 81 rows cost the whole command less than a quarter of their
    # report over what one row costs it: rows are built and written one
    # at a time.  The diagram, its colorings and f, which both calls hold,
    # peak at about 200 KB themselves.
    argv = x48_weight_argv(tmp_path)

    def traced_peak(*coloring: str) -> tuple[int, int]:
        """(traced peak of the whole main call, characters written)."""
        stdout = CountingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert main([*argv, *coloring, "--json"]) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return peak, stdout.written

    traced_peak("--coloring", "1")  # first call: one-time allocations (ABC caches)
    one_peak, one_written = traced_peak("--coloring", "1")
    all_peak, written = traced_peak()
    assert written > 250_000 > 50 * one_written
    assert all_peak - one_peak < written / 4


PINNED_TEXT = (
    (
        'certify d1 d2 -n 3 -f "(x-y)*(y-z)*z" -s 0 --max-m 2',
        "pair (d1, d2), n=3, s=0\n"
        "  level 0: empty intersection\n"
        "  level 1: empty intersection\n"
        "certified: at least 2 type-III move(s)\n"
        "re-verification: ok\n",
    ),
    (
        'weight d1 -n 3 -f "(x-y)*(y-z)*z" -s 0',
        "  coloring #0   W = 0 (trivial)\n"
        "  coloring #1   W = 2\n"
        "  coloring #2   W = -2\n"
        "  coloring #3   W = -8\n"
        "  coloring #4   W = 0 (trivial)\n"
        "  coloring #5   W = -4\n"
        "  coloring #6   W = -1\n"
        "  coloring #7   W = -5\n"
        "  coloring #8   W = 0 (trivial)\n"
        "Phi(d1, 0) = {-8, -5, -4, -2, -1, 2}\n",
    ),
    (
        "colorings d1 -n 3 --outer-color 0",
        "d1: 9 coloring(s) over Z(3)\n"
        "  #0   arcs: 0 0 0 (trivial)  regions: 0 0 0 0 0\n"
        "  #1   arcs: 0 1 2  regions: 0 0 2 1 2\n"
        "  #2   arcs: 0 2 1  regions: 0 0 1 2 1\n"
        "  #3   arcs: 1 0 2  regions: 0 2 0 2 1\n"
        "  #4   arcs: 1 1 1 (trivial)  regions: 0 2 2 0 0\n"
        "  #5   arcs: 1 2 0  regions: 0 2 1 1 2\n"
        "  #6   arcs: 2 0 1  regions: 0 1 0 1 2\n"
        "  #7   arcs: 2 1 0  regions: 0 1 2 2 1\n"
        "  #8   arcs: 2 2 2 (trivial)  regions: 0 1 1 0 0\n",
    ),
    (
        'delta -n 3 -f "(x-y)*(y-z)*z" --max-m 1',
        "f = x*y*z - x*z^2 - y^2*z + y*z^2  over Z(3)\n"
        "|Im(df)| = 13\n"
        "Im(df): {-8, -7, -5, -4, -2, -1, 0, 1, 2, 4, 5, 7, 11}\n"
        "Delta_0: {0}\n"
        "Delta_1: {-11, -8, -7, -5, -4, -2, -1, 0, 1, 2, 4, 5, 7, 8, 11}\n",
    ),
)


@pytest.mark.parametrize("line, want", PINNED_TEXT, ids=lambda v: v.split()[0])
def test_text_output_pinned(capsys, monkeypatch, tmp_path, line, want):
    # cold and warm on the default cache directory
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    for _ in range(2):
        assert run(capsys, *shlex.split(line)) == (0, want, "")


def test_text_weight_reads_no_crossing_terms(capsys, monkeypatch):
    # text mode prints W alone, so it builds no per-crossing record
    def refuse(*args):
        raise AssertionError("crossing_terms called in text mode")

    monkeypatch.setattr(invariant, "crossing_terms", refuse)
    line, want = PINNED_TEXT[1]
    assert run(capsys, *shlex.split(line), "--coloring", "all") == (0, want, "")


def test_validate_ok(capsys, tmp_path):
    code, out, _ = run(
        capsys, "validate", str(write_fixtures(tmp_path) / "d1.json")
    )
    assert code == 0
    assert "3 crossings" in out and "5 faces" in out


def test_path_wins_over_bundled_name(capsys, tmp_path, monkeypatch):
    local = fixture_dict("d3")
    local["name"] = "local"
    (tmp_path / "d1.json").write_text(json.dumps(local))
    monkeypatch.chdir(tmp_path)
    code, report, _ = run_json(capsys, "validate", "d1.json")
    assert code == 0 and report["results"]["summary"]["name"] == "local"
    code, report, _ = run_json(capsys, "validate", "d1")
    assert code == 0 and report["results"]["summary"]["name"] == "d1"


def test_bundled_names_are_exact(capsys, tmp_path, monkeypatch):
    # a bundled name is dN or dN.json as written: no directory, no case
    monkeypatch.chdir(tmp_path)
    for name in ("/no/such/dir/d3.json", "D3"):
        code, _, err = run(capsys, "validate", name)
        assert code == 2 and "no such file or bundled diagram" in err, name
    code, report, _ = run_json(capsys, "validate", "d3.json")
    assert code == 0 and report["results"]["summary"]["name"] == "d3"


def test_diagram_files_are_read_as_utf8(tmp_path):
    # JSON is UTF-8 whatever the locale: under LC_ALL=C with UTF-8 mode off
    # the locale's encoding is ASCII, which cannot decode this name
    name = "nœud-trèfle"
    code = fixture_dict("d1")
    code["name"] = name
    (tmp_path / "d1u.json").write_bytes(json.dumps(code, ensure_ascii=False).encode("utf-8"))
    env = dict(os.environ, LC_ALL="C")
    env["PYTHONPATH"] = str(ROOT / "src")

    def child(*argv: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-X", "utf8=0", "-m", "tribound.cli", *argv, "--json"],
            cwd=tmp_path, env=env, capture_output=True, timeout=120,
        )

    proc = child("validate", "d1u.json")
    assert proc.returncode == 0, proc.stdout
    assert json.loads(proc.stdout)["results"]["summary"]["name"] == name


def test_text_output_escapes_what_the_locale_cannot_encode(tmp_path):
    # text goes out with the backslashreplace errors of stderr: under an
    # ASCII locale every line comes out, the name escaped, and otherwise
    # the bytes are those of a UTF-8 stdout
    name, escaped = "nœud-trèfle", r"n\u0153ud-tr\xe8fle"
    code = fixture_dict("d1")
    code["name"] = name
    (tmp_path / "d1u.json").write_bytes(json.dumps(code, ensure_ascii=False).encode("utf-8"))
    env = dict(os.environ, LC_ALL="C", PYTHONPATH=str(ROOT / "src"),
               XDG_CACHE_HOME=str(tmp_path / "cache"))
    env.pop("PYTHONIOENCODING", None)  # it would set stdout's encoding
    f = "(x-y)*(y-z)*z"
    for argv, lines in (
        (["validate", "d1u.json"], 1),
        (["colorings", "d1u.json", "-n", "3"], 10),
        (["weight", "d1u.json", "-n", "3", "-f", f, "-s", "0", "--coloring", "all"], 10),
        (["certify", "d1u.json", "d2", "-n", "3", "-f", f, "-s", "0", "--max-m", "2"], 5),
    ):
        out = {}
        for utf8 in (0, 1):
            proc = subprocess.run(
                [sys.executable, "-X", f"utf8={utf8}", "-m", "tribound.cli", *argv],
                cwd=tmp_path, env=env, capture_output=True, timeout=120,
            )
            assert (proc.returncode, proc.stderr) == (0, b""), (argv, utf8)
            out[utf8] = proc.stdout
        assert len(out[0].splitlines()) == lines, argv
        assert escaped.encode() in out[0], argv
        assert out[0] == out[1].decode("utf-8").replace(name, escaped).encode("ascii")
    # a handler set in PYTHONIOENCODING is the user's choice, and stays
    proc = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-m", "tribound.cli", "validate", "d1u.json"],
        cwd=tmp_path, env=dict(env, PYTHONIOENCODING="ascii:replace"),
        capture_output=True, timeout=120,
    )
    assert proc.stdout.startswith(b"valid: n?ud-tr?fle with 3 crossings"), proc.stdout


def test_text_output_keeps_undecodable_path_bytes(tmp_path):
    # argv decodes a byte that is not UTF-8 to a lone surrogate, which
    # goes back out as the same byte: the path printed is the path given,
    # under UTF-8 and ASCII locales alike
    cache = bytes(tmp_path) + b"/cache\xff"
    argv = [b"delta", b"-n", b"5", b"-f", b"(x+y)^3*(y+z)*(y-z)^3*z^5", b"--max-m", b"1",
            b"--cache", cache]
    env = dict(os.environ, LC_ALL="C", PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONIOENCODING", None)
    for utf8 in (0, 1):
        proc = subprocess.run(
            [sys.executable, "-X", f"utf8={utf8}", "-m", "tribound.cli", *argv],
            env=env, capture_output=True, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, b""), utf8
        assert b"(full set in " + cache + b"/" in proc.stdout, utf8


def test_validate_derives_once(monkeypatch):
    calls = []
    real = diagram.trace_faces

    def counting(crossings, edges):
        calls.append(1)
        return real(crossings, edges)

    monkeypatch.setattr(diagram, "trace_faces", counting)
    assert main(["validate", "d3"]) == 0
    assert len(calls) == 1


def test_validate_bundled_name(capsys):
    code, report, _ = run_json(capsys, "validate", "d3")
    assert code == 0
    assert report["schema"] == 1
    assert report["results"]["summary"]["faces"] == 6


def test_validate_emit_derived(capsys):
    code, report, _ = run_json(capsys, "validate", "d3", "--emit-derived")
    assert code == 0
    derived = report["results"]["derived"]
    assert len(derived["arcs"]) == 4
    assert len(derived["faces"]) == 6
    assert sorted(derived["signs"].values()) == [-1, -1, 1, 1]


def test_validate_broken_file(capsys, tmp_path):
    broken = fixture_dict("d1")
    broken["crossings"][0]["slots"][0]["edge"] = 999
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 2
    assert "INVALID" in out


def test_validate_rejects_booleans_as_ids(capsys, tmp_path):
    # JSON true equals 1 in Python; as a crossing id or a slot edge it
    # must not pass for one
    for where in ("id", "edge"):
        code = fixture_dict("d1")
        if where == "id":
            code["crossings"][1]["id"] = True
        else:
            slot = next(s for c in code["crossings"] for s in c["slots"]
                        if s["edge"] == 1)
            slot["edge"] = True
        path = tmp_path / f"{where}.json"
        path.write_text(json.dumps(code))
        status, report, _ = run_json(capsys, "validate", str(path))
        assert status == 2
        assert [i["kind"] for i in report["results"]["issues"]] == ["syntax"]


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", "no-such-diagram.json")
    assert code == 2
    assert "no such file" in err


def test_colorings_counts(capsys):
    code, report, _ = run_json(capsys, "colorings", "d1", "-n", "3")
    assert code == 0
    assert report["results"]["count_total"] == 9
    code, report, _ = run_json(capsys, "colorings", "d1", "-n", "1")
    assert report["results"]["count_total"] == 1


def test_colorings_with_regions(capsys):
    code, report, _ = run_json(
        capsys, "colorings", "d1", "-n", "3", "--outer-color", "0"
    )
    assert code == 0
    row = report["results"]["colorings"][0]
    assert len(row["region_colors"]) == 5


def test_colorings_bad_modulus(capsys):
    code, _, err = run(capsys, "colorings", "d1", "-n", "0")
    assert code == 2
    # the outer color is checked first, and names the modulus all the same
    for n in ("0", "-1"):
        code, _, err = run(capsys, "colorings", "d1", "-n", n, "--outer-color", "0")
        assert (code, err) == (2, f"error: modulus must be >= 1, got {n}\n")


def test_weight_all(capsys):
    code, report, _ = run_json(
        capsys,
        "weight", "d1", "-n", "3", "-f", "(x-y)*(y-z)*z", "-s", "0",
        "--coloring", "all",
    )
    assert code == 0
    by_id = {row["id"]: row for row in report["results"]["weights"]}
    assert by_id[3]["w"] == -8
    assert all(row["w"] == 0 for row in by_id.values() if row["trivial"])
    code, report, _ = run_json(
        capsys,
        "weight", "d2", "-n", "3", "-f", "(x-y)*(y-z)*z", "-s", "0",
    )
    assert report["results"]["phi"]["values"] == [-2, 2]


def test_weight_all_enumerates_once(capsys, monkeypatch):
    calls = []
    real = coloring.enumerate_colorings

    def counting(d, n):
        calls.append(n)
        return real(d, n)

    for module in (coloring, invariant):
        monkeypatch.setattr(module, "enumerate_colorings", counting)
    code, report, _ = run_json(
        capsys, "weight", "d4", "-n", "5", "-f", "(x-y)*(y-z)*z", "-s", "2",
    )
    assert code == 0 and calls == [5]
    phi = phi_set(load_fixture("d4"), 2, CochainFn.build("(x-y)*(y-z)*z", 5))
    assert report["results"]["phi"] == {
        "values": list(phi.values),
        "witnesses": {str(v): list(ids) for v, ids in phi.witnesses.items()},
    }


def test_coloring_cap_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(coloring, "COLORING_CAP", 8)
    code, _, err = run(capsys, "colorings", "d1", "-n", "3")
    assert code == 4
    assert "9 colorings" in err and "cap" in err
    code, report, _ = run_json(capsys, "colorings", "d1", "-n", "2")
    assert code == 0 and report["results"]["count_total"] == 2


def test_weight_single_coloring(capsys):
    code, report, _ = run_json(
        capsys,
        "weight", "d6", "-n", "4", "-f", "(x+y)^2*(y-z)^3*z^5", "-s", "0",
        "--coloring", "0",
    )
    assert code == 0
    row = report["results"]["weights"][0]
    assert row["trivial"] and row["w"] == 0
    assert "phi" not in report["results"]


def test_weight_coloring_out_of_range(capsys):
    for idx in ("99", "-1"):
        code, _, err = run(
            capsys,
            "weight", "d1", "-n", "3", "-f", "(x-y)*(y-z)*z", "-s", "0",
            "--coloring", idx,
        )
        assert code == 2
        assert "out of range" in err


def test_weight_bad_coloring_id_is_reported(capsys):
    # only 'all' or -?[0-9]+ is an id: int() would also take 3_0 as 30,
    # and a padded, signed or non-ASCII digit
    for bad in ("foo", "3_0", " 3", "3 ", "+3", "\u0663", "1.0", ""):
        argv = ("weight", "d1", "-n", "3", "-f", "(x-y)*(y-z)*z", "-s", "0",
                "--coloring", bad)
        message = f"--coloring must be an id or 'all', got {bad!r}"
        code, report, err = run_json(capsys, *argv)
        assert code == 1 and report["results"] == {"error": message}, bad
        assert err == f"error: {message}\n"
        code, _, err = run(capsys, *argv)
        assert code == 1 and err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ("weight", "d1", "-n", "3", "-f", "(x-y)*(y-z)*z", "-s", "7"),
    ("colorings", "d1", "-n", "3", "--outer-color", "7"),
], ids=lambda argv: argv[0])
def test_outer_color_is_rejected_before_the_report(capsys, argv):
    # the rows stream out as they are built, so each check that can fail
    # runs before the first byte: the report is the error alone
    message = "outer color 7 not in Z(3)"
    code, out, err = run(capsys, *argv, "--json")
    assert code == 2 and err == ""
    report = json.loads(out)
    assert report["results"] == {"error": message}
    assert out == json.dumps(report) + "\n"
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_arguments_are_checked_before_the_colorings(capsys, tmp_path):
    # chain8 has 262 144 colorings at n = 16, past the
    # coloring cap: a bad argument is reported, not the cap, while a
    # coloring id is checked against the colorings and so meets the cap
    path = tmp_path / "chain8.json"
    word = [(c, "L") for c in range(7) for _ in range(4)]
    path.write_text(json.dumps(closed_braid_code(8, word, "chain8")))
    colorings = ("colorings", str(path), "-n", "16")
    weight = ("weight", str(path), "-n", "16", "-f", "(x-y)*(y-z)*z")
    for argv, code, err in (
        (colorings, 4, "resource cap: "),
        ((*colorings, "--outer-color", "99"), 2, "error: outer color 99 not in Z(16)\n"),
        ((*weight, "-s", "99"), 2, "error: outer color 99 not in Z(16)\n"),
        ((*weight, "-s", "0", "--coloring", "foo"), 1,
         "error: --coloring must be an id or 'all', got 'foo'\n"),
        ((*weight, "-s", "0", "--coloring", "5"), 4, "resource cap: "),
    ):
        got = run(capsys, *argv)
        assert got[:2] == (code, "") and got[2].startswith(err), argv
        assert got[2] == err or code == 4


def spawn_cli(*argv: str, **popen) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.Popen(
        [sys.executable, "-m", "tribound.cli", *argv], env=env,
        stderr=subprocess.PIPE, **popen,
    )


def test_reader_that_closes_early_gets_a_quiet_exit(tmp_path):
    # like `tribound weight ... --json | head -c 100`: the report is far
    # longer than a pipe holds, so the writer meets the closed pipe
    child = spawn_cli(*x48_weight_argv(tmp_path), "--json", stdout=subprocess.PIPE)
    assert child.stdout.read(100).startswith(b'{"schema": 1, "command": "weight"')
    child.stdout.close()
    assert child.wait(timeout=60) == cli.EXIT_BROKEN_PIPE == 141
    assert child.stderr.read() == b""
    # text output, to a reader gone before the command starts
    read, write = os.pipe()
    os.close(read)
    try:
        child = spawn_cli("weight", "d1", "-n", "3", "-f", "(x-y)*(y-z)*z", "-s", "0",
                          stdout=write)
    finally:
        os.close(write)
    assert child.wait(timeout=60) == 141
    assert child.stderr.read() == b""


def test_stdout_closed_at_start_up_gets_a_quiet_exit(tmp_path):
    # `tribound ... >&-`: with fd 1 closed, Python sets sys.stdout to None
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               XDG_CACHE_HOME=str(tmp_path / "cache"))

    def closed(*argv: str) -> tuple[int, str]:
        line = shlex.join([sys.executable, "-m", "tribound.cli", *argv])
        proc = subprocess.run(["sh", "-c", f"{line} >&-"], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=60)
        return proc.returncode, proc.stderr

    assert closed("validate", "d1") == (141, "")
    assert closed("validate", "d1", "--json") == (141, "")
    # a usage error and --help keep their codes
    assert closed("validate", "d1", "--bogus")[0] == 1
    assert closed("--help")[0] == 0


def run_child(tmp_path: Path, *args: str) -> subprocess.CompletedProcess:
    """``python ARGS`` with the checkout's src on the path, in tmp_path."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               XDG_CACHE_HOME=str(tmp_path / "child-cache"))
    return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


# registered before tribound runs, so it runs after every other handler
FROZEN_AT_EXIT = """
import atexit, gc, sys
atexit.register(lambda: sys.stderr.write(f"frozen: {gc.get_freeze_count() > 0}\\n"))
sys.argv[0] = "tribound"
"""


def test_entry_point_freezes_the_heap_and_keeps_atexit(capsys, tmp_path):
    # `python -m tribound.cli` and the [project.scripts] function both exit
    # through cli.entry; main() called in-process freezes nothing
    script = re.search(r'^tribound = "([\w.]+):(\w+)"$',
                       (ROOT / "pyproject.toml").read_text(), re.M)
    valid = "valid: d1 with 3 crossings, 6 edges, 3 arcs, 5 faces (1 component(s); outer face 0)\n"
    for code in (
        "import runpy\nrunpy.run_module('tribound.cli', run_name='__main__', alter_sys=True)",
        f"from {script[1]} import {script[2]}\n{script[2]}()",
    ):
        proc = run_child(tmp_path, "-c", FROZEN_AT_EXIT + code, "validate", "d1")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, valid, "frozen: True\n")
    frozen = gc.get_freeze_count()
    assert run(capsys, "validate", "d1") == (0, valid, "")
    assert gc.get_freeze_count() == frozen


def test_profiler_still_reports_at_exit(tmp_path):
    # finalization still runs: a profiler's report is written after exit
    proc = run_child(tmp_path, "-m", "cProfile", "-m", "tribound.cli", "validate", "d1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("valid: d1 with 3 crossings")
    assert re.search(r"\d+ function calls .*in [\d.]+ seconds", proc.stdout)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["validate", "d1"], 0),
        (["validate", "d1", "--bogus"], 1),
        (["validate", "no-such-file.json"], 2),
        (["colorings", "d1", "-n", "100000000"], 4),
        (["certify", "d1", "d2", "-n", "13", "-f", "(x-y)*(y-z)*z", "-s", "0",
          "--max-m", "3"], 5),
    ],
    ids=["ok", "usage", "invalid", "resource", "no-bound"],
)
def test_exit_codes_through_the_entry_point(capsys, monkeypatch, tmp_path, argv, code):
    # the child exits with main()'s code and prints what main() prints
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setenv("COLUMNS", "200")
    want = run(capsys, *argv)
    assert want[0] == code
    proc = run_child(tmp_path, "-m", "tribound.cli", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == want


def test_weight_refuses_bad_function(capsys):
    code, _, err = run(
        capsys, "weight", "d1", "-n", "3", "-f", "x", "-s", "0"
    )
    assert code == 2
    assert "(1, 0, 0)" in err


def test_delta_and_cache(capsys, tmp_path):
    cache = tmp_path / "cache"
    args = (
        "delta", "-n", "3", "-f", "(x-y)*(y-z)*z", "--max-m", "1",
        "--cache", str(cache),
    )
    code, cold, _ = run_json(capsys, *args)
    assert code == 0
    assert cold["results"]["im_size"] == 13
    assert cold["results"]["levels"][1]["values"] == [
        -11, -8, -7, -5, -4, -2, -1, 0, 1, 2, 4, 5, 7, 8, 11,
    ]
    assert cold["cache"] == {"hits": 0, "misses": 1}
    code, warm, _ = run_json(capsys, *args)
    assert warm["cache"] == {"hits": 1, "misses": 0}
    assert warm["results"] == cold["results"]


def test_delta_writes_cache_once(capsys, tmp_path, monkeypatch):
    stores = []
    real = cache.store_reach

    def counting(reach, directory=None):
        stores.append(directory)
        return real(reach, directory)

    monkeypatch.setattr(cache, "store_reach", counting)
    args = (
        "delta", "-n", "3", "-f", "(x-y)*(y-z)*z", "--max-m", "1",
        "--cache", str(tmp_path / "c"),
    )
    code, cold, _ = run_json(capsys, *args)
    assert code == 0 and len(stores) == 1
    code, warm, _ = run_json(capsys, *args)
    assert code == 0 and len(stores) == 1
    assert warm["results"]["cache_file"] == cold["results"]["cache_file"]
    assert Path(cold["results"]["cache_file"]).exists()


def test_certify_rejects_outer_color_before_levels(capsys, tmp_path):
    cache = tmp_path / "c"
    cache.mkdir()
    argv = (
        "certify", "d3", "d4", "-n", "5", "-f", "(x+y)^3*(y+z)*(y-z)^3*z^5",
        "-s", "9", "--max-m", "3", "--cache", str(cache),
    )
    code, _, err = run(capsys, *argv)
    assert code == 2 and err == "error: outer color 9 not in Z(5)\n"
    code, report, _ = run_json(capsys, *argv)
    assert code == 2
    assert report["results"] == {"error": "outer color 9 not in Z(5)"}
    assert report["cache"] == {"hits": 0, "misses": 0}
    assert list(cache.iterdir()) == []


def test_delta_large_set_summarized(capsys, tmp_path):
    code, report, _ = run_json(
        capsys,
        "delta", "-n", "5", "-f", "(x+y)^3*(y+z)*(y-z)^3*z^5",
        "--max-m", "1", "--cache", str(tmp_path / "c"),
    )
    assert code == 0
    assert report["results"]["im_size"] == 393
    # the entry holds Im(df) alone: its summary names the file, and a
    # level's does not
    im, level1 = report["results"]["im"], report["results"]["levels"][1]
    assert "values" not in im and im["file"] == report["results"]["cache_file"]
    assert level1.keys() == {"size", "min", "max"} and level1["size"] > 64
    assert Path(report["results"]["cache_file"]).exists()


def test_delta_cap_exit_code(capsys, tmp_path, monkeypatch):
    # cold, then warm from a cache filled without the cap
    args = (
        "delta", "-n", "3", "-f", "(x-y)*(y-z)*z", "--max-m", "2",
        "--cache", str(tmp_path / "c"),
    )
    for _ in range(2):
        with monkeypatch.context() as m:
            m.setattr(cochain, "DEFAULT_LEVEL_CAP", 5)
            code, _, err = run(capsys, *args)
        assert code == 4
        assert "cap" in err
        assert run(capsys, *args)[0] == 0


def test_delta_cap_below_one_is_usage_error(capsys, tmp_path):
    # the level cap is no option: --cap is refused as any unknown option
    # is; a level below 0 is refused up front, on a cold and on a warm
    # cache
    args = (
        "delta", "-n", "3", "-f", "(x-y)*(y-z)*z",
        "--cache", str(tmp_path / "c"),
    )
    for _ in range(2):
        for cap in ("0", "5"):
            code, _, err = run(capsys, *args, "--max-m", "0", "--cap", cap)
            assert code == 1
            assert f"unrecognized arguments: --cap {cap}" in err
        code, _, err = run(capsys, *args, "--max-m", "-1")
        assert code == 2
        assert "max_m must be >= 0, got -1" in err
        assert run(capsys, *args, "--max-m", "0")[0] == 0


def test_function_size_cap_exit_code(capsys, tmp_path):
    # seconds allowed; the last two stop at the term-product cap after
    # about 10^6 products
    for f, limit in (
        ("x^10000000*(y-z)", 1.0),
        ("((9^64)^64)^64*(y-z)", 1.0),
        ("(x+y+z+1)^32*(x+y+z+1)^32", 2.0),
        ("(x+y+z+1)^64", 2.0),
    ):
        start = time.perf_counter()
        code, _, err = run(
            capsys,
            "delta", "-n", "3", "-f", f, "--max-m", "0",
            "--cache", str(tmp_path / "c"),
        )
        assert time.perf_counter() - start < limit
        assert code == 4
        assert "past the cap" in err


def test_modulus_cap_exit_code(capsys):
    # f's table would hold 600^3 values: refused before any is computed
    start = time.perf_counter()
    code, report, _ = run_json(
        capsys,
        "weight", "d1", "-n", "600", "-f", "(x-y)*(y-z)*z", "-s", "0",
        "--coloring", "0",
    )
    assert time.perf_counter() - start < 0.5
    assert code == 4
    assert report["results"] == {
        "error": "modulus 600 past the cap 100 on the n^3 values of f's table"
    }


def test_image_cap_exit_code(capsys, tmp_path):
    # Im(df) at n = 41 would walk 41^4 tuples: refused before the walk
    start = time.perf_counter()
    code, report, _ = run_json(
        capsys, "delta", "-n", "41", "-f", "(x-y)*(y-z)*z", "--max-m", "0",
        "--cache", str(tmp_path / "c"),
    )
    assert time.perf_counter() - start < 0.5
    assert code == 4
    assert report["results"] == {
        "error": "modulus 41 past the cap 2560000 on the n^4 = 2825761 "
        "tuples of the walk for Im(df)"
    }


def test_image_cap_comes_before_the_table(capsys, tmp_path, monkeypatch):
    # at n = 100, f's table of 10^6 values is never built: delta and
    # certify refuse the modulus first, but a missing diagram still
    # comes before it
    def build(cls, f, n):
        raise AssertionError("CochainFn.build called")

    monkeypatch.setattr(CochainFn, "build", classmethod(build))
    f = ("-n", "100", "-f", "(x-y)*(y-z)*z")
    cache = ("--cache", str(tmp_path / "c"))
    message = (
        "modulus 100 past the cap 2560000 on the n^4 = 100000000 tuples "
        "of the walk for Im(df)"
    )
    for argv in (
        ("delta", *f, "--max-m", "0", *cache),
        ("certify", "d1", "d2", *f, "-s", "0", "--max-m", "2", *cache),
    ):
        code, report, _ = run_json(capsys, *argv)
        assert (code, report["results"]) == (4, {"error": message}), argv
    code, _, err = run(capsys, "certify", str(tmp_path / "none.json"), "d2", *f,
                       "-s", "0", *cache)
    assert code == 2 and "no such file or bundled diagram" in err
    assert not (tmp_path / "c").exists()
    # a modulus below 1 is no modulus: the table's own check refuses it
    monkeypatch.undo()
    code, _, err = run(capsys, "delta", "-n", "-50", "-f", "(x-y)*(y-z)*z", *cache)
    assert (code, err) == (2, "error: modulus must be >= 1, got -50\n")


F_NESTED = {
    "parentheses": "(" * 250 + "x-y" + ")" * 250 + "*(y-z)*z",
    # a leading space keeps the argument from reading as an option
    "minuses": " " + "-" * 1000 + "(x-y)*(y-z)*z",
}


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("kind", sorted(F_NESTED))
def test_deeply_nested_f_exits_on_the_cap(capsys, kind, as_json):
    # the parser recurses per parenthesis and unary minus; the nesting cap
    # stops it, with exit 4, well before Python's recursion limit
    argv = ["weight", "d1", "-n", "3", "-f", F_NESTED[kind], "-s", "0", "--coloring", "0"]
    pos = 100 if kind == "parentheses" else 101
    message = (
        f"f nests more than 100 parentheses and unary minuses at position "
        f"{pos}, past the cap"
    )
    if as_json:
        code, report, err = run_json(capsys, *argv)
        assert (code, report["results"], err) == (4, {"error": message}, "")
    else:
        assert run(capsys, *argv) == (4, "", f"resource cap: {message}\n")


@pytest.mark.parametrize("as_json", [False, True])
def test_deeply_nested_diagram_file_is_a_syntax_issue(capsys, tmp_path, as_json):
    # json.loads recurses once per "["; past the recursion limit the file
    # is reported like any other that is not JSON
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    message = "JSON nested too deeply to read"
    if as_json:
        code, report, err = run_json(capsys, "validate", str(path))
        assert (code, err) == (2, "")
        assert report["results"] == {
            "valid": False, "issues": [{"kind": "syntax", "message": message}]
        }
    else:
        assert run(capsys, "validate", str(path)) == (
            2, f"INVALID [syntax] {message}\n", ""
        )


@pytest.mark.parametrize("as_json", [False, True])
def test_deeply_nested_cache_entry_is_a_miss(capsys, tmp_path, as_json):
    # an entry json cannot read for its depth is a miss: the run rebuilds
    # the levels, overwrites the entry and certifies as a cold run does
    f = "(x-y)*(y-z)*z"
    argv = ["certify", "d1", "d2", "-n", "3", "-f", f, "-s", "0", "--max-m", "2"]
    cold = run(capsys, *argv, "--cache", str(tmp_path / "cold"), *(["--json"] * as_json))
    warm_dir = tmp_path / "warm"
    entry = cache.cache_path(CochainFn.build(f, 3), warm_dir)
    entry.parent.mkdir()
    entry.write_text("[" * 100_000)
    warm = run(capsys, *argv, "--cache", str(warm_dir), *(["--json"] * as_json))
    assert warm[0] == cold[0] == 0
    if as_json:
        cold_report, warm_report = json.loads(cold[1]), json.loads(warm[1])
        assert warm_report["results"] == cold_report["results"]
        assert warm_report["cache"] == {"hits": 0, "misses": 1}
    else:
        assert warm == cold
    assert cache.load_reach(CochainFn.build(f, 3), warm_dir) is not None


def test_certify_reference_pairs(capsys, tmp_path):
    cache = str(tmp_path / "c")
    code, report, _ = run_json(
        capsys,
        "certify", "d1", "d2", "-n", "3", "-f", "(x-y)*(y-z)*z",
        "-s", "0", "--max-m", "2", "--cache", cache,
    )
    assert code == 0
    assert report["results"]["certificate"]["m"] == 2
    assert report["results"]["verified"] is True

    code, report, _ = run_json(
        capsys,
        "certify", "d5", "d6", "-n", "4", "-f", "(x+y)^2*(y-z)^3*z^5",
        "-s", "0", "--max-m", "3", "--cache", cache,
    )
    assert code == 0
    assert report["results"]["certificate"]["m"] == 3


def test_certify_rejects_corrupted_cache(capsys, tmp_path):
    # the certifier builds its half levels from the cached Im(df); the
    # verifier walks its own and must catch the bound over-claimed from
    # a wrong one
    cache = tmp_path / "c"
    args = (
        "certify", "d1", "d2", "-n", "3", "-f", "(x-y)*(y-z)*z",
        "-s", "0", "--max-m", "3", "--cache", str(cache),
    )
    code, cold, _ = run_json(capsys, *args)
    assert code == 0 and cold["results"]["certificate"]["m"] == 2
    (path,) = cache.glob("delta_*.json")
    good = json.loads(path.read_text())
    assert len(good["im_delta"]) == 13
    # Im(df) = {0}: every level is {0}, which W - Phi avoids
    path.write_text(json.dumps({**good, "im_delta": [0]}))
    code, report, _ = run_json(capsys, *args)
    assert report["cache"] == {"hits": 1, "misses": 0}
    cert = report["results"]["certificate"]
    assert cert["m"] == 3 and cert["delta_level_sizes"] == [1, 1, 1]
    assert report["results"]["verified"] is False
    assert code == 3


def test_certify_reads_entries_with_level_sizes(capsys, tmp_path):
    # an entry that also carries the levels or level sizes that earlier
    # versions stored is a miss: Im(df) is rebuilt, the result is the
    # cold one whatever the stale sizes say, and the entry is rewritten
    # with n, f and im_delta alone, so the next call hits
    cache = tmp_path / "c"
    args = (
        "certify", "d1", "d2", "-n", "3", "-f", "(x-y)*(y-z)*z",
        "-s", "0", "--max-m", "3", "--cache", str(cache),
    )
    code, cold, _ = run_json(capsys, *args)
    assert code == 0 and cold["cache"] == {"hits": 0, "misses": 1}
    assert cold["results"]["certificate"]["delta_level_sizes"] == [1, 15, 39]
    (path,) = cache.glob("delta_*.json")
    good = json.loads(path.read_text())
    for old in (
        {**good, "level_sizes": [1, 15, 40]},
        {**good, "delta_levels": [[0]]},
        {**good, "delta_levels": [[0]], "level_sizes": [1]},
    ):
        path.write_text(json.dumps(old))
        code, warm, _ = run_json(capsys, *args)
        assert code == 0 and warm["cache"] == {"hits": 0, "misses": 1}, old
        assert warm["results"] == cold["results"]
        assert json.loads(path.read_text()) == good
        code, again, _ = run_json(capsys, *args)
        assert code == 0 and again["cache"] == {"hits": 1, "misses": 0}


def test_certify_warm_matches_cold(capsys, tmp_path):
    # the certificate from cached half levels is the one built from
    # scratch, for every max_m up to 5
    for pair, n, f in (
        (("d1", "d2"), "3", "(x-y)*(y-z)*z"),
        (("d5", "d6"), "4", "(x+y)^2*(y-z)^3*z^5"),
    ):
        for max_m in range(1, 6):
            cache = str(tmp_path / f"{pair[0]}-{max_m}")
            args = ("certify", *pair, "-n", n, "-f", f, "-s", "0",
                    "--max-m", str(max_m), "--cache", cache)
            code, cold, _ = run_json(capsys, *args)
            assert cold["cache"] == {"hits": 0, "misses": 1}
            warm_code, warm, _ = run_json(capsys, *args)
            assert warm["cache"] == {"hits": 1, "misses": 0}
            assert (warm_code, warm["results"]) == (code, cold["results"])
            assert warm["results"]["verified"] is True


def test_certify_and_delta_share_cache_entries(capsys, tmp_path):
    # certify --max-m m needs Delta_0..Delta_m//2 and delta --max-m M
    # needs Delta_0..Delta_M, and both build them from the one Im(df)
    # the entry holds: only the first call misses
    cache = str(tmp_path / "c")
    f = ("-n", "3", "-f", "(x-y)*(y-z)*z")
    certify = ("certify", "d1", "d2", *f, "-s", "0", "--cache", cache)
    delta = ("delta", *f, "--cache", cache)
    for argv, hits in (
        ((*delta, "--max-m", "1"), 0),
        ((*certify, "--max-m", "2"), 1),    # Delta_0, Delta_1
        ((*certify, "--max-m", "3"), 1),    # the same
        ((*certify, "--max-m", "3"), 1),
        ((*delta, "--max-m", "1"), 1),
        ((*delta, "--max-m", "2"), 1),      # Delta_2
        ((*certify, "--max-m", "5"), 1),    # Delta_0..Delta_2
        ((*delta, "--max-m", "2"), 1),
        ((*certify, "--max-m", "4"), 1),
    ):
        code, report, _ = run_json(capsys, *argv)
        assert code == 0, argv
        assert report["cache"] == {"hits": hits, "misses": 1 - hits}, argv
    (path,) = (tmp_path / "c").glob("delta_*.json")
    entry = json.loads(path.read_text())
    assert set(entry) == {"n", "f", "im_delta"} and len(entry["im_delta"]) == 13


def test_certify_treats_malformed_cache_as_miss(capsys, tmp_path):
    # a miss rebuilds Im(df) and writes the entry over the bad one
    cache = tmp_path / "c"
    args = (
        "certify", "d1", "d2", "-n", "3", "-f", "(x-y)*(y-z)*z",
        "-s", "0", "--max-m", "2", "--cache", str(cache),
    )
    code, cold, _ = run_json(capsys, *args)
    assert code == 0 and cold["cache"] == {"hits": 0, "misses": 1}
    (path,) = cache.glob("delta_*.json")
    good = json.loads(path.read_text())
    for bad in (
        [],
        {k: v for k, v in good.items() if k != "im_delta"},
        {**good, "im_delta": 5},
        {**good, "im_delta": [[0], *good["im_delta"][1:]]},
        {**good, "im_delta": [float(v) for v in good["im_delta"]]},
        {**good, "im_delta": [True, *good["im_delta"][1:]]},
    ):
        path.write_text(json.dumps(bad))
        code, warm, _ = run_json(capsys, *args)
        assert code == 0
        assert warm["cache"] == {"hits": 0, "misses": 1}
        assert warm["results"] == cold["results"]
        assert json.loads(path.read_text()) == good


def test_certify_treats_unwritable_cache_as_miss(capsys, monkeypatch, tmp_path):
    # the cache is an optimisation: a store that fails costs one line on
    # stderr, not the certificate; delta reports the file it could not
    # write and fails
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = ("certify", "d1", "d2", "-n", "3", "-f", "(x-y)*(y-z)*z",
            "-s", "0", "--max-m", "2")
    code, good, _ = run_json(capsys, *argv, "--cache", str(tmp_path / "c"))
    assert code == 0 and good["cache"] == {"hits": 0, "misses": 1}
    text = run(capsys, *argv, "--cache", str(tmp_path / "c"))
    assert text[0] == 0 and text[2] == ""
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    for cache_args in (("--cache", str(blocker / "c")), ()):
        for _ in range(2):  # nothing was stored, so both are misses
            code, report, err = run_json(capsys, *argv, *cache_args)
            assert code == 0 and report["cache"] == {"hits": 0, "misses": 1}
            assert report["results"] == good["results"]
            assert err.startswith("warning: cache not written: [Errno 20]")
            assert err.count("\n") == 1
            assert run(capsys, *argv, *cache_args) == (*text[:2], err)
        code, _, err = run(capsys, "delta", "-n", "3", "-f", "(x-y)*(y-z)*z",
                           *cache_args)
        assert code == 2 and err.startswith("error: [Errno 20] Not a directory")


def test_unwritable_cache_costs_no_second_walk(capsys, monkeypatch, tmp_path):
    # the certifier walks Im(df) once, keeps the levels it built when the
    # store fails, and the verifier walks its own: two walks, as on a
    # writable cold cache
    blocker = tmp_path / "file"
    blocker.write_text("")
    walks = []
    real = cochain.image_delta

    def counting(f):
        walks.append(f.n)
        return real(f)

    monkeypatch.setattr(cochain, "image_delta", counting)
    argv = ("certify", "d3", "d4", "-n", "5", "-f", "(x+y)^3*(y+z)*(y-z)^3*z^5",
            "-s", "2", "--max-m", "3")
    code, good, _ = run_json(capsys, *argv, "--cache", str(tmp_path / "c"))
    assert code == 0 and walks == [5, 5]
    walks.clear()
    code, report, err = run_json(capsys, *argv, "--cache", str(blocker / "c"))
    assert code == 0 and walks == [5, 5]
    assert report["cache"] == {"hits": 0, "misses": 1}
    assert report["results"] == good["results"]
    assert err.startswith("warning: cache not written: [Errno 20]")
    assert err.count("\n") == 1


def test_certify_max_m_zero(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "certify", "d1", "d2", "-n", "3", "-f", "(x-y)*(y-z)*z",
        "-s", "0", "--max-m", "0", "--cache", str(tmp_path / "c"),
    )
    assert code == 2
    assert "max_m must be >= 1, got 0" in err
    assert not (tmp_path / "c").exists()


def test_certify_negative_leading_term_verifies(capsys, tmp_path):
    code, report, _ = run_json(
        capsys,
        "certify", "d1", "d2", "-n", "3", "-f", "(y-z)*(0-x^2)",
        "-s", "0", "--max-m", "2", "--cache", str(tmp_path / "c"),
    )
    assert code in (0, 5)
    assert report["results"]["verified"] is True
    assert report["results"]["certificate"]["f"] == "-1*x^2*y + x^2*z"


def test_certify_no_obstruction(capsys, tmp_path):
    code, report, _ = run_json(
        capsys,
        "certify", "d1", "d1", "-n", "3", "-f", "(x-y)*(y-z)*z",
        "-s", "0", "--max-m", "2", "--cache", str(tmp_path / "c"),
    )
    assert code == 5
    assert report["results"]["certificate"]["m"] == 0


def test_reproduce_all_pass(capsys):
    code, out, _ = run(capsys, "reproduce")
    assert code == 0
    assert out.count("[PASS]") == 14
    assert "FAIL" not in out


def test_reproduce_json(capsys):
    code, out, _ = run(capsys, "reproduce", "--json")
    assert code == 0
    assert out.count("\n") == 1  # one compact line
    report = json.loads(out)
    assert report["results"]["pass"] is True
    assert len(report["results"]["checks"]) == 14


def test_reproduce_detects_tampering(capsys, monkeypatch):
    # d2 with a wrong outer region
    monkeypatch.setitem(fixtures._BUILDERS, "d2", (2, [(0, "L")] * 3, 3))
    code, out, _ = run(capsys, "reproduce")
    assert code == 3
    assert "[FAIL] Phi(d2, 0)" in out
    assert "got" in out


def test_usage_error_exit_code(capsys):
    assert main(["colorings", "d1"]) == 1  # missing -n
    assert main(["frobnicate"]) == 1
    assert main(["--help"]) == 0
    # options that no longer exist
    for argv, unrecognized in (
        (["reproduce", "--fixtures-dir", "dir"], "--fixtures-dir dir"),
        (["colorings", "d1", "-n", "3", "--nontrivial-only"], "--nontrivial-only"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert f"error: unrecognized arguments: {unrecognized}\n" in err


USAGE = "usage: tribound [-h] {validate,colorings,weight,delta,certify,reproduce} ..."
CHOICES = "'validate', 'colorings', 'weight', 'delta', 'certify', 'reproduce'"


@pytest.mark.parametrize(
    "argv, code, err",
    [
        ([], 1, f"{USAGE}\ntribound: error: the following arguments are "
         "required: command\n"),
        (["bogus"], 1, f"{USAGE}\ntribound: error: argument command: "
         f"invalid choice: 'bogus' (choose from {CHOICES})\n"),
        (["colorings", "d1"], 1, "usage: tribound colorings [-h] -n N "
         "[--outer-color S] [--json] path\ntribound "
         "colorings: error: the following arguments are required: -n\n"),
        (["validate", "d1", "--bogus"], 1, f"{USAGE}\ntribound: error: "
         "unrecognized arguments: --bogus\n"),
        (["--help"], 0, ""),
        (["certify", "--help"], 0, ""),
    ],
)
def test_parser_output_pinned(capsys, monkeypatch, argv, code, err):
    monkeypatch.setenv("COLUMNS", "200")
    got = run(capsys, *argv)
    out = got[1]
    assert (got[0], got[2]) == (code, err)
    if code == 0:
        assert out.startswith("usage: tribound") and "-h, --help" in out


def test_command_parser_holds_one_command(capsys, monkeypatch):
    parser = cli.build_parser()
    assert parser.parse_args(
        ["certify", "d3", "d4", "-n", "5", "-f", "x", "-s", "0"]
    ).func is cli.cmd_certify
    assert parser.parse_args(["validate", "d1"]).func is cli.cmd_validate
    # main builds no parser for a plain command line, and the one parser
    # of every command for each line that falls back to argparse
    built = []
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(0) or full())
    for argv in (["validate", "d1"], ["validate", "d1", "--bogus"], ["--help"], ["bogus"], []):
        run(capsys, *argv)
    assert built == [0, 0, 0, 0]


# tokens that the recognizer leaves to argparse, and an unknown command
HOSTILE = ("", "-1", "5_0", " 7", "+3", "--json=1", "--max", "--max-m=3", "-n5",
           "--", "-h", "frobnicate")
VALUES = {int: ("0", "2", "3", "13"), str: ("d1", "x", "(x-y)*(y-z)*z", "all")}


@st.composite
def command_lines(draw) -> list[str]:
    """An argv from the grammar of ``cli.ARGUMENTS``: a command, then its
    positionals and options in any order, an option repeated or left
    out, a positional missing or one too many, hostile tokens mixed in."""
    command = draw(st.sampled_from((*cli.ARGUMENTS, "frobnicate")))
    _, positionals, options, _ = cli.ARGUMENTS.get(command, ("", (), (), None))

    def value(kind: type) -> str:
        return draw(st.sampled_from(VALUES[kind] if draw(st.integers(0, 7)) else HOSTILE))

    def option(flag: str, kind: type) -> list[str]:
        return [flag] if kind is bool else [flag, value(kind)]

    k = len(positionals)
    groups = [[value(str)] for _ in range(draw(st.sampled_from((k, k, k, k + 1, max(0, k - 1)))))]
    groups += [option(flag, kind) for flag, _, kind, default, _, _ in options
               if default is cli.REQUIRED and draw(st.integers(0, 9))]
    extra = draw(st.lists(st.sampled_from((*options, cli.JSON)), max_size=4))
    groups += [option(flag, kind) for flag, _, kind, _, _, _ in extra]
    groups += [[token] for token in draw(st.lists(st.sampled_from(HOSTILE), max_size=1))]
    return [command, *(token for group in draw(st.permutations(groups)) for token in group)]


def parse_items(argv: list[str]) -> list[tuple[str, object]]:
    return list(vars(cli.build_parser().parse_args(argv)).items())


def echo(args, report) -> int:
    """A command that prints what it was given."""
    print(json.dumps(report.inputs), args.json)
    return 0


@given(command_lines())
@example([])
@example(["--help"])
@example(["certify", "--help"])
@example(["weight", "d1", "-n", "3", "-f", "x", "-s", "-1"])
@settings(max_examples=300, deadline=None)
def test_recognizer_agrees_with_argparse(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        ns = cli._recognize(argv)
    assert out.getvalue() == err.getvalue() == ""
    if ns is not None:
        assert list(vars(ns).items()) == parse_items(argv)
        return
    # declined: main answers as argparse alone does; each command echoes
    # its inputs, so that any argv is cheap to run
    def outcome(recognize) -> tuple[int, str, str]:
        with pytest.MonkeyPatch.context() as m:
            m.setattr(cli, "_recognize", recognize)
            for name, entry in cli.ARGUMENTS.items():
                m.setitem(cli.ARGUMENTS, name, (*entry[:3], echo))
            with contextlib.redirect_stdout(io.StringIO()) as out, \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(list(argv))
        masked = re.sub(r'"timing_s": [-+.\de]+', '"timing_s": 0', out.getvalue())
        return code, masked, err.getvalue()

    assert outcome(cli._recognize) == outcome(lambda argv: None)


def readme_commands() -> list[list[str]]:
    """The lines of README's "Command line" sh block, as argv lists."""
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    argvs = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [argv[1:] for argv in argvs if argv]


def test_readme_command_line_examples_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    commands = readme_commands()
    assert len(commands) >= 6
    for argv in commands:
        # parsed without argparse, into the namespace that argparse gives
        ns = cli._recognize(argv)
        assert ns is not None, argv
        assert list(vars(ns).items()) == parse_items(argv)
        assert main(argv) == 0, argv
        capsys.readouterr()
