"""Start-up cost: each command imports only what it runs.

Every CLI call is a fresh interpreter, so a module imported at start-up
is paid on every call.  ``import tribound`` loads no submodule; each
command loads the ``tribound`` modules it runs when it runs, ``pathlib``
only where a cache directory is named, ``tribound.fixtures``
only where a bundled diagram is named, and nowhere ``hashlib`` or its
OpenSSL module ``_hashlib`` (hashes come from the interpreter's built-in
SHA-256), nor ``dataclasses`` (with ``inspect``, ``ast`` and ``dis``).
A well-formed command line loads no ``argparse`` (with ``gettext`` and
``locale``): only a line that argparse must parse or explain does.
Each call runs in a child interpreter without ``site``, so that nothing
but tribound and the probe below loads modules.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tribound
from tribound.fixtures import fixture_dict

ROOT = Path(__file__).resolve().parents[1]
WATCHED = ("dataclasses", "hashlib", "_hashlib", "pathlib", "argparse", "gettext", "locale")
PROBE = """
import json, sys
import tribound.cli
code = tribound.cli.main(sys.argv[1:])
loaded = [m for m in sys.modules if m.split(".")[0] == "tribound" or m in {watched!r}]
sys.stderr.write(json.dumps({{"code": code, "loaded": loaded}}))
""".format(watched=WATCHED)

F = "(x-y)*(y-z)*z"
CORE = {"tribound", "tribound.cli", "tribound.diagram"}
WEIGHT = CORE | {"tribound.coloring", "tribound.poly", "tribound.invariant"}
LAYERS = WEIGHT | {"tribound.cochain"}
ARGPARSE = {"argparse", "gettext", "locale"}


def child(tmp_path: Path, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["XDG_CACHE_HOME"] = str(tmp_path / "cache")
    return subprocess.run(
        [sys.executable, "-S", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )


def loaded_by(tmp_path: Path, *argv: str) -> tuple[int, set[str]]:
    proc = child(tmp_path, "-c", PROBE, *argv, "--json")
    result = json.loads(proc.stderr.splitlines()[-1])  # after any usage error
    return result["code"], set(result["loaded"])


# each command with its exit code and the tribound modules (and watched
# standard modules) it loads
COMMANDS = (
    (("validate", "d1.json"), 0, CORE),
    (("colorings", "d1.json", "-n", "3"), 0, CORE | {"tribound.coloring"}),
    # W reads f's table alone: the level layer is never compiled
    (("weight", "d1.json", "-n", "3", "-f", F, "-s", "0", "--coloring", "all"), 0, WEIGHT),
    (
        ("delta", "-n", "3", "-f", F, "--max-m", "2"), 0,
        CORE | {"tribound.poly", "tribound.cochain", "tribound.cache", "pathlib"},
    ),
    (
        ("certify", "d1.json", "d2.json", "-n", "3", "-f", F, "-s", "0", "--max-m", "2"), 0,
        LAYERS | {"tribound.cache", "pathlib"},
    ),
    (("reproduce",), 0, LAYERS | {"tribound.fixtures"}),
    # a bundled name still resolves, through the fixtures loaded on demand
    (("validate", "d1"), 0, CORE | {"tribound.fixtures"}),
    # a malformed line falls back to argparse, which writes the usage error
    (("validate", "d1.json", "--bogus"), 1, CORE | ARGPARSE),
)


def test_commands_import_only_what_they_run(tmp_path):
    for name in ("d1", "d2"):
        (tmp_path / f"{name}.json").write_text(json.dumps(fixture_dict(name)))
    for argv, code, modules in COMMANDS:
        assert loaded_by(tmp_path, *argv) == (code, modules), argv


def test_package_loads_no_submodule(tmp_path):
    proc = child(
        tmp_path, "-c",
        "import sys, tribound; print(sorted(m for m in sys.modules if 'tribound' in m))",
    )
    assert proc.stdout.strip() == "['tribound']"


def test_weight_function_loads_without_levels(tmp_path):
    proc = child(
        tmp_path, "-c",
        "import sys, tribound; tribound.CochainFn;"
        " print(sorted(m for m in sys.modules if 'tribound' in m))",
    )
    assert proc.stdout.strip() == "['tribound', 'tribound.diagram', 'tribound.poly']"


def test_package_resolves_public_names_lazily():
    for name in tribound.__all__:
        assert getattr(tribound, name) is not None
        assert name in dir(tribound)
    assert tribound.weight is tribound.invariant.weight
    assert tribound.load_fixture is tribound.fixtures.load_fixture
    for module in ("cli", "diagram", "coloring", "poly", "cochain", "invariant", "cache"):
        assert getattr(tribound, module) is sys.modules[f"tribound.{module}"]
    # one class, caught by the command line without loading the layers
    assert (
        tribound.coloring.ResourceCapExceeded
        is tribound.poly.ResourceCapExceeded
        is tribound.cochain.ResourceCapExceeded
        is tribound.diagram.ResourceCapExceeded
    )
    namespace: dict[str, object] = {}
    exec("from tribound import *", namespace)
    assert set(tribound.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        tribound.no_such_name  # noqa: B018


PUBLIC = [
    "BoundCertificate", "CochainFn", "Coloring", "CrossingTerm", "DeltaReach",
    "Diagram", "DiagramError", "ExtendedColoring", "PhiSet", "__version__",
    "canonical_str", "certify_lower_bound", "coboundary_vector",
    "crossing_terms", "delta_f",
    "delta_reach", "diagram_from_dict", "enumerate_colorings",
    "extend_coloring", "image_delta", "is_trivial", "load_fixture",
    "merge_arcs", "parse_diagram", "parse_poly", "phi_set", "quandle_star",
    "set_outer_face", "trace_faces", "verify_certificate", "weight",
    "weight_vector",
]


def test_public_tables_name_what_exists():
    # a function deleted but left in a table fails here
    assert sorted(tribound.__all__) == PUBLIC
    for module in sorted(tribound._SUBMODULES):
        mod = getattr(tribound, module)
        for name in mod.__all__:
            assert hasattr(mod, name), f"tribound.{module}.{name}"
        assert len(set(mod.__all__)) == len(mod.__all__), module
    for name, module in tribound._SOURCES.items():
        assert name in getattr(tribound, module).__all__, name
