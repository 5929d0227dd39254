"""Start-up cost: each command imports only what it runs.

Every CLI call is a fresh interpreter, so a module imported at start-up
is paid on every call.  ``dataclasses`` (with ``inspect``, ``ast`` and
``dis``) is not used at all, ``hashlib`` (OpenSSL) only where a hash is
taken, and ``tribound.fixtures`` only where a bundled diagram is named.
Each call runs in a child interpreter without ``site``, so that nothing
but tribound and the probe below loads modules.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from tribound.fixtures import fixture_dict

ROOT = Path(__file__).resolve().parents[1]
WATCHED = ("dataclasses", "hashlib", "tribound.fixtures")
PROBE = """
import json, sys
import tribound.cli
code = tribound.cli.main(sys.argv[1:])
loaded = [m for m in {watched!r} if m in sys.modules]
sys.stderr.write(json.dumps({{"code": code, "loaded": loaded}}))
""".format(watched=WATCHED)


def loaded_by(tmp_path: Path, *argv: str) -> tuple[int, set[str]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TRIBOUND_CACHE"] = str(tmp_path / "cache")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, *argv, "--json"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    result = json.loads(proc.stderr)
    return result["code"], set(result["loaded"])


def test_commands_import_only_what_they_run(tmp_path):
    for name in ("d1", "d2"):
        (tmp_path / f"{name}.json").write_text(json.dumps(fixture_dict(name)))
    f = "(x-y)*(y-z)*z"
    assert loaded_by(tmp_path, "validate", "d1.json") == (0, set())
    assert loaded_by(
        tmp_path, "weight", "d1.json", "-n", "3", "-f", f, "-s", "0",
        "--coloring", "all",
    ) == (0, set())
    code, loaded = loaded_by(
        tmp_path, "certify", "d1.json", "d2.json", "-n", "3", "-f", f,
        "-s", "0", "--max-m", "2",
    )
    assert code == 0 and not loaded & {"dataclasses", "tribound.fixtures"}
    # a bundled name still resolves, through the fixtures loaded on demand
    assert loaded_by(tmp_path, "validate", "d1") == (0, {"tribound.fixtures"})
