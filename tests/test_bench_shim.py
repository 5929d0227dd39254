"""The traced benchmark wraps ``CochainFn.build`` and ``canonical`` by
name (see bench/shim.py); a rename there would only show up in a traced
benchmark run, so this runs the shim on one certify call."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_shim_traces_cochain_methods(tmp_path):
    trace = tmp_path / "trace.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    env["TRIBOUND_CACHE"] = str(tmp_path / "cache")
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "bench" / "shim.py"), str(trace), "t",
            "certify", "d1", "d2", "-n", "3", "-f", "(x-y)*(y-z)*z",
            "-s", "0", "--max-m", "2", "--json",
        ],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    names = {span[0] for span in json.loads(trace.read_text())["spans"]}
    assert {"cochain.CochainFn.build", "cochain.CochainFn.canonical"} <= names
