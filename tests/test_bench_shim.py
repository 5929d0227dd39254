"""The traced benchmark wraps ``CochainFn.build`` and ``canonical`` by
name, and reads the level and cache metrics off the spans of
``delta_reach``, ``store_reach`` and ``load_reach`` (see bench/shim.py
and bench/run.py); a rename there would only show up in a traced
benchmark run, so this runs the shim on one certify call, cold and then
warm."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_shim_traces_cochain_methods(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    env["XDG_CACHE_HOME"] = str(tmp_path / "cache")

    def spans(run: str) -> set[str]:
        trace = tmp_path / f"{run}.json"
        proc = subprocess.run(
            [
                sys.executable, str(ROOT / "bench" / "shim.py"), str(trace), run,
                "certify", "d1", "d2", "-n", "3", "-f", "(x-y)*(y-z)*z",
                "-s", "0", "--max-m", "2", "--json",
            ],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return {span[0] for span in json.loads(trace.read_text())["spans"]}

    cold = spans("cold")
    assert {
        "cochain.CochainFn.build", "cochain.CochainFn.canonical",
        "cochain.delta_reach", "cache.store_reach",
    } <= cold
    warm = spans("warm")
    assert "cache.load_reach" in warm and "cache.store_reach" not in warm
