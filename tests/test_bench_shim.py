"""The traced benchmark wraps ``CochainFn.build`` and ``canonical`` by
name, through ``tribound.cochain.CochainFn``, and reads the per-layer
metrics off the spans of ``delta_reach``, ``image_delta``, ``weight``,
``certify_lower_bound``, ``verify_certificate``, ``store_reach`` and
``load_reach`` (see bench/shim.py and bench/run.py); a rename or a move
there would only show up in a traced benchmark run, so this runs the
shim on one certify call, cold and then warm.  At ``--max-m 2`` the
half level is Delta_1 = +/- Im df, so no ``sumset`` span need appear."""

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
        "cochain.delta_reach", "cochain.image_delta", "cache.store_reach",
        "invariant.weight", "invariant.certify_lower_bound",
        "invariant.verify_certificate",
    } <= cold
    warm = spans("warm")
    assert "cache.load_reach" in warm and "cache.store_reach" not in warm
