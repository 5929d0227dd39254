#!/usr/bin/env python3
"""End-to-end benchmark of the ``tribound`` command line.

    python3 bench/run.py --workload certify-cold --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --smoke

Run it from the root of a checkout: every op is ``python -m tribound.cli
... --json`` in a fresh interpreter, with the checkout's ``src/`` on
PYTHONPATH.  One client runs one op at a time (a closed loop).  A round
is the workload's fixed, seeded op list; a run repeats whole rounds
until ``--seconds`` have passed and at least MIN_OPS ops have run.
Every output is checked by ``checker.py``, which shares no code with
tribound.  The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or
with ``--trace 1`` the per-layer metrics from a run through
``shim.py``).  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import checker
import inputs

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("certify-cold", "certify-warm", "big-diagrams")
MIN_OPS = 40  # so that ten ops lie beyond the 75th percentile
TAIL_PCT = 75
SETUP_REPS = 3
OP_TIMEOUT_S = 60.0
# A fixed process that runs no tribound code: interpreter start-up, the
# standard modules tribound imports and a little bytecode.  One runs
# before every op, and every time figure is scaled by REF_S over the
# reference's local median, i.e. to a host on which the reference takes
# REF_S.  The host's speed drifts by more than half within minutes here
# (other tenants), and an op slows with it in the same proportion.
REF_CODE = "import argparse, dataclasses, hashlib, json, pathlib\nsum(i * i for i in range(200_000))"
REF_S = 0.1
REF_WINDOW = 3  # an op is scaled by the median of the references within 3 ops of it
# one op of each kind: smoke mode runs these once, with every check
SMOKE_KEYS = {
    "paper-d1", "trivial-d1-n13", "closure0-x6",
    "big0-x24", "big0-certify", "plain0-x12", "shuffled0-x12",
}


@dataclass
class Outcome:
    op: inputs.Op
    code: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: bytes
    trace: Path | None = None
    speed: float = 1.0  # local reference wall time over REF_S
    cpu_speed: float = 1.0  # the same for CPU time

    @property
    def scaled_wall(self) -> float:
        return self.wall / self.speed

    @property
    def scaled_cpu(self) -> float:
        return self.cpu / self.cpu_speed


class Runner:
    """Runs ops of one workload in a work directory inside the checkout."""

    def __init__(self, workload: str, seed: int, work: Path, traced: bool):
        self.workload = workload
        self.work = work
        self.traced = traced
        self.diagrams, self.ops = inputs.workload(workload, seed)
        self.env = {
            k: v for k, v in os.environ.items()
            if k not in ("TRIBOUND_CACHE", "PYTHONPATH", "PYTHONHOME")
        }
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["XDG_CACHE_HOME"] = str(work / "xdg-cache")
        self.inputs_dir = work / "inputs"
        self.warm_cache: Path | None = None
        self.fill: dict[str, Outcome] = {}
        self.serial = 0
        self.refs: list[tuple[float, float]] = []  # (wall, cpu) of each reference
        self.spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")], env=self.env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.stdout.close()
        self.spawner.wait()

    def spawn(self, cmd: list[str]) -> dict[str, Any]:
        request = {"cmd": cmd, "cwd": str(self.inputs_dir), "stdout": str(self.work / "stdout.txt"),
                   "stderr": str(self.work / "stderr.txt"), "timeout": OP_TIMEOUT_S}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        return json.loads(self.spawner.stdout.readline())

    def call(
        self, op: inputs.Op, argv: list[str], cache: Path | None, traced: bool, ref: bool = True
    ) -> Outcome:
        """Run the reference (unless ref is false), then the op."""
        if ref:
            got = self.spawn([sys.executable, "-c", REF_CODE])
            self.refs.append((got["wall"], got["cpu"]))
        self.serial += 1
        cmd = [sys.executable]
        trace = None
        if traced:
            trace = self.work / "traces" / f"{self.serial}.json"
            cmd += [str(HERE / "shim.py"), str(trace), f"{self.serial}:{op.key}"]
        else:
            cmd += ["-m", "tribound.cli"]
        cmd += argv + ["--json"] + (["--cache", str(cache)] if cache else [])
        got = self.spawn(cmd)
        return Outcome(op, got["code"], got["wall"], got["cpu"], got["rss_kb"] / 1024,
                       (self.work / "stdout.txt").read_bytes(), trace)

    def scale(self, outs: list[Outcome]) -> None:
        """Give each op the local reference speed, from self.refs, which
        holds one reference per op in outs."""
        for i, o in enumerate(outs):
            near = self.refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1]
            o.speed = statistics.median(w for w, _ in near) / REF_S
            o.cpu_speed = statistics.median(c for _, c in near) / REF_S

    def setup(self) -> tuple[float, float]:
        """Write the inputs, validate every diagram and, on certify-warm,
        fill the cache with one pass over the op list.  Returns its
        seconds, without the references, and the median speed."""
        self.refs = []
        start = time.perf_counter()
        shutil.rmtree(self.inputs_dir, ignore_errors=True)
        self.inputs_dir.mkdir(parents=True)
        for name, code in self.diagrams.items():
            (self.inputs_dir / f"{name}.json").write_text(json.dumps(code, indent=1))
        # a reference before every fourth step is enough for one median
        for i, name in enumerate(self.diagrams):
            op = inputs.Op(f"validate-{name}", [], "validate", name, None, 0, "", 0)
            got = self.call(op, ["validate", f"{name}.json"], None, False, i % 4 == 0)
            if got.code != 0:
                raise SystemExit(f"setup: {name}.json did not validate: {got.stdout[-500:]!r}")
        if self.workload == "certify-warm":
            self.warm_cache = self.work / "warm-cache"
            shutil.rmtree(self.warm_cache, ignore_errors=True)
            self.fill = {}
            for i, op in enumerate(self.ops):  # a failed op is counted in the rounds
                self.fill[op.key] = self.call(op, op.argv, self.warm_cache, False, i % 4 == 0)
        elapsed = time.perf_counter() - start - sum(w for w, _ in self.refs)
        return elapsed, statistics.median(w for w, _ in self.refs) / REF_S

    def round(self, index: int, ops: list[inputs.Op]) -> list[Outcome]:
        """One pass over the op list, each op scaled to the reference."""
        outs = []
        self.refs = []
        for i, op in enumerate(ops):
            cache = None
            if op.kind == "certify":
                cache = self.warm_cache or self.work / "cold" / f"{index}-{i}"
                if cache != self.warm_cache:
                    cache.mkdir(parents=True)
            outs.append(self.call(op, op.argv, cache, self.traced))
        shutil.rmtree(self.work / "cold", ignore_errors=True)
        self.scale(outs)
        return outs


class Checks:
    """Output checks; an identical output of the same op gets the same verdict."""

    def __init__(self, runner: Runner):
        self.runner = runner
        self.levels: dict[tuple[str, int], checker.Levels] = {}
        self.verdicts: dict[tuple[str, str, bool], list[str]] = {}

    def problems(
        self, got: Outcome, round_outs: dict[str, Outcome], fill: bool = False
    ) -> tuple[bool, list[str]]:
        """(ran to a normal exit, problems found).  The cache rule is
        skipped for the ops that fill the warm cache."""
        op = got.op
        if got.code not in (0, 5):
            return False, [f"exit code {got.code}"]
        key = (op.key, hashlib.sha256(got.stdout).hexdigest(), fill)
        if key not in self.verdicts:
            self.verdicts[key] = self._check(got, fill)
        bad = list(self.verdicts[key])
        if op.twin is not None and not bad:
            bad += self._twin(got, round_outs.get(op.twin))
        return True, bad

    def _check(self, got: Outcome, fill: bool) -> list[str]:
        op = got.op
        try:
            report = json.loads(got.stdout)
            results = report["results"]
        except (ValueError, KeyError) as exc:
            return [f"unreadable report: {exc}"]
        d = self.runner.diagrams[op.d]
        if op.kind == "weight":
            return checker.check_weight_all(results, op.f, op.n, op.s, d)
        cert = results.get("certificate")
        if not isinstance(cert, dict):
            return ["no certificate"]
        bad = [] if results.get("verified") is True else ["verified is not true"]
        lv = self.levels.get((op.f, op.n))
        if lv is None:
            lv = self.levels[(op.f, op.n)] = checker.Levels(checker.compile_f(op.f), op.n)
        d2 = self.runner.diagrams[op.d2]
        bad += checker.check_certificate(cert, op.f, op.n, op.s, op.max_m, d, d2, lv)
        if (got.code == 5) != (cert.get("m") == 0):
            bad.append(f"exit code {got.code} with m = {cert.get('m')}")
        if op.expect_m is not None and cert.get("m") != op.expect_m:
            bad.append(f"paper bound {op.expect_m}, certified {cert.get('m')}")
        hits = report.get("cache", {}).get("hits", 0)
        if fill:
            return bad
        if self.runner.warm_cache is None and hits:
            bad.append("a cold cache reported a hit")
        if self.runner.warm_cache is not None:
            fill_out = self.runner.fill[op.key]
            if not hits:
                bad.append("the warm cache missed")
            if fill_out.code not in (0, 5):
                bad.append(f"the cold fill exited {fill_out.code}")
            elif json.loads(fill_out.stdout)["results"]["certificate"] != cert:
                bad.append("the warm certificate differs from the cold fill's")
        return bad

    @staticmethod
    def _twin(got: Outcome, twin: Outcome | None) -> list[str]:
        """A relabeled diagram has the same colorings count and Phi set."""
        if twin is None or twin.code != 0:
            return ["no output of the unshuffled original to compare"]
        mine = json.loads(got.stdout)["results"]
        theirs = json.loads(twin.stdout)["results"]
        if len(mine["weights"]) != len(theirs["weights"]):
            return ["shuffled copy has another number of colorings"]
        if mine["phi"]["values"] != theirs["phi"]["values"]:
            return ["shuffled copy has another Phi set"]
        return []


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ranked = sorted(values)
    return ranked[max(0, -(-len(ranked) * pct // 100) - 1)]


def layer_metrics(
    outs: list[Outcome], rounds: int, speed: float
) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the traced ops, as totals per round; times
    are scaled by the run's median reference speed."""
    tot: dict[str, float] = dict.fromkeys(
        ("import_s", "lookups", "bytes_read", "bytes_written", "report_bytes",
         "hits", "misses", "scored", "rebuilds"), 0.0)
    self_s: dict[str, float] = {}
    incl: dict[str, list[float]] = {}
    for got in outs:
        tot["report_bytes"] += len(got.stdout)
        try:
            cache = json.loads(got.stdout).get("cache", {})
        except ValueError:
            cache = {}
        tot["hits"] += cache.get("hits", 0)
        tot["misses"] += cache.get("misses", 0)
        if got.trace is None or not got.trace.exists():
            continue
        data = json.loads(got.trace.read_text())
        for k in ("import_s", "lookups", "bytes_read", "bytes_written"):
            tot[k] += data[k]
        raw = data["spans"]
        child = [0.0] * len(raw)
        for name, start, end, parent, _ in raw:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, size) in enumerate(raw):
            dur = end - start
            module = name.split(".")[0]
            self_s[module] = self_s.get(module, 0.0) + dur - child[i]
            self_s[name] = self_s.get(name, 0.0) + dur - child[i]
            acc = incl.setdefault(name, [0.0, 0.0, 0.0])
            acc[0] += dur
            acc[1] += 1
            acc[2] += size or 0
            parent_name = raw[parent][0] if parent >= 0 else ""
            if name == "invariant.weight" and parent_name == "invariant.certify_lower_bound":
                tot["scored"] += 1
            if name == "cochain.image_delta":
                up = parent
                while up >= 0 and raw[up][0] != "invariant.verify_certificate":
                    up = raw[up][3]
                tot["rebuilds"] += up >= 0

    def span(name: str, i: int) -> float:
        return incl.get(name, [0.0, 0.0, 0.0])[i]

    cache_calls = tot["hits"] + tot["misses"]
    out = {
        "cli.import_s": (tot["import_s"], "s"),
        "cli.self_s": (self_s.get("cli", 0.0), "s"),
        "cli.report_bytes": (tot["report_bytes"], "bytes"),
        "diagram.parse_s": (span("diagram.parse_diagram", 0), "s"),
        "diagram.crossings_parsed": (span("diagram.parse_diagram", 2), "count"),
        "diagram.lookup_calls": (tot["lookups"], "count"),
        "diagram.hash_s": (span("diagram.diagram_hash", 0), "s"),
        "coloring.enumerate_s": (span("coloring.enumerate_colorings", 0), "s"),
        "coloring.enumerate_calls": (span("coloring.enumerate_colorings", 1), "count"),
        "coloring.colorings": (span("coloring.enumerate_colorings", 2), "count"),
        "coloring.extend_s": (span("coloring.extend_coloring", 0), "s"),
        "coloring.extend_calls": (span("coloring.extend_coloring", 1), "count"),
        "cochain.build_s": (span("cochain.CochainFn.build", 0), "s"),
        "cochain.build_calls": (span("cochain.CochainFn.build", 1), "count"),
        "cochain.canonical_s": (span("cochain.CochainFn.canonical", 0), "s"),
        "cochain.canonical_calls": (span("cochain.CochainFn.canonical", 1), "count"),
        "cochain.image_s": (span("cochain.image_delta", 0), "s"),
        "cochain.image_calls": (span("cochain.image_delta", 1), "count"),
        "cochain.im_values": (span("cochain.image_delta", 2), "count"),
        "cochain.levels_s": (
            self_s.get("cochain.delta_reach", 0.0) + span("cochain.sumset", 0), "s"),
        "cochain.level_values": (span("cochain.delta_reach", 2), "count"),
        "cochain.sumset_terms": (span("cochain.sumset", 2), "count"),
        "invariant.weight_s": (span("invariant.weight", 0), "s"),
        "invariant.weight_calls": (span("invariant.weight", 1), "count"),
        "invariant.phi_s": (span("invariant.phi_set", 0), "s"),
        "invariant.phi_calls": (span("invariant.phi_set", 1), "count"),
        "invariant.certify_s": (self_s.get("invariant.certify_lower_bound", 0.0), "s"),
        "invariant.colorings_scored": (tot["scored"], "count"),
        "invariant.verify_s": (self_s.get("invariant.verify_certificate", 0.0), "s"),
        "invariant.verify_rebuilds": (tot["rebuilds"], "count"),
        "cache.load_s": (span("cache.load_reach", 0), "s"),
        "cache.bytes_read": (tot["bytes_read"], "bytes"),
        "cache.store_s": (span("cache.store_reach", 0), "s"),
        "cache.bytes_written": (tot["bytes_written"], "bytes"),
    }
    out = {
        k: (v / rounds / (speed if unit == "s" else 1.0), unit) for k, (v, unit) in out.items()
    }
    out["cache.hit_ratio"] = (tot["hits"] / cache_calls if cache_calls else 0.0, "ratio")
    out["trace.op_p50_s"] = (statistics.median(o.scaled_wall for o in outs), "s")
    return out


def run(workload: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict[str, Any]:
    work = HERE / "_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "traces").mkdir(parents=True)
    runner = Runner(workload, seed, work, traced)
    try:
        if smoke:
            runner.ops = [op for op in runner.ops if op.key in SMOKE_KEYS]
        reps = 1 if traced or smoke else SETUP_REPS
        setups = [runner.setup() for _ in range(reps)]
        ops = runner.ops
        checks = Checks(runner)
        outs: list[Outcome] = []
        rounds = 0
        wrong = failed = 0
        problems: list[str] = []
        start = time.perf_counter()
        check_s = 0.0
        while rounds == 0 or (
            not smoke and (time.perf_counter() - start < seconds or len(outs) < MIN_OPS)
        ):
            got = runner.round(rounds, ops)
            rounds += 1
            outs += got
            by_key = {o.op.key: o for o in got}
            check_start = time.perf_counter()
            for o in got:
                ran, bad = checks.problems(o, by_key)
                if bad:
                    failed += 1
                    wrong += ran
                    problems += [f"{o.op.key}: {b}" for b in bad]
            check_s += time.perf_counter() - check_start
        for o in runner.fill.values():  # the cold fill must pass the same checks
            ran, bad = checks.problems(o, {}, fill=True)
            wrong += ran and bool(bad)
            problems += [f"fill {o.op.key}: {b}" for b in bad]
        for p in dict.fromkeys(problems):
            print(f"FAIL {p}", file=sys.stderr)
        walls = [o.scaled_wall for o in outs]
        speed = statistics.median(o.speed for o in outs)
        if traced:
            metrics = layer_metrics(outs, rounds, speed)
        else:
            metrics = {
                "setup_s": (statistics.median(t / v for t, v in setups), "s"),
                "ops_per_s": ((len(outs) - failed) / sum(walls), "1/s"),
                "op_p50_s": (statistics.median(walls), "s"),
                "op_tail_s": (percentile(walls, TAIL_PCT), "s"),
                "op_cpu_p50_s": (statistics.median(o.scaled_cpu for o in outs), "s"),
                "peak_rss_mb": (max(o.rss_mb for o in outs), "MB"),
            }
        print(f"{workload} seed {seed}: set-up {' '.join(f'{t:.2f}' for t, _ in setups)} s "
              f"unscaled; {rounds} round(s) of {len(ops)} ops, median op "
              f"{statistics.median(o.wall for o in outs):.3f} s unscaled; reference "
              f"speed {min(o.speed for o in outs):.2f}..{max(o.speed for o in outs):.2f} "
              f"(median {speed:.3f}); checks {check_s:.2f} s; {failed} failed", file=sys.stderr)
        return {
            "correct": wrong == 0,
            "attempted": len(outs),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload, one round of a few ops, all checks")
    args = ap.parse_args()
    if not (ROOT / "src" / "tribound" / "cli.py").is_file():
        print(f"error: no src/tribound/cli.py under {ROOT}; run from the "
              "root of a tribound checkout", file=sys.stderr)
        return 2
    if args.smoke:
        results = [run(w, args.seed, 0, bool(args.trace), True) for w in WORKLOADS]
        ok = all(r["correct"] and not r["failed"] for r in results)
        print(json.dumps({w: r for w, r in zip(WORKLOADS, results)}))
        return 0 if ok else 1
    if args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace), False)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
