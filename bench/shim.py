"""Run one ``tribound`` CLI call with per-layer spans.

Usage: python3 shim.py TRACE_JSON OP_ID ARGS...

Before calling ``tribound.cli.main(ARGS)`` this wraps the public
functions of the modules ``cli``, ``diagram``, ``coloring``, ``cochain``,
``invariant`` and ``cache``, everywhere their names are bound, including
names re-imported into other modules (``tribound.invariant.
enumerate_colorings`` and the like).  Per-element helpers called inside
inner loops are left alone, and the ``Diagram`` lookup methods are only
counted.  Spans (name, start, end, parent, op id) stay in memory and are
written to TRACE_JSON when the call ends.  Nothing under ``src/`` is
changed.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from typing import Any, Callable

MODULES = ("cli", "diagram", "coloring", "cochain", "invariant", "cache")
# called once per table entry, crossing or coloring: a span each would
# swamp the work it measures
LEAVES = {
    "quandle_star", "delta_f", "eval_expr", "eval_f", "crossing_triple",
    "is_trivial", "crossing_sign",
}
METHODS = {"cochain": {"CochainFn": ("build", "canonical")}}
LOOKUPS = ("crossing", "slot_position", "corner_face", "face_of_side", "arc_of_edge")


def _size(name: str, args: tuple, result: Any) -> int | None:
    """The amount of work a span did, where a metric needs it."""
    if name == "diagram.parse_diagram":
        return len(result.crossings)
    if name in ("coloring.enumerate_colorings", "cochain.image_delta"):
        return len(result)
    if name == "cochain.delta_reach":
        return sum(len(lv) for lv in result.levels)
    if name == "cochain.sumset":
        return len(args[0]) * len(args[1])
    return None


class Tracer:
    def __init__(self, op_id: str):
        self.op = op_id
        self.spans: list[list[Any]] = []  # [name, start, end, parent, size]
        self.stack: list[int] = []
        self.lookups = 0
        self.bytes_read = 0
        self.bytes_written = 0

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            span = [name, time.perf_counter(), 0.0, parent, None]
            self.spans.append(span)
            self.stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
                span[4] = _size(name, args, result)
                return result
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()

        return traced

    def count(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.lookups += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, pkg: Any) -> None:
        mods = {m: getattr(pkg, m) for m in MODULES}
        wrapped: dict[int, Callable] = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (
                    inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_") and attr not in LEAVES
                ):
                    wrapped[id(obj)] = self.wrap(f"{short}.{attr}", obj)
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    name = f"{short}.{cls_name}.{meth}"
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(self.wrap(name, raw.__func__)))
                    else:
                        setattr(cls, meth, self.wrap(name, raw))
        loaded = [m for k, m in sys.modules.items() if k.split(".")[0] == pkg.__name__]
        for mod in loaded:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    setattr(mod, attr, wrapped[id(obj)])
        diagram_cls = mods["diagram"].Diagram
        for meth in LOOKUPS:
            setattr(diagram_cls, meth, self.count(getattr(diagram_cls, meth)))
        self._watch_cache(mods["cache"])

    def _watch_cache(self, cache: Any) -> None:
        """Bytes moved by the on-disk cache, from the file it names."""
        load, store = cache.load_reach, cache.store_reach

        def size(path: Any) -> int:
            try:
                return path.stat().st_size
            except OSError:
                return 0

        def load_reach(f, directory=None):
            result = load(f, directory)
            if result is not None:
                self.bytes_read += size(cache.cache_path(f, directory))
            return result

        def store_reach(reach, directory=None):
            path = cache.cache_path(reach.f, directory)
            before = path.stat().st_mtime_ns if path.exists() else None
            out = store(reach, directory)
            if path.exists() and path.stat().st_mtime_ns != before:
                self.bytes_written += size(path)
            return out

        for mod in (cache, sys.modules["tribound.cli"]):
            mod.load_reach, mod.store_reach = load_reach, store_reach

    def dump(self, path: str, import_s: float) -> None:
        with open(path, "w") as fh:
            json.dump({
                "op": self.op,
                "import_s": import_s,
                "lookups": self.lookups,
                "bytes_read": self.bytes_read,
                "bytes_written": self.bytes_written,
                "spans": self.spans,
            }, fh)


def main() -> int:
    trace_path, op_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    start = time.perf_counter()
    import tribound
    import tribound.cli

    import_s = time.perf_counter() - start
    tracer = Tracer(op_id)
    tracer.install(tribound)
    try:
        return tribound.cli.main(argv)
    finally:
        tracer.dump(trace_path, import_s)


if __name__ == "__main__":
    sys.exit(main())
