"""On-disk cache for coboundary images and level sets.

One JSON file per (modulus, canonical function), named by a short hash
of the canonical form.  An entry is {n, f, im_delta, delta_levels}:
Im(df) and the levels built so far, Delta_0..Delta_L.  A writer
publishes its own temp file by atomic rename, so readers, who take no
lock, never see a partial entry.  An entry not readable as those four
keys with integer values is a miss, so a warm run gives the same result
and exit code as a cold one.  Other keys, such as the level sizes that
older entries carry, are ignored.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from . import cochain
from .cochain import DeltaReach, delta_reach
from .diagram import sha256_hex
from .poly import CochainFn

__all__ = ["default_cache_dir", "cache_path", "load_reach", "store_reach", "cached_reach"]


def default_cache_dir() -> Path:
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "tribound"


def cache_path(f: CochainFn, directory: str | Path | None = None) -> Path:
    base = Path(directory) if directory else default_cache_dir()
    digest = sha256_hex(f.canonical().encode())[:12]
    return base / f"delta_{f.n}_{digest}.json"


def load_reach(f: CochainFn, directory: str | Path | None = None) -> DeltaReach | None:
    """Cached levels for f, or None on a miss: no entry, an entry for
    another f, or one that does not hold integer levels, or nests too
    deeply for ``json`` to read."""
    try:
        obj = json.loads(cache_path(f, directory).read_text())
        if obj["n"] != f.n or obj["f"] != f.canonical():
            return None
        im_delta = tuple(obj["im_delta"])
        levels = tuple(tuple(lv) for lv in obj["delta_levels"])
    except (OSError, ValueError, LookupError, TypeError, RecursionError):
        return None
    if not all(type(v) is int for lv in (im_delta, *levels) for v in lv):
        return None
    return DeltaReach(f=f, im_delta=im_delta, levels=levels)


def store_reach(reach: DeltaReach, directory: str | Path | None = None) -> Path:
    """Write the cache entry for reach.f unless an entry with at least as
    many levels is there; returns the path.  Racing writers are not
    serialised: the last rename wins even with fewer levels, and a run
    that needs more misses and rebuilds them."""
    path = cache_path(reach.f, directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    existing = load_reach(reach.f, directory)
    if existing is not None and len(existing.levels) >= len(reach.levels):
        return path
    payload = {
        "n": reach.f.n,
        "f": reach.f.canonical(),
        "im_delta": list(reach.im_delta),
        "delta_levels": [list(lv) for lv in reach.levels],
    }
    tmp = path.with_name(f"{path.stem}.{os.urandom(6).hex()}.tmp")
    try:
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def cached_reach(
    f: CochainFn, max_level: int, directory: str | Path | None = None
) -> tuple[DeltaReach, bool]:
    """Delta_0..Delta_max_level of f, or more, and whether the cache
    served them; a miss builds and stores them.  An entry is not served
    for a level below 0, for n^4 past ``cochain.MAX_IMAGE_TUPLES``, if a
    level it would serve holds more than ``cochain.DEFAULT_LEVEL_CAP``
    values, or if the levels it would serve sum past the memory cap,
    ``cochain.SET_BYTES_CAP // cochain.SET_BYTES_PER_VALUE`` values (each
    read at each call), so that ``delta_reach`` rejects max_level < 0 and
    enforces every cap, warm or cold."""
    cached = load_reach(f, directory)
    if cached is not None and 0 <= max_level < len(cached.levels):
        sizes = [len(lv) for lv in cached.levels[: max_level + 1]]
        if (
            f.n**4 <= cochain.MAX_IMAGE_TUPLES
            and max(sizes) <= cochain.DEFAULT_LEVEL_CAP
            and sum(sizes) * cochain.SET_BYTES_PER_VALUE <= cochain.SET_BYTES_CAP
        ):
            return cached, True
    reach = delta_reach(f, max_level)
    store_reach(reach, directory)
    return reach, False
