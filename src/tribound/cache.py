"""On-disk cache for coboundary images and level sets.

One JSON file per (modulus, canonical function), named by a short hash
of the canonical form.  An entry holds Im(df), the levels built so far
(``delta_levels``, Delta_0..Delta_L) and the sizes known so far
(``level_sizes``, |Delta_0|..|Delta_M| with M >= L; ``certify`` counts
the sizes above its half levels without building those levels).  A
writer publishes its own temp file by atomic rename, so readers, who
take no lock, never see a partial entry.  An entry not readable as
{n, f, im_delta, delta_levels, level_sizes} of integers, or whose sizes
disagree with its levels, is a miss, so a warm run gives the same
result and exit code as a cold one.  An entry written before
``level_sizes`` existed has the sizes of its levels.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .cochain import CochainFn, DeltaReach

__all__ = ["default_cache_dir", "cache_path", "load_reach", "store_reach"]

ENV_VAR = "TRIBOUND_CACHE"


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "tribound"


def cache_path(f: CochainFn, directory: Path | None = None) -> Path:
    import hashlib  # deferred: OpenSSL costs start-up time and memory

    directory = directory or default_cache_dir()
    digest = hashlib.sha256(f.canonical().encode()).hexdigest()[:12]
    return directory / f"delta_{f.n}_{digest}.json"


def load_reach(f: CochainFn, directory: Path | None = None) -> DeltaReach | None:
    """Cached levels and sizes for f, or None on a miss: no entry, an
    entry for another f, or one that does not hold integer levels with
    sizes that start with the sizes of its levels."""
    try:
        obj = json.loads(cache_path(f, directory).read_text())
        if obj["n"] != f.n or obj["f"] != f.canonical():
            return None
        im_delta = tuple(obj["im_delta"])
        levels = tuple(tuple(lv) for lv in obj["delta_levels"])
        sizes = tuple(obj.get("level_sizes", map(len, levels)))
    except (OSError, ValueError, LookupError, TypeError):
        return None
    if not all(type(v) is int for lv in (im_delta, sizes, *levels) for v in lv):
        return None
    if sizes[: len(levels)] != tuple(map(len, levels)):
        return None
    return DeltaReach(
        f=f, im_delta=im_delta, levels=levels, counted=sizes[len(levels):]
    )


def store_reach(reach: DeltaReach, directory: Path | None = None) -> Path:
    """Write (or extend) the cache entry for reach.f; returns the path.
    The entry keeps the longer of its own and reach's levels, and the
    longer of their sizes, so a store never shrinks either.  Racing
    writers are not serialised: the last rename wins even with fewer
    levels, and a run that needs more misses and rebuilds them."""
    path = cache_path(reach.f, directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    levels, sizes = reach.levels, reach.sizes
    existing = load_reach(reach.f, directory)
    if existing is not None:
        if len(existing.levels) >= len(levels) and len(existing.sizes) >= len(sizes):
            return path
        levels = max(existing.levels, levels, key=len)
        sizes = max(existing.sizes, sizes, key=len)
    payload = {
        "n": reach.f.n,
        "f": reach.f.canonical(),
        "im_delta": list(reach.im_delta),
        "delta_levels": [list(lv) for lv in levels],
        "level_sizes": list(sizes),
    }
    tmp = path.with_name(f"{path.stem}.{os.urandom(6).hex()}.tmp")
    try:
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path
