"""On-disk cache of coboundary images.

One JSON file per (modulus, canonical function), named by a short hash
of the canonical form.  An entry is exactly {n, f, im_delta}: Im(df),
the one input of the Delta levels that takes the n^4 walk.  The levels
are built from it on every run, warm or cold, so a warm run meets every
cap of ``cochain`` as a cold one does.  The hit rule: an entry for
(n, f) with exactly those three keys and an image of integers.  Any
other entry, such as the level copies that earlier versions wrote, is
a miss, and the store that follows overwrites it.  A writer publishes
its own temp file by atomic rename, so readers, who take no lock, never
see a partial entry.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING

from .diagram import sha256_hex
from .poly import CochainFn

if TYPE_CHECKING:
    from .cochain import DeltaReach

__all__ = ["default_cache_dir", "cache_path", "load_reach", "store_reach"]

_KEYS = {"n", "f", "im_delta"}


def default_cache_dir() -> Path:
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "tribound"


def cache_path(f: CochainFn, directory: str | Path | None = None) -> Path:
    base = Path(directory) if directory else default_cache_dir()
    digest = sha256_hex(f.canonical().encode())[:12]
    return base / f"delta_{f.n}_{digest}.json"


def load_reach(f: CochainFn, directory: str | Path | None = None) -> tuple[int, ...] | None:
    """Im(df) from f's entry, or None on a miss: no entry, an entry for
    another f, one with other keys or values that are not integers, or
    one that nests too deeply for ``json`` to read."""
    try:
        obj = json.loads(cache_path(f, directory).read_text())
    except (OSError, ValueError, RecursionError):
        return None
    if type(obj) is not dict or obj.keys() != _KEYS:
        return None
    im_delta = obj["im_delta"]
    if obj["n"] != f.n or obj["f"] != f.canonical() or type(im_delta) is not list:
        return None
    return tuple(im_delta) if all(type(v) is int for v in im_delta) else None


def store_reach(reach: DeltaReach, directory: str | Path | None = None) -> Path:
    """Write the entry for reach.f, Im(df) alone, over whatever is there;
    returns the path.  Racing writers write the same entry, and the last
    rename wins."""
    path = cache_path(reach.f, directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"n": reach.f.n, "f": reach.f.canonical(), "im_delta": list(reach.im_delta)}
    tmp = path.with_name(f"{path.stem}.{os.urandom(6).hex()}.tmp")
    try:
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path

