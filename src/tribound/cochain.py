"""The coboundary of a weight function f and its levels.

f is a ``CochainFn`` (see ``poly``, which parses and tabulates it; the
class is bound here too).  The coboundary of f is the six-term
alternating sum

    (df)(x,y,z,w) = f(x,z,w) - f(x,y,w) + f(x,y,z)
                    - f(x*y,z,w) + f(x*z,y*z,w) - f(x*w,y*w,z*w)

with x*y = 2y - x (mod n).  Read term by term it is linear in f:
(df)(t) = <f, g(t)>, where ``coboundary_vector`` gives g(t), the signed
count of each triple among the six terms, as ``invariant.weight_vector``
gives W as a vector.  A type-III move adds +/- g(t) to that vector.
Im(df) generates the level sets Delta_0 = {0},
Delta_m = Delta_{m-1} + (+/- Im df), which bound how much the weight
invariant can move (one summand per move).
"""

from __future__ import annotations

import bisect
import itertools
from typing import Iterable, NamedTuple

from .diagram import ResourceCapExceeded
from .poly import CochainFn

__all__ = [
    "ResourceCapExceeded",
    "CochainFn",
    "coboundary_vector",
    "delta_f",
    "check_image_cap",
    "image_delta",
    "DeltaReach",
    "delta_reach",
    "sumset",
    "sumset_size",
    "DEFAULT_LEVEL_CAP",
    "MAX_IMAGE_TUPLES",
]

# image_delta walks all n^4 tuples (x, y, z, w); past this many it raises
# ResourceCapExceeded before the walk.  The walk takes about 1.0 s at
# n = 40, and over a minute at poly.MAX_MODULUS = 100 (CPython 3.11, one
# core of a 2-vCPU VM).
MAX_IMAGE_TUPLES = 40**4


def check_image_cap(n: int) -> None:
    """Raise the image cap's ResourceCapExceeded when the walk for Im(df)
    at modulus n would pass ``MAX_IMAGE_TUPLES`` tuples.  A modulus
    below 1 is left to ``CochainFn.build``, which refuses it."""
    if n > 0 and n**4 > MAX_IMAGE_TUPLES:
        raise ResourceCapExceeded(
            f"modulus {n} past the cap {MAX_IMAGE_TUPLES} on the n^4 = {n**4} "
            "tuples of the walk for Im(df)"
        )


def coboundary_vector(
    n: int, x: int, y: int, z: int, w: int
) -> dict[tuple[int, int, int], int]:
    """g(t) at t = (x, y, z, w): the signed count of each triple among
    the six terms of (df)(t), so that (df)(t) = <f, g(t)> for every f.
    As in ``weight_vector``, triples (p, q, q), where every f is 0, and
    zero counts are left out."""
    # the dihedral star p * q = 2q - p (mod n), as coloring.quandle_star
    xy, xz, yz = (2 * y - x) % n, (2 * z - x) % n, (2 * z - y) % n
    xw, yw, zw = (2 * w - x) % n, (2 * w - y) % n, (2 * w - z) % n
    vec: dict[tuple[int, int, int], int] = {}
    for sign, key in (
        (1, (x, z, w)), (-1, (x, y, w)), (1, (x, y, z)),
        (-1, (xy, z, w)), (1, (xz, yz, w)), (-1, (xw, yw, zw)),
    ):
        vec[key] = vec.get(key, 0) + sign
    return {(p, q, r): k for (p, q, r), k in vec.items() if q != r and k}


def delta_f(f: CochainFn, x: int, y: int, z: int, w: int) -> int:
    """The six-term coboundary value at (x, y, z, w): f's table read
    through ``coboundary_vector``."""
    t = f.table
    return sum(
        k * t[p][q][r] for (p, q, r), k in coboundary_vector(f.n, x, y, z, w).items()
    )


def image_delta(f: CochainFn) -> tuple[int, ...]:
    """Sorted set of all coboundary values over Z(n)^4; always contains 0.

    Equal to the set of ``delta_f`` over every tuple, read from a
    precomputed star table: for each (x, y, z) the four w-indexed rows
    t[x][z], t[x][y], t[x*y][z] and t[x*z][y*z] are fixed, and only the
    last term t[x*w][y*w][z*w] is looked up per w.  Raises
    ResourceCapExceeded before the walk when n^4 passes
    ``MAX_IMAGE_TUPLES``.
    """
    n = f.n
    check_image_cap(n)
    t = f.table
    star = [[(2 * y - x) % n for y in range(n)] for x in range(n)]  # x * y
    values: set[int] = set()
    for x in range(n):
        tx, sx = t[x], star[x]
        for y in range(n):
            txy, sy, t_xy = tx[y], star[y], t[sx[y]]
            # t[x*w][y*w], indexed by w
            last = [t[p][q] for p, q in zip(sx, sy)]
            for z in range(n):
                c = txy[z]
                values.update(
                    a - b + c - d + e - r[s]
                    for a, b, d, e, r, s in zip(
                        tx[z], txy, t_xy[z], t[sx[z]][sy[z]], last, star[z]
                    )
                )
    return tuple(sorted(values))


# No Delta level, built or only counted, may hold more values than this:
# sumset, sumset_size and delta_reach read it when they run, and raise
# ResourceCapExceeded past it.
DEFAULT_LEVEL_CAP = 10**7
# sumset takes the bitmask kernel when the span of the sum is at most this
# many times |a|; a sparser sum goes to the range walk.
DENSE_FACTOR = 1024
# bytes of the mask turned into a bit string at a time when reading it back,
# and the translation of that string's "0" and "1" into bytes 0 and 1
_READ_CHUNK = 1 << 16
_BITS = bytes.maketrans(b"01", b"\x00\x01")
# The range walk, which builds a sparse sum for sumset and counts one for
# sumset_size, takes one value range at a time; a range holds at most
# max(PAIR_BUDGET, PAIRS_PER_VALUE * |a|) pairs p + q unless it is one
# value wide.  Each range costs a pass over a, so scaling the budget with
# |a| keeps that pass small against the pairs.  The range's set of
# distinct sums is the count's working set: near the ends of a sum it
# holds about one value per pair.
PAIR_BUDGET = 1 << 12
PAIRS_PER_VALUE = 8
# The memory cap: ResourceCapExceeded once values held, times
# SET_BYTES_PER_VALUE, pass SET_BYTES_CAP, that is past 1 171 875 values.
# A sparse build raises once the values it will return pass it, a dense
# build once its mask's count does, before the read-back, and delta_reach
# once the levels it keeps, Delta_0 up to the one just built, sum past
# it.  The walk's built value costs about 54 bytes of peak RSS (its int,
# its tuple slot, and a slot in the negative half or the mirror list),
# and delta_reach keeps every level: the delta command that builds a
# 959 213-value level peaks at 61 MB, cold or warm, about 49 bytes a
# value over the interpreter's 14 MB (64-bit CPython 3.11).  The last
# build can take the levels held past the cap before the sum is checked,
# by at most one level within it, so up to twice the cap; 128 a value
# keeps even that below 150 MB.
SET_BYTES_CAP = 150 * 10**6
SET_BYTES_PER_VALUE = 128


def _past_cap() -> ResourceCapExceeded:
    return ResourceCapExceeded(
        f"sumset grew past the cardinality cap {DEFAULT_LEVEL_CAP}"
    )


def _check_memory(count: int) -> None:
    """Raise the memory cap's ResourceCapExceeded once ``count`` values
    pass it."""
    if count * SET_BYTES_PER_VALUE > SET_BYTES_CAP:
        raise ResourceCapExceeded(
            f"Delta levels grew past {SET_BYTES_CAP // SET_BYTES_PER_VALUE} "
            f"values, about {SET_BYTES_CAP // 10**6} MB (memory cap)"
        )


def _is_dense(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    width = max(a) - min(a) + max(b) - min(b) + 1
    return width <= DENSE_FACTOR * len(a)


def _is_symmetric(values: list[int]) -> bool:
    """True iff sorted distinct ``values`` equal their negation."""
    return all(p == -q for p, q in zip(values, reversed(values)))


def _dense_mask(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, int]:
    """The bitmask kernel's mask and its count of set bits: bit k of the
    mask stands for min(a) + min(b) + k, and each q in b ORs in the mask
    of a shifted by q - min(b).  Each width/8-byte buffer is dropped once
    it is spent, so at most four are alive at a time."""
    lo_a, lo_b = min(a), min(b)
    buf = bytearray((max(a) - lo_a) // 8 + 1)
    for p in a:
        k = p - lo_a
        buf[k >> 3] |= 1 << (k & 7)
    mask = int.from_bytes(buf, "little")
    del buf
    out = 0
    for i, q in enumerate(set(b), 1):
        out |= mask << (q - lo_b)
        # the count only grows: test the cap after ORs 1, 2, 4, 8, ...
        if i & (i - 1) == 0 and out.bit_count() > DEFAULT_LEVEL_CAP:
            raise _past_cap()
    del mask
    count = out.bit_count()
    if count > DEFAULT_LEVEL_CAP:
        raise _past_cap()
    return out, count


def _sumset_dense(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The values of the bitmask kernel's mask, read back in chunks once
    their count is within the memory cap."""
    lo = min(a) + min(b)
    out, count = _dense_mask(a, b)
    _check_memory(count)
    raw = out.to_bytes((out.bit_length() + 7) // 8, "little")
    del out
    values: list[int] = []
    for i in range(0, len(raw), _READ_CHUNK):
        # bit string least significant bit first: character j is bit j
        bits = bin(int.from_bytes(raw[i:i + _READ_CHUNK], "little"))[:1:-1]
        start = lo + 8 * i
        values.extend(
            itertools.compress(
                range(start, start + len(bits)), bits.encode().translate(_BITS)
            )
        )
    return tuple(values)


def _walk(a: tuple[int, ...], b: tuple[int, ...], out: list[int] | None = None) -> int:
    """|a + b|, walked one value range [lo, hi) at a time; with ``out``,
    each range's sorted values are appended to it too.

    For each p of a, the q of b with lo <= p + q < hi are a slice of
    sorted b that starts where the last range's slice ended.  Each range
    is sized from the last one's pair density and halved while it holds
    more than the pair budget, so the set of distinct sums in hand never
    passes the budget.

    The walk reads two properties off its operands, as every Delta level
    has them.  If a and b are both symmetric (a = -a), so is their sum:
    only its negative values are walked, and counted twice, plus one for
    0, which is a sum exactly when a and b share a value; ``out`` then
    gets the negative half alone.  If a and b are equal, p + q = q + p:
    row p of the walk starts at q = p.  The count raises past
    ``DEFAULT_LEVEL_CAP``, and with ``out`` also past the memory cap.
    """
    if not a or not b:
        return 0
    a, b = sorted(set(a)), sorted(set(b))
    lo, top = a[0] + b[0], a[-1] + b[-1]
    scale, count, width = 1, 0, 1
    if _is_symmetric(a) and _is_symmetric(b):
        # the walk runs up from the sparse edge of the sum, so a cap trips
        # before the dense middle is reached
        scale, count, top = 2, int(not set(a).isdisjoint(b)), -1
    budget = max(PAIR_BUDGET, PAIRS_PER_VALUE * len(a))
    # row i of the walk starts at the first q of b, or at q = p if a == b
    starts = list(range(len(a))) if a == b else [0] * len(a)
    while lo <= top:
        hi = min(lo + width, top + 1)
        # only p with p + b[-1] >= lo and p + b[0] < hi have pairs in range
        first = bisect.bisect_left(a, lo - b[-1])
        last = bisect.bisect_left(a, hi - b[0])
        ps, js = a[first:last], starts[first:last]
        ends = [bisect.bisect_left(b, hi - p, j) for p, j in zip(ps, js)]
        pairs = sum(ends) - sum(js)
        if pairs > budget and width > 1:
            width = max(1, width * budget // (2 * pairs))
            continue
        sums = {p + q for p, j, e in zip(ps, js, ends) for q in b[j:e]}
        count += scale * len(sums)
        if count > DEFAULT_LEVEL_CAP:
            raise _past_cap()
        if out is not None:
            _check_memory(count)
            out.extend(sorted(sums))
        del sums  # the next range's set is built without this one alive
        starts[first:last] = ends
        lo = hi
        # aim the next range at 3/4 of the budget, growing it at most 4-fold
        aim = 3 * width * budget // (4 * pairs) if pairs else 2 * width
        width = max(1, min(4 * width, aim))
    return count


def sumset(a: Iterable[int], b: Iterable[int]) -> tuple[int, ...]:
    """Sorted {p + q : p in a, q in b}, aborting past ``DEFAULT_LEVEL_CAP``
    elements.

    A dense sum, whose span max(a) - min(a) + max(b) - min(b) + 1 is at
    most ``DENSE_FACTOR * |a|``, is built as a bitmask on a Python int
    with one shift and OR per value of b; any other sum by ``_walk``, the
    range walk that ``sumset_size`` counts with.  Both kernels give the
    same tuple and raise the same ResourceCapExceeded, and both raise the
    memory cap's once the values they will return pass
    ``SET_BYTES_CAP // SET_BYTES_PER_VALUE``: the walk as it goes, the
    bitmask before it reads the mask back.
    """
    a, b = tuple(a), tuple(b)
    if a and b and _is_dense(a, b):
        return _sumset_dense(a, b)
    half: list[int] = []
    count = _walk(a, b, half)
    # for two symmetric operands the walk lists the negative half alone but
    # counts its mirror image too, and 0 if 0 is a sum
    mirror = [-v for v in reversed(half)] if count > len(half) else []
    return tuple(itertools.chain(half, [0] * (count - len(half) - len(mirror)), mirror))


def sumset_size(a: Iterable[int], b: Iterable[int]) -> int:
    """``len(sumset(a, b))``, raising the same ResourceCapExceeded past
    ``DEFAULT_LEVEL_CAP``, without holding the sum.

    A dense sum is the bitmask kernel's mask, whose bits
    ``int.bit_count`` counts; a sparse sum is counted by ``sumset``'s
    range walk, which holds at most one range's sums at a time.
    """
    a, b = tuple(a), tuple(b)
    if a and b and _is_dense(a, b):
        return _dense_mask(a, b)[1]
    return _walk(a, b)


class DeltaReach(NamedTuple):
    """Im(df) and the levels Delta_0..Delta_L, each a sorted tuple."""

    f: CochainFn
    im_delta: tuple[int, ...]
    levels: tuple[tuple[int, ...], ...]


def delta_reach(
    f: CochainFn, max_m: int, im_delta: tuple[int, ...] | None = None
) -> DeltaReach:
    """Delta_0 = {0}; Delta_m = Delta_{m-1} + (+/- Im df), each sorted.

    Im(df) is ``im_delta`` when given, as the cache gives it, and walked
    by ``image_delta`` otherwise; the levels are built from it either
    way.  Since 0 is always in Im(df), the levels are nested increasing.
    A level exceeding ``DEFAULT_LEVEL_CAP`` elements raises
    ResourceCapExceeded: the levels feed the move-count certificates, so
    truncation is never acceptable.  So do the levels held, Delta_0 up to
    the one just built, once their sizes sum past the memory cap
    (``SET_BYTES_CAP // SET_BYTES_PER_VALUE`` values).
    """
    if max_m < 0:
        raise ValueError(f"max_m must be >= 0, got {max_m}")
    im = image_delta(f) if im_delta is None else im_delta
    pm_im = tuple(sorted({v for k in im for v in (k, -k)}))
    levels = [(0,)]
    if max_m >= 1:
        # Delta_1 = {0} + (+/- Im df) is +/- Im df itself
        if len(pm_im) > DEFAULT_LEVEL_CAP:
            raise _past_cap()
        levels.append(pm_im)
        _check_memory(1 + len(pm_im))
    while len(levels) <= max_m:
        levels.append(sumset(levels[-1], pm_im))
        _check_memory(sum(map(len, levels)))
    return DeltaReach(f=f, im_delta=im, levels=tuple(levels))

