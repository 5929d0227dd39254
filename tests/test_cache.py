from __future__ import annotations

import json
import multiprocessing
import re
import threading
import time

import pytest

from tribound import cochain
from tribound.cache import (
    cache_path,
    default_cache_dir,
    load_reach,
    store_reach,
)
from tribound.cli import main
from tribound.cochain import delta_reach
from tribound.poly import CochainFn


def test_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_dir() == tmp_path / "xdg" / "tribound"
    monkeypatch.delenv("XDG_CACHE_HOME")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    assert default_cache_dir() == tmp_path / "home" / ".cache" / "tribound"


def test_cache_path_takes_the_option_string(monkeypatch, tmp_path, f3):
    # --cache arrives as a string, or None when not given
    assert cache_path(f3, str(tmp_path)) == cache_path(f3, tmp_path)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert cache_path(f3).parent == cache_path(f3, None).parent == default_cache_dir()


def test_store_load_round_trip(tmp_path, f3):
    reach = delta_reach(f3, 2)
    path = store_reach(reach, tmp_path)
    assert path == cache_path(f3, tmp_path)
    assert load_reach(f3, tmp_path) == reach.im_delta
    payload = json.loads(path.read_text())
    assert payload == {"n": 3, "f": f3.canonical(), "im_delta": list(reach.im_delta)}
    assert len(payload["im_delta"]) == 13
    # the levels a reach holds are not stored: any depth writes one entry
    store_reach(delta_reach(f3, 0), tmp_path)
    assert json.loads(path.read_text()) == payload


def test_entry_names_are_pinned(tmp_path, f3, f4, f5):
    # the names every earlier version wrote, so that a cache it filled
    # still answers
    names = ["delta_3_13d4eac24b84.json", "delta_4_771d316e4633.json",
             "delta_5_aacd3cbdde8f.json"]
    assert [cache_path(f, tmp_path).name for f in (f3, f4, f5)] == names
    im_delta = delta_reach(f3, 0).im_delta
    (tmp_path / names[0]).write_text(json.dumps({
        "n": 3, "f": f3.canonical(), "im_delta": list(im_delta),
    }))
    assert load_reach(f3, tmp_path) == im_delta


def test_load_rejects_stale_content(tmp_path, f3, f4):
    path = store_reach(delta_reach(f3, 1), tmp_path)
    assert load_reach(f4, tmp_path) is None  # different function, no entry
    # an entry at f4's own path that names f3 is a miss too
    cache_path(f4, tmp_path).write_text(path.read_text())
    assert load_reach(f4, tmp_path) is None
    path.write_text("{broken")
    assert load_reach(f3, tmp_path) is None


def test_leftover_lock_and_tmp_files_are_ignored(tmp_path, f3):
    # what a writer killed mid-store may leave beside the entry
    path = cache_path(f3, tmp_path)
    path.with_suffix(".lock").touch()
    path.with_suffix(".tmp").write_text('{"n": 3, "f": "trun')
    reach = delta_reach(f3, 2)
    start = time.perf_counter()
    assert store_reach(reach, tmp_path) == path
    assert time.perf_counter() - start < 1.0
    assert load_reach(f3, tmp_path) == reach.im_delta


def test_concurrent_writers(tmp_path, f3):
    reach = delta_reach(f3, 2)
    errors: list[BaseException] = []

    def write():
        try:
            for _ in range(5):
                store_reach(reach, tmp_path)
        except BaseException as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=write) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert load_reach(f3, tmp_path) == reach.im_delta


def _store_then_load(f, directory, depth, rounds):
    """Clear f's entry, store a reach of f up to depth and read the entry
    back, rounds times; returns the reads that were torn, or that gave
    anything but Im(df)."""
    reach = delta_reach(f, depth)
    path = cache_path(f, directory)
    bad = []
    for _ in range(rounds):
        path.unlink(missing_ok=True)
        store_reach(reach, directory)
        try:
            json.loads(path.read_text())
        except FileNotFoundError:  # cleared again by another writer
            pass
        except ValueError as exc:
            bad.append(repr(exc))
        got = load_reach(f, directory)
        if got is not None and got != reach.im_delta:
            bad.append(got)
    return bad


def test_concurrent_writer_processes(tmp_path, f3):
    jobs = [(f3, tmp_path, depth, 200) for depth in (1, 1, 2, 2)]
    with multiprocessing.Pool(len(jobs)) as pool:
        results = pool.starmap(_store_then_load, jobs)
    assert results == [[]] * len(jobs)
    store_reach(delta_reach(f3, 2), tmp_path)
    assert load_reach(f3, tmp_path) == delta_reach(f3, 0).im_delta


def _delta(capsys, directory, max_m, f="(x-y)*(y-z)*z", n=3):
    """Exit code and --json report of ``delta`` on the cache in directory,
    which loads f's Im(df), builds the levels and stores on a miss."""
    code = main(["delta", "-n", str(n), "-f", f, "--max-m", str(max_m),
                 "--cache", str(directory), "--json"])
    return code, json.loads(capsys.readouterr().out)


def test_one_entry_serves_every_level(capsys, tmp_path, f3):
    # one entry, written by the first run, serves every level after it
    code, report = _delta(capsys, tmp_path, 1)
    assert code == 0 and report["cache"] == {"hits": 0, "misses": 1}
    entry = cache_path(f3, tmp_path).read_bytes()
    for level in (0, 1, 2, 3, 1):
        code, warm = _delta(capsys, tmp_path, level)
        assert code == 0 and warm["cache"] == {"hits": 1, "misses": 0}
        _, cold = _delta(capsys, tmp_path / f"cold{level}", level)
        assert warm["results"]["levels"] == cold["results"]["levels"]
        assert len(warm["results"]["levels"]) == level + 1
    assert cache_path(f3, tmp_path).read_bytes() == entry


@pytest.mark.parametrize("level", range(4))
@pytest.mark.parametrize("n", (3, 4, 5))
@pytest.mark.parametrize("f", ("(x-y)*(y-z)*z", "(x+y)*(y-z)^3", "(y-z)*x*y*z"))
def test_cached_reach_cold_then_warm_is_delta_reach(capsys, tmp_path, f, n, level):
    # the reach that delta serves from an empty cache, then from the entry
    # that the first run wrote, is delta_reach's
    fn = CochainFn.build(f, n)
    want = delta_reach(fn, level)
    reports = [_delta(capsys, tmp_path, level, f, n) for _ in range(2)]
    assert [code for code, _ in reports] == [0, 0]
    assert [r["cache"]["hits"] for _, r in reports] == [0, 1]
    assert reports[0][1]["results"] == reports[1][1]["results"]
    assert reports[0][1]["results"]["im_size"] == len(want.im_delta)
    assert [lv["size"] for lv in reports[1][1]["results"]["levels"]] == [
        len(lv) for lv in want.levels
    ]
    # the entry serves the library recipe as well: load, then build
    assert delta_reach(fn, level, load_reach(fn, tmp_path)) == want
    entry = json.loads(cache_path(fn, tmp_path).read_text())
    assert set(entry) == {"n", "f", "im_delta"}


def test_warm_runs_meet_every_cap_as_cold_ones(capsys, tmp_path, f3, monkeypatch):
    # |Delta_2| = 39; the warm directory holds f3's entry, and the cold
    # one stays empty, as nothing is stored when the build fails
    warm, cold = tmp_path / "warm", tmp_path / "cold"
    assert _delta(capsys, warm, 0)[0] == 0
    with pytest.raises(ValueError, match=r"^max_m must be >= 0, got -1$"):
        delta_reach(f3, -1, load_reach(f3, warm))

    def refused(max_m, error):
        for directory in (warm, cold):
            code, report = _delta(capsys, directory, max_m)
            assert code == 4 and re.search(error, report["results"]["error"])
        assert not cold.exists()

    def served(max_m):
        code, report = _delta(capsys, warm, max_m)
        assert code == 0 and report["cache"] == {"hits": 1, "misses": 0}

    monkeypatch.setattr(cochain, "DEFAULT_LEVEL_CAP", 38)
    refused(2, "past the cardinality cap 38")
    monkeypatch.setattr(cochain, "DEFAULT_LEVEL_CAP", 39)
    served(2)
    # the levels built, 1 + 15 + 39 = 55 values, are held to the memory
    # cap warm as cold
    per = cochain.SET_BYTES_PER_VALUE
    monkeypatch.setattr(cochain, "SET_BYTES_CAP", 54 * per)
    refused(2, "past 54 values.*memory cap")
    served(1)  # 16 values
    monkeypatch.setattr(cochain, "SET_BYTES_CAP", 55 * per)
    served(2)
    # and an entry for a modulus past the cap on Im(df)'s walk is not served
    monkeypatch.setattr(cochain, "MAX_IMAGE_TUPLES", 80)
    refused(2, "past the cap 80")


def test_store_raises_when_the_directory_cannot_be_made(tmp_path, f3):
    blocker = tmp_path / "file"
    blocker.write_text("")
    with pytest.raises(NotADirectoryError):
        store_reach(delta_reach(f3, 1), blocker / "c")
    assert load_reach(f3, blocker / "c") is None
