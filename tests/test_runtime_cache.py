"""Content-addressed result cache: keying, tiers, accounting."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.analog.engine import TransientOptions
from repro.core.sensing import SensorSizing
from repro.devices.process import nominal_process
from repro.runtime import (
    JobResult,
    ResultCache,
    SensorJob,
    engine_fingerprint,
    stable_key,
)
from repro.runtime.cache import default_cache_dir
from repro.units import fF, ns

FAST = TransientOptions(dt_max=200e-12, reltol=5e-3)


def make_job(**overrides) -> SensorJob:
    kwargs = dict(skew=ns(0.3), load1=fF(160), load2=fF(160), options=FAST)
    kwargs.update(overrides)
    return SensorJob(**kwargs)


# --------------------------------------------------------------------- #
# Key stability
# --------------------------------------------------------------------- #

def test_key_is_deterministic_within_process():
    assert make_job().key() == make_job().key()


def test_key_stable_across_processes():
    """The content key must not depend on PYTHONHASHSEED or process state."""
    job = make_job()
    script = (
        "from repro.runtime import SensorJob\n"
        "from repro.analog.engine import TransientOptions\n"
        "from repro.units import fF, ns\n"
        "job = SensorJob(skew=ns(0.3), load1=fF(160), load2=fF(160),\n"
        "                options=TransientOptions(dt_max=200e-12, reltol=5e-3))\n"
        "print(job.key())\n"
    )
    env = dict(os.environ, PYTHONHASHSEED="12345")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", script], env=env,
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == job.key()


def test_key_changes_with_every_input():
    base = make_job().key()
    assert make_job(skew=ns(0.31)).key() != base
    assert make_job(load1=fF(161)).key() != base
    assert make_job(slew2=ns(0.25)).key() != base
    assert make_job(full_swing=True).key() != base
    assert make_job(sizing=SensorSizing(w_n=2e-6)).key() != base
    assert make_job(options=TransientOptions(dt_max=100e-12)).key() != base


def test_key_resolves_default_process_and_options():
    """None defaults and their explicit values address the same entry."""
    implicit = SensorJob(skew=ns(0.2))
    explicit = SensorJob(
        skew=ns(0.2), process=nominal_process(), options=TransientOptions()
    )
    assert implicit.key() == explicit.key()


def test_stable_key_rejects_unhashable_junk():
    with pytest.raises(TypeError):
        stable_key(object())


def test_engine_fingerprint_folds_into_keys(monkeypatch):
    """A physics-code change (new fingerprint) must shift the namespace."""
    cache_a = ResultCache(disk_dir=None, version="aaaa")
    cache_b = ResultCache(disk_dir=None, version="bbbb")
    assert cache_a.version != cache_b.version
    assert len(engine_fingerprint()) == 16


# --------------------------------------------------------------------- #
# Disk tier
# --------------------------------------------------------------------- #

def test_disk_cache_round_trip(tmp_path):
    payload = JobResult(
        skew=ns(0.3), vmin_y1=0.1234567891011121, vmin_y2=4.000000000000123,
        code=(0, 1), steps=321,
    ).to_payload()
    writer = ResultCache(disk_dir=tmp_path)
    writer.put("k" * 64, payload)

    reader = ResultCache(disk_dir=tmp_path, version=writer.version)
    value = reader.get("k" * 64)
    assert value == payload
    assert reader.stats.hits_disk == 1
    # Bit-exact float round trip through JSON.
    result = JobResult.from_payload(value, cached=True)
    assert result.vmin_y1 == 0.1234567891011121
    assert result.vmin_y2 == 4.000000000000123
    assert result.code == (0, 1)
    assert result.cached


def test_disk_entries_live_under_versioned_dir(tmp_path):
    cache = ResultCache(disk_dir=tmp_path, version="deadbeef")
    cache.put("a" * 64, {"x": 1})
    files = list((tmp_path / "vdeadbeef").glob("*.json"))
    assert len(files) == 1
    assert json.loads(files[0].read_text()) == {"x": 1}
    # A version bump leaves old entries behind and starts fresh.
    bumped = ResultCache(disk_dir=tmp_path, version="cafebabe")
    assert bumped.get("a" * 64) is None


def test_clear_removes_disk_entries(tmp_path):
    cache = ResultCache(disk_dir=tmp_path)
    for i in range(3):
        cache.put(f"{i:064d}", {"i": i})
    assert cache.disk_entries() == 3
    assert cache.clear() == 3
    assert cache.disk_entries() == 0
    assert len(cache) == 0


def test_memory_lru_eviction():
    cache = ResultCache(max_memory_entries=2, disk_dir=None)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("c", 3)
    assert len(cache) == 2
    assert cache.stats.evictions == 1
    assert cache.get("a") is None  # evicted, no disk tier
    assert cache.get("c") == 3


def test_corrupt_disk_entry_is_a_miss(tmp_path):
    cache = ResultCache(disk_dir=tmp_path)
    cache.put("a" * 64, {"x": 1})
    path = cache.disk_dir / ("a" * 64 + ".json")
    path.write_text("{not json")
    fresh = ResultCache(disk_dir=tmp_path, version=cache.version)
    assert fresh.get("a" * 64) is None
    assert fresh.stats.misses == 1


# --------------------------------------------------------------------- #
# Environment knobs
# --------------------------------------------------------------------- #

def test_env_dir_override(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
    monkeypatch.delenv("REPRO_CACHE_DISABLE", raising=False)
    assert default_cache_dir() == tmp_path / "custom"
    cache = ResultCache()  # disk_dir="auto"
    assert cache.disk_enabled
    assert str(cache.disk_dir).startswith(str(tmp_path / "custom"))


def test_env_disable_wins(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
    assert default_cache_dir() is None
    cache = ResultCache()
    assert not cache.disk_enabled
    cache.put("a", 1)  # must not raise, memory tier still works
    assert cache.get("a") == 1


# --------------------------------------------------------------------- #
# Hit/miss accounting
# --------------------------------------------------------------------- #

def test_stats_accounting(tmp_path):
    cache = ResultCache(disk_dir=tmp_path)
    assert cache.get("missing") is None
    cache.put("k", {"v": 1})
    assert cache.get("k") == {"v": 1}
    stats = cache.stats.as_dict()
    assert stats["misses"] == 1
    assert stats["hits_memory"] == 1
    assert stats["puts"] == 1
    assert stats["hits"] == 1


# --------------------------------------------------------------------- #
# Disk-tier size accounting and LRU eviction
# --------------------------------------------------------------------- #

def test_parse_size_suffixes():
    from repro.runtime import parse_size

    assert parse_size("1024") == 1024
    assert parse_size("4k") == 4096
    assert parse_size("64m") == 64 * 1024 ** 2
    assert parse_size("1g") == 1024 ** 3
    assert parse_size("2kb") == 2048
    assert parse_size("1.5k") == 1536
    with pytest.raises(ValueError):
        parse_size("")
    with pytest.raises(ValueError):
        parse_size("lots")
    # A budget is a byte count: never negative, never unbounded.
    for bad in ("-1", "-2k", "nan", "inf"):
        with pytest.raises(ValueError):
            parse_size(bad)


def test_default_max_disk_bytes_env(monkeypatch):
    from repro.runtime import default_max_disk_bytes

    monkeypatch.delenv("REPRO_CACHE_MAX_BYTES", raising=False)
    assert default_max_disk_bytes() is None
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "8k")
    assert default_max_disk_bytes() == 8192
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "nonsense")
    with pytest.raises(ValueError):
        default_max_disk_bytes()


def test_disk_total_bytes_tracks_puts(tmp_path):
    cache = ResultCache(disk_dir=tmp_path, max_disk_bytes=None)
    assert cache.disk_total_bytes() == 0
    cache.put("a" * 64, {"x": 1})
    one = cache.disk_total_bytes()
    assert one > 0
    cache.put("b" * 64, {"x": 2})
    assert cache.disk_total_bytes() > one
    # Overwriting an entry must not double-count its bytes.
    cache.put("a" * 64, {"x": 1})
    fresh = ResultCache(disk_dir=tmp_path, version=cache.version)
    assert cache.disk_total_bytes() == fresh.disk_total_bytes()


def test_lru_eviction_on_budget(tmp_path):
    cache = ResultCache(disk_dir=tmp_path, max_disk_bytes=None)
    for index in range(8):
        cache.put(f"{index:064d}", {"payload": "x" * 64})
    per_entry = cache.disk_total_bytes() // 8
    # Age the entries oldest-first, then touch entry 0 to make it hot.
    for index in range(8):
        path = cache.disk_dir / (f"{index:064d}" + ".json")
        os.utime(path, (1000 + index, 1000 + index))
    budgeted = ResultCache(
        disk_dir=tmp_path, version=cache.version,
        max_disk_bytes=per_entry * 4,
    )
    assert budgeted.get(f"{0:064d}") is not None  # refreshes mtime
    removed = budgeted.prune()
    assert removed >= 4
    assert budgeted.disk_total_bytes() <= per_entry * 4
    # The freshly touched entry survived; the oldest untouched ones went.
    assert (budgeted.disk_dir / (f"{0:064d}" + ".json")).exists()
    assert not (budgeted.disk_dir / (f"{1:064d}" + ".json")).exists()
    stats = budgeted.stats.as_dict()
    assert stats["evictions_disk"] == removed
    assert stats["evicted_bytes"] > 0


def test_put_enforces_budget_and_protects_fresh_entry(tmp_path):
    cache = ResultCache(disk_dir=tmp_path, max_disk_bytes=1)
    cache.put("a" * 64, {"x": 1})
    # The budget (1 byte) is absurdly small, but the just-written entry
    # is protected from evicting itself.
    assert (cache.disk_dir / ("a" * 64 + ".json")).exists()
    cache.put("b" * 64, {"x": 2})
    # Writing b evicted a (LRU) while protecting b.
    assert (cache.disk_dir / ("b" * 64 + ".json")).exists()
    assert not (cache.disk_dir / ("a" * 64 + ".json")).exists()


def test_prune_spans_stale_version_namespaces(tmp_path):
    stale = ResultCache(disk_dir=tmp_path, version="old")
    stale.put("a" * 64, {"x": 1})
    os.utime(stale.disk_dir / ("a" * 64 + ".json"), (1000, 1000))
    live = ResultCache(disk_dir=tmp_path, version="new")
    live.put("b" * 64, {"x": 2})
    removed = live.prune(max_bytes=live.disk_total_bytes() // 2)
    assert removed == 1
    # The stale namespace's (older) entry went first.
    assert not (stale.disk_dir / ("a" * 64 + ".json")).exists()
    assert (live.disk_dir / ("b" * 64 + ".json")).exists()


def test_prune_evicts_only_the_result_tier(fresh_cache):
    from repro.runtime import get_cache, get_checkpoint_cache

    # The default root also holds the service's campaign files and the
    # checkpoint tier; a result-tier budget must leave both alone.
    service_file = fresh_cache / "service" / "campaigns" / "c1" / "result.json"
    service_file.parent.mkdir(parents=True)
    service_file.write_text('{"kind": "synthetic"}')
    checkpoints = get_checkpoint_cache()
    checkpoints.put("c" * 64, {"t": 1.0})
    results = get_cache()
    results.put("r" * 64, {"x": 1})
    results.prune(max_bytes=0)
    assert service_file.exists()
    assert checkpoints.on_disk("c" * 64)
    assert not results.on_disk("r" * 64)
    assert results.disk_total_bytes() == 0


# --------------------------------------------------------------------- #
# Tenant namespaces
# --------------------------------------------------------------------- #

def test_tenant_salt_separates_disk_namespaces(tmp_path):
    from repro.runtime import tenant_cache

    alice = ResultCache(disk_dir=tmp_path, salt="alice")
    bob = ResultCache(disk_dir=tmp_path, salt="bob")
    assert alice.disk_dir != bob.disk_dir
    alice.put("k" * 64, {"who": "alice"})
    assert bob.get("k" * 64) is None
    # Same key, same payload addressing: the salt changes only where the
    # entry lives, never the key.
    assert alice.get("k" * 64) == {"who": "alice"}


def test_default_tenant_is_the_process_cache(fresh_cache):
    from repro.runtime import get_cache, tenant_cache

    assert tenant_cache("") is get_cache()
    named = tenant_cache("acme")
    assert named is not get_cache()
    assert named.salt == "acme"
