"""Unit tests for the persistent on-disk result cache."""

import os
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

from repro.analysis import diskcache
from repro.analysis.diskcache import (
    SCHEMA_VERSION,
    ResultCache,
    content_key,
)
from repro.arch import baseline
from repro.core import flags
from repro.sim.engine import EngineParams
from repro.sim.stats import KernelStats, RunStats


def sample_stats():
    stats = RunStats(benchmark="b", organization="memory-side",
                     cycles=123.0, accesses=100, llc_hits=40,
                     llc_lookups=100)
    stats.merge_kernel(KernelStats(name="k", cycles=10.0, accesses=10))
    return stats


class TestContentKey:
    def test_key_is_stable_across_equal_values(self):
        a = content_key(config=baseline(), scale=1 / 16,
                        params=EngineParams())
        b = content_key(config=baseline(), scale=1 / 16,
                        params=EngineParams())
        assert a == b

    def test_key_changes_with_any_field(self):
        base = content_key(config=baseline(), scale=1 / 16,
                           params=EngineParams())
        assert content_key(config=baseline(), scale=1 / 8,
                           params=EngineParams()) != base
        assert content_key(config=baseline(), scale=1 / 16,
                           params=EngineParams(batched=False)) != base

    def test_float_encoding_distinguishes_close_values(self):
        assert content_key(x=0.1) != content_key(x=0.1 + 1e-12)


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = content_key(x=1)
        assert cache.load(key) is None
        cache.store(key, sample_stats())
        loaded = cache.load(key)
        assert loaded is not None
        assert loaded.comparable_dict() == sample_stats().comparable_dict()
        assert cache.hits == 1 and cache.misses == 1 and cache.stores == 1

    def test_persists_across_instances(self, tmp_path):
        key = content_key(x=2)
        ResultCache(tmp_path).store(key, sample_stats())
        assert ResultCache(tmp_path).load(key) is not None

    def test_stale_schema_versions_are_evicted(self, tmp_path):
        old = tmp_path / f"v{SCHEMA_VERSION - 1}"
        old.mkdir(parents=True)
        (old / "stale.pkl").write_bytes(b"junk")
        cache = ResultCache(tmp_path)
        cache.store(content_key(x=3), sample_stats())
        assert not old.exists()
        assert cache.version_dir.exists()

    def test_corrupt_payload_is_a_miss_and_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = content_key(x=4)
        cache.store(key, sample_stats())
        path = cache._path(key)
        path.write_bytes(b"not a pickle")
        assert cache.load(key) is None
        # The bad bytes are preserved for forensics, not destroyed.
        assert not path.exists()
        assert (cache.quarantine_dir / path.name).read_bytes() == \
            b"not a pickle"
        assert cache.quarantined == 1

    def test_wrong_payload_type_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = content_key(x=5)
        cache.store(key, sample_stats())
        path = cache._path(key)
        path.write_bytes(pickle.dumps({"not": "runstats"}))
        assert cache.load(key) is None
        assert cache.quarantined == 1

    def test_quarantined_payload_does_not_count_as_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = content_key(x=7)
        cache.store(key, sample_stats())
        cache._path(key).write_bytes(b"torn")
        cache.load(key)
        # Quarantined files sit beside the version dir, invisible to the
        # entry count and to clear().
        assert len(cache) == 0
        cache.clear()
        assert (cache.quarantine_dir / cache._path(key).name).exists()

    def test_store_interrupt_still_raises(self, tmp_path, monkeypatch):
        # The narrowed handler must not swallow control-flow exceptions:
        # a Ctrl-C mid-write propagates (after tmp-file cleanup).
        cache = ResultCache(tmp_path)
        key = content_key(x=8)

        def boom(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(diskcache.os, "replace", boom)
        import pytest
        with pytest.raises(KeyboardInterrupt):
            cache.store(key, sample_stats())
        # The interrupted temp file was cleaned up, nothing half-written.
        assert list(cache.version_dir.glob("*/*.tmp")) == []
        assert cache.load(key) is None

    def test_torn_payload_fault_site_truncates_store(self, tmp_path):
        from repro.resilience import faults
        cache = ResultCache(tmp_path)
        key = content_key(x=9)
        try:
            with faults.armed("cache.torn_payload"):
                cache.store(key, sample_stats())
        finally:
            faults.reset()
        assert cache._path(key).stat().st_size == 16
        assert cache.load(key) is None
        assert cache.quarantined == 1

    def test_clear_empties_current_version(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(content_key(x=6), sample_stats())
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0
        assert cache.load(content_key(x=6)) is None


    def test_default_root_is_the_registry_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert diskcache.default_cache_root() == Path(
            flags.declared("REPRO_CACHE_DIR").default)


def _key_from_copy(package: Path) -> str:
    """``content_key(x=1)`` as computed by a fresh interpreter that
    imports ``repro`` from ``package``'s parent directory."""
    out = subprocess.run(
        [sys.executable, "-c",
         "from repro.analysis.diskcache import content_key; "
         "print(content_key(x=1))"],
        cwd=package.parent,
        env={**os.environ, "PYTHONPATH": str(package.parent)},
        capture_output=True, text=True, check=True)
    return out.stdout.strip()


class TestSchemaToken:
    def test_token_is_deterministic(self):
        assert diskcache.schema_token() == diskcache.schema_token()
        assert len(diskcache.schema_token()) == 16

    def test_token_reflects_the_stats_field_lists(self):
        token = diskcache.schema_token()
        import dataclasses
        names = {f.name for f in dataclasses.fields(RunStats)}
        # Sanity: the token is derived from the real dataclasses, so the
        # fields it hashes include every current RunStats field.
        assert "cycles" in names and "wall_seconds" in names
        assert token == diskcache.schema_token()

    def test_content_key_folds_in_the_schema_token(self, monkeypatch):
        before = content_key(x=1)
        monkeypatch.setattr(diskcache, "schema_token",
                            lambda: "different-schema")
        after = content_key(x=1)
        assert before != after

    def test_content_key_stable_while_schema_unchanged(self):
        assert content_key(x=1, y="a") == content_key(y="a", x=1)
        assert content_key(x=1) != content_key(x=2)

    def test_schema_change_invalidates_without_version_bump(self, monkeypatch):
        key = content_key(spec="s", organization="sac")
        monkeypatch.setattr(diskcache, "SCHEMA_VERSION", SCHEMA_VERSION + 1)
        assert content_key(spec="s", organization="sac") != key

    def test_model_source_edit_changes_every_key(self, tmp_path):
        package = Path(diskcache.__file__).resolve().parents[1]
        copies = []
        for name in ("a", "b", "edited"):
            copy = tmp_path / name / "repro"
            shutil.copytree(package, copy,
                            ignore=shutil.ignore_patterns("__pycache__"))
            copies.append(copy)
        with open(copies[2] / "sim" / "engine.py", "a",
                  encoding="utf-8") as handle:
            handle.write("# an edit that could move the numbers\n")
        a, b, edited = (_key_from_copy(copy) for copy in copies)
        assert a == b
        assert edited != a

    def test_model_sources_are_read_once_per_process(self):
        content_key(x=1)
        content_key(x=2)
        diskcache.schema_token()
        assert diskcache.model_source_token.cache_info().misses == 1
