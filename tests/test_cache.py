"""Artifact cache: keys, store behaviour, codecs, pipeline wiring."""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.cache import (
    ArtifactCache,
    cached_coverage,
    code_version,
    default_cache_dir,
    design_fingerprint,
    generator_fingerprint,
    safe_component,
    stable_hash,
)
from repro.cache.artifacts import decode_coverage, encode_coverage
from repro.errors import CacheError
from repro.faultsim import build_fault_universe, run_fault_coverage
from repro.generators import Type1Lfsr
from repro.telemetry import telemetry_session

from helpers import build_small_design


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(str(tmp_path / "store"))


class TestKeys:
    def test_stable_hash_deterministic(self):
        payload = {"a": 1, "b": [1.5, "x"], "c": np.arange(4)}
        assert stable_hash(payload) == stable_hash(dict(payload))

    def test_key_order_independent(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_value_sensitivity(self):
        base = stable_hash({"n": 1024})
        assert stable_hash({"n": 1025}) != base
        assert stable_hash({"n": 1024.0}) != base  # int vs float differ

    def test_array_content_hashed(self):
        a = stable_hash({"w": np.array([1, 2, 3])})
        b = stable_hash({"w": np.array([1, 2, 4])})
        assert a != b

    def test_unhashable_payload_rejected(self):
        with pytest.raises(CacheError):
            stable_hash({"bad": object()})

    def test_design_fingerprint_distinguishes_designs(self):
        d1 = build_small_design("plain")
        d2 = build_small_design("with_zero")
        assert (stable_hash(design_fingerprint(d1))
                != stable_hash(design_fingerprint(d2)))

    def test_generator_fingerprint_captures_config(self):
        assert (stable_hash(generator_fingerprint(Type1Lfsr(12)))
                != stable_hash(generator_fingerprint(Type1Lfsr(10))))

    def test_code_version_in_key(self, cache):
        assert "schema" in code_version()
        # kind participates in the key: same payload, different kind
        assert cache.key("universe", {"x": 1}) != cache.key("golden", {"x": 1})

    def test_default_cache_dir_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert default_cache_dir() == str(tmp_path / "env")


class TestStore:
    def test_miss_then_hit(self, cache):
        payload = {"design": "X", "n": 64}
        assert cache.load("golden", payload) is None
        cache.store("golden", payload, {"wave": np.arange(8)})
        loaded = cache.load("golden", payload)
        assert loaded is not None
        np.testing.assert_array_equal(loaded["wave"], np.arange(8))
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1
        assert cache.stats.by_kind["golden"] == {
            "misses": 1, "hits": 1, "stores": 1}

    def test_meta_roundtrip(self, cache):
        cache.store("universe", {"k": 1}, {"a": np.zeros(2)},
                    meta={"fault_count": 42})
        loaded = cache.load("universe", {"k": 1})
        assert loaded["__meta__"]["fault_count"] == 42

    def test_reserved_array_name_rejected(self, cache):
        with pytest.raises(CacheError):
            cache.store("x", {"k": 1}, {"__meta__": np.zeros(1)})

    def test_corrupted_entry_recovered(self, cache):
        payload = {"k": "corrupt-me"}
        path = cache.store("golden", payload, {"wave": np.arange(100)})
        with open(path, "wb") as fh:
            fh.write(b"\x00garbage")
        assert cache.load("golden", payload) is None  # miss, not crash
        assert cache.stats.recovered == 1
        assert not os.path.exists(path)  # broken file evicted
        # the slot is rebuildable afterwards
        cache.store("golden", payload, {"wave": np.arange(100)})
        assert cache.load("golden", payload) is not None

    def test_lru_eviction_under_size_cap(self, tmp_path):
        cache = ArtifactCache(str(tmp_path), max_bytes=1)  # nothing fits
        cache.store("x", {"k": 1}, {"a": np.arange(1000)})
        assert cache.entries() == []
        assert cache.stats.evictions == 1

    def test_evictions_counted_per_kind(self, tmp_path):
        cache = ArtifactCache(str(tmp_path), max_bytes=1)
        with telemetry_session() as tel:
            cache.store("x", {"k": 1}, {"a": np.arange(1000)})
            evicted = tel.counter("cache.evict.x").value
        assert cache.stats.by_kind["x"] == {"stores": 1, "evictions": 1}
        assert evicted == 1

    def test_evict_drops_oldest_first(self, tmp_path):
        cache = ArtifactCache(str(tmp_path), max_bytes=None)
        paths = []
        for i, key in enumerate(["old", "mid", "new"]):
            paths.append(cache.store("kind", {"k": key},
                                     {"a": np.zeros(10)}))
            # mtime granularity on some filesystems is coarse; force
            # a strict ordering.
            os.utime(paths[-1], (time.time() + i,) * 2)
        assert [path for path, _m, _s in cache.entries()] == paths
        cache.max_bytes = cache.total_bytes() - os.path.getsize(paths[0])
        with telemetry_session() as tel:
            assert cache.evict() == 1
            evicted = tel.counter("cache.evict").value
        assert evicted == 1
        assert cache.stats.evictions == 1
        assert [path for path, _m, _s in cache.entries()] == paths[1:]
        assert cache.load("kind", {"k": "old"}) is None
        assert cache.load("kind", {"k": "new"}) is not None

    def test_lru_keeps_recently_used(self, tmp_path):
        cache = ArtifactCache(str(tmp_path), max_bytes=None)
        p1 = cache.store("x", {"k": 1}, {"a": np.arange(500)})
        p2 = cache.store("x", {"k": 2}, {"a": np.arange(500)})
        # make entry 1 the most recently used, then shrink the cap so
        # only one entry fits: the LRU entry (2) must go.
        os.utime(p2, (1, 1))
        cache.load("x", {"k": 1})
        size = os.path.getsize(p1)
        cache.max_bytes = size + os.path.getsize(p2) // 2
        cache.evict()
        assert os.path.exists(p1) and not os.path.exists(p2)

    def test_max_bytes_validated(self, tmp_path):
        with pytest.raises(CacheError):
            ArtifactCache(str(tmp_path), max_bytes=0)

    def test_clear(self, cache):
        cache.store("x", {"k": 1}, {"a": np.zeros(4)})
        cache.clear()
        assert cache.entries() == []


class TestSafeComponent:
    def test_accepts_hashes_and_kinds(self):
        assert safe_component("universe") == "universe"
        assert safe_component("a1-b2.c_3") == "a1-b2.c_3"

    @pytest.mark.parametrize("bad", ["", ".", "..", "a/b", "a\\b",
                                     "k\x00ey", "sp ace"])
    def test_rejects_traversal(self, bad):
        with pytest.raises(CacheError):
            safe_component(bad)


class TestUrlRoot:
    """The cache is a local directory: a URL root is an error, not a
    directory named ``http:``."""

    def test_url_root_rejected(self):
        with pytest.raises(CacheError, match="HTTP artifact store"):
            ArtifactCache("http://127.0.0.1:9")

    def test_url_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "http://127.0.0.1:9")
        with pytest.raises(CacheError, match="HTTP artifact store"):
            ArtifactCache()

    def test_cli_url_cache_dir_exits_2(self, tmp_path, monkeypatch,
                                       capsys):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "--designs", "LP", "--generators", "LFSR-1",
                     "--vectors", "64", "--jobs", "1", "--no-ledger",
                     "--cache-dir", "http://127.0.0.1:9"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: ") and err.count("\n") == 1
        assert "HTTP artifact store" in err
        assert os.listdir(tmp_path) == []


class TestArtifactCodecs:
    def test_coverage_roundtrip(self, small_design):
        universe = build_fault_universe(small_design.graph, name="small")
        gen = Type1Lfsr(small_design.input_fmt.width)
        result = run_fault_coverage(small_design, gen, 128,
                                    universe=universe)
        arrays, meta = encode_coverage(result)
        decoded = decode_coverage(
            {k: np.asarray(v) for k, v in arrays.items()}, meta, universe)
        np.testing.assert_array_equal(decoded.detect_time,
                                      result.detect_time)
        assert decoded.coverage() == result.coverage()
        assert decoded.n_vectors == result.n_vectors


class TestPipeline:
    def test_none_cache_computes(self, small_design):
        universe = build_fault_universe(small_design.graph, name="small")
        gen = Type1Lfsr(small_design.input_fmt.width)
        calls = []

        def compute():
            calls.append(1)
            return run_fault_coverage(small_design, gen, 64,
                                      universe=universe)

        r1 = cached_coverage(None, small_design, gen, 64, universe, compute)
        r2 = cached_coverage(None, small_design, gen, 64, universe, compute)
        assert len(calls) == 2
        np.testing.assert_array_equal(r1.detect_time, r2.detect_time)

    def test_cached_coverage_identical_to_fresh(self, cache, small_design):
        """Cached results are byte-identical to a --no-cache run."""
        universe = build_fault_universe(small_design.graph, name="small")
        gen = Type1Lfsr(small_design.input_fmt.width)

        def compute():
            return run_fault_coverage(small_design, gen, 128,
                                      universe=universe)

        cold = cached_coverage(cache, small_design, gen, 128, universe,
                               compute)
        warm = cached_coverage(cache, small_design, gen, 128, universe,
                               compute)
        no_cache = cached_coverage(None, small_design, gen, 128, universe,
                                   compute)
        assert cache.stats.by_kind["coverage"]["hits"] == 1
        np.testing.assert_array_equal(cold.detect_time, warm.detect_time)
        np.testing.assert_array_equal(cold.detect_time, no_cache.detect_time)


class TestExperimentContextIntegration:
    def test_warm_rerun_skips_recompute(self, tmp_path):
        """Second context over the same store: pure hits, no recompute."""
        from repro.experiments import ExperimentContext

        root = str(tmp_path / "store")
        gen_vectors = 128

        cold = ExperimentContext(cache=ArtifactCache(root))
        gen = cold.standard_generators()["LFSR-1"]
        r1 = cold.coverage("LP", gen, gen_vectors)
        # All three designs, then LP's one session.
        assert cold.cache.stats.by_kind == {
            "design": {"misses": 3, "stores": 3},
            "coverage": {"misses": 1, "stores": 1}}

        warm = ExperimentContext(cache=ArtifactCache(root))
        gen = warm.standard_generators()["LFSR-1"]
        r2 = warm.coverage("LP", gen, gen_vectors)
        assert warm.cache.stats.by_kind == {
            "design": {"hits": 3}, "coverage": {"hits": 1}}
        np.testing.assert_array_equal(r1.detect_time, r2.detect_time)

    def test_universe_and_netlist_are_never_cached(self, tmp_path):
        """Only designs and coverage sessions reach the store; universes
        and netlists are in-process memos."""
        from repro.experiments import ExperimentContext

        root = str(tmp_path / "store")
        contexts, runs = [], []
        for _ in range(2):
            ctx = ExperimentContext(cache=ArtifactCache(root))
            gen = ctx.standard_generators()["LFSR-1"]
            runs.append(ctx.coverage("LP", gen, 128))
            ctx.universe("LP")
            ctx.netlist("LP")
            contexts.append(ctx)
        cold, warm = (c.cache.stats for c in contexts)
        stored = {kind for kind, per in cold.by_kind.items()
                  if per.get("stores")}
        assert stored == {"design", "coverage"}
        assert set(os.listdir(root)) == {"design", "coverage"}
        assert warm.misses == warm.stores == 0
        assert warm.hits == 4  # three designs and the session
        np.testing.assert_array_equal(runs[0].detect_time,
                                      runs[1].detect_time)

    def test_rehydrated_design_keeps_spec(self, tmp_path):
        from repro.experiments import ExperimentContext

        root = str(tmp_path / "store")
        ExperimentContext(cache=ArtifactCache(root)).designs  # populate
        warm = ExperimentContext(cache=ArtifactCache(root))
        design = warm.designs["LP"]
        assert "spec" in design.extra  # figures.py reads this
        assert design.kind == "lowpass"
