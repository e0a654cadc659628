"""Content-addressed result cache and incremental grid re-execution.

Covers the issue's acceptance criteria:

- cache keys are stable across processes and ``PYTHONHASHSEED`` values,
- keys change when anything result-affecting changes (spec, seed,
  config, artifact, code-version salt),
- corrupted / foreign / truncated entries are dropped and recomputed,
  never crash a run,
- LRU eviction keeps the store under its size cap, and the running
  byte total evicts at the same puts as a scan per put would,
- ``RHYTHM_CACHE=off`` bypasses the default store entirely,
- a warm ``run_comparison_grid`` re-run executes zero simulations and
  returns bit-identical results,
- the vectorized sampling hot path is bit-identical to the historical
  scalar implementation (end-to-end colocation fingerprint gate).
"""

from __future__ import annotations

import math
import os
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.bejobs.catalog import evaluation_be_jobs
from repro.cache import (
    CacheOutcomes,
    CacheStore,
    cache_enabled,
    cache_lookup,
    default_store,
    resolve_cache_dir,
    resolve_store,
    stable_hash,
)
from repro.cache.store import ENVELOPE_FORMAT, resolve_max_bytes
from repro.errors import CacheError, CacheKeyError
from repro.experiments.colocation import ColocationConfig
from repro.experiments.runner import ComparisonResult
from repro.loadgen.patterns import CallableLoad, ConstantLoad, StepLoad
from repro.parallel import (
    GridCell,
    artifact_for,
    comparison_fingerprint,
    run_comparison_grid,
)
from repro.parallel.grid import _CellTask, cell_cache_key
from repro.parallel.profile import profile_services_parallel
from repro.workloads.latency import LatencyModel
from conftest import make_tiny_service

import repro.parallel.grid as grid_module
import repro.parallel.profile as profile_module


@pytest.fixture(scope="module")
def tiny_artifact():
    service = make_tiny_service()
    return service, artifact_for(service, seed=0, probe_slacklimits=False)


@pytest.fixture
def store(tmp_path) -> CacheStore:
    return CacheStore(tmp_path / "cache")


FAST = ColocationConfig(duration_s=20.0, sample_cap=150, min_samples=50)


class _Thing:
    """A plain value object with the default, address-bearing repr."""

    def __init__(self, value: int) -> None:
        self.value = value


class TestStableHash:
    def test_deterministic(self):
        obj = ("grid-cell", make_tiny_service(), 0.45, 7, {"a": [1.5, None]})
        assert stable_hash(obj) == stable_hash(obj)

    def test_type_tags_prevent_collisions(self):
        assert len({stable_hash(v) for v in (1, 1.0, "1", True, b"1")}) == 5

    def test_container_shape_matters(self):
        assert stable_hash([1, 2]) != stable_hash([[1], 2])
        assert stable_hash({"a": 1}) != stable_hash([("a", 1)])

    def test_dict_order_does_not_matter(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_unordered_members_sort_by_encoding_not_address(self):
        # Default reprs embed id(); ordering by them made the key of the
        # same set depend on where its members happened to be allocated.
        things = [_Thing(k % 2) for k in range(40)]
        zeros, ones = things[0::2], things[1::2]
        pairs = [(a, b) for a in zeros for b in ones]
        low_first = next((a, b) for a, b in pairs if id(a) < id(b))
        high_first = next((a, b) for a, b in pairs if id(a) > id(b))
        assert stable_hash(frozenset(low_first)) == stable_hash(
            frozenset(high_first)
        )
        assert stable_hash({low_first[0]: 0, low_first[1]: 1}) == stable_hash(
            {high_first[1]: 1, high_first[0]: 0}
        )

    def test_float_precision_is_exact(self):
        assert stable_hash(0.1 + 0.2) != stable_hash(0.3)
        assert stable_hash(float("nan")) == stable_hash(float("nan"))

    def test_numpy_values_hash_like_scalars_do_not_collide(self):
        arr = np.array([1.0, 2.0])
        assert stable_hash(arr) == stable_hash(arr.copy())
        assert stable_hash(arr) != stable_hash(arr.astype(np.float32))

    def test_salt_changes_key(self):
        assert stable_hash("x") != stable_hash("x", salt="other-salt")

    def test_dataclass_fields_covered(self):
        a = ConstantLoad(0.4)
        b = ConstantLoad(0.5)
        assert stable_hash(a) != stable_hash(b)
        assert stable_hash(a) == stable_hash(ConstantLoad(0.4))

    def test_service_spec_hashes(self):
        assert stable_hash(make_tiny_service()) == stable_hash(make_tiny_service())
        assert stable_hash(make_tiny_service()) != stable_hash(
            make_tiny_service(sla_ms=120.0)
        )

    def test_callable_raises(self):
        with pytest.raises(CacheKeyError):
            stable_hash(lambda t: 0.5)
        with pytest.raises(CacheKeyError):
            stable_hash(CallableLoad(lambda t: 0.5))

    def test_stable_across_processes_and_hash_seeds(self):
        script = (
            "import sys\n"
            f"sys.path.insert(0, {str(Path('src').resolve())!r})\n"
            f"sys.path.insert(0, {str(Path('tests').resolve())!r})\n"
            "from conftest import make_tiny_service\n"
            "from repro.cache import stable_hash\n"
            "print(stable_hash(('grid-cell', make_tiny_service(), 0.45, 7)))\n"
        )
        digests = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            out = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            digests.add(out.stdout.strip())
        digests.add(stable_hash(("grid-cell", make_tiny_service(), 0.45, 7)))
        assert len(digests) == 1


class _ScanEveryPut(CacheStore):
    """The store without a running total: every put scans the directory."""

    def put(self, key, payload):
        self._total = None
        return super().put(key, payload)


class TestCacheStore:
    def _key(self, token: str) -> str:
        return stable_hash(token)

    @staticmethod
    def _count_scans(store, monkeypatch) -> list:
        """A one-item list counting ``store._entries`` calls."""
        calls = [0]
        entries = store._entries

        def counted():
            calls[0] += 1
            return entries()

        monkeypatch.setattr(store, "_entries", counted)
        return calls

    def test_roundtrip(self, store):
        key = self._key("a")
        assert store.get(key) is None
        assert store.put(key, {"value": [1.5, "x"]})
        assert store.get(key) == {"value": [1.5, "x"]}
        assert store.contains(key)
        assert store.hits == 1 and store.misses == 1 and store.stores == 1
        # A replaced key is counted again: the total may only overcount.
        assert store.put(key, {"value": [2.5]})
        assert store._total >= store.stats().total_bytes

    def test_malformed_key_rejected(self, store):
        with pytest.raises(CacheError):
            store.get("../../etc/passwd")
        with pytest.raises(CacheError):
            store.put("UPPER", 1)

    def test_corrupted_entry_recovers(self, store):
        key = self._key("corrupt")
        store.put(key, 123)
        store._path(key).write_bytes(b"\x80\x05 this is not a pickle")
        assert store.get(key) is None
        assert store.errors == 1
        assert not store.contains(key)  # bad file deleted
        # The deleted entry is not subtracted: the total may only overcount.
        assert store._total >= store.stats().total_bytes
        # The slot is usable again.
        assert store.put(key, 456) and store.get(key) == 456
        assert store._total >= store.stats().total_bytes

    def test_foreign_envelope_format_is_a_miss(self, store):
        key = self._key("foreign")
        store.put(key, 1)
        path = store._path(key)
        with open(path, "wb") as fh:
            pickle.dump(
                {"format": ENVELOPE_FORMAT + 1, "key": key, "payload": 1}, fh
            )
        assert store.get(key) is None
        assert not path.exists()

    def test_key_mismatch_is_a_miss(self, store):
        key = self._key("mismatch")
        other = self._key("other")
        store.put(key, 1)
        store._path(other).parent.mkdir(exist_ok=True)
        os.replace(store._path(key), store._path(other))
        assert store.get(other) is None

    def test_unpicklable_payload_swallowed(self, store):
        assert store.put(self._key("bad"), lambda: None) is False
        assert store.errors == 1
        assert store.stats().entries == 0

    def test_lru_eviction(self, tmp_path, monkeypatch):
        probe = CacheStore(tmp_path / "probe")
        probe.put(self._key("probe"), "x" * 1000)
        entry_bytes = probe.stats().total_bytes
        keys = [self._key(f"k{i}") for i in range(3)]
        for reopen in (False, True):
            store = CacheStore(
                tmp_path / f"lru-{reopen}", max_bytes=int(2.5 * entry_bytes)
            )
            store.put(keys[0], "x" * 1000)
            store.put(keys[1], "x" * 1000)
            if reopen:
                # A new store on the pre-filled directory counts it at
                # its first put.
                store = CacheStore(store.directory, max_bytes=store.max_bytes)
            # Make keys[0] stale and keys[1] fresh, then overflow the cap.
            os.utime(store._path(keys[0]), times=(1.0, 1.0))
            os.utime(store._path(keys[1]), times=(2.0, 2.0))
            scans = self._count_scans(store, monkeypatch)
            store.put(keys[2], "x" * 1000)
            assert scans[0] == 1
            assert store._total == store.stats().total_bytes
            assert store.evictions == 1
            assert not store.contains(keys[0])  # the LRU entry went first
            assert store.contains(keys[1]) and store.contains(keys[2])
            assert store.stats().total_bytes <= store.max_bytes

    def test_puts_under_the_cap_scan_once(self, store, monkeypatch):
        scans = self._count_scans(store, monkeypatch)
        for token in range(20):
            assert store.put(self._key(f"n{token}"), token)
        assert scans[0] == 1
        assert store._total == store.stats().total_bytes

    def test_running_total_evicts_like_a_scan_per_put(self, tmp_path, monkeypatch):
        """Same evictions at the same puts as the store that scans every put.

        Both stores start from copies of one pre-filled directory and see
        the same puts (replaced keys included), reads and corrupt entries;
        every mtime is set explicitly so the LRU order is the same in both.
        """
        rng = np.random.default_rng(7)
        seed_dir = tmp_path / "seed"
        filler = CacheStore(seed_dir)
        for i in range(6):
            key = self._key(f"pre{i}")
            filler.put(key, "x" * int(rng.integers(200, 2000)))
            os.utime(filler._path(key), times=(float(i), float(i)))
        shutil.copytree(seed_dir, tmp_path / "running")  # copy2 keeps mtimes
        shutil.copytree(seed_dir, tmp_path / "twin")
        running = CacheStore(tmp_path / "running", max_bytes=12_000)
        twin = _ScanEveryPut(tmp_path / "twin", max_bytes=12_000)
        scans = self._count_scans(running, monkeypatch)

        def survivors(store):
            return sorted(p.name for p in store.directory.glob("??/*.pkl"))

        pool = [self._key(f"k{i}") for i in range(12)]
        clock = 100.0
        put_scans = 0
        for step in range(80):
            key = pool[int(rng.integers(len(pool)))]
            if step % 7 == 3 and running.contains(key):
                # The same read (or corrupt entry) in both stores.
                corrupt = step % 14 == 3
                for store in (running, twin):
                    if corrupt:
                        store._path(key).write_bytes(b"junk")
                    assert (store.get(key) is None) == corrupt
                    if not corrupt:
                        os.utime(store._path(key), times=(clock, clock))
                clock += 1.0
                assert running._total >= running.stats().total_bytes
            payload = "y" * int(rng.integers(200, 3000))
            before = scans[0]
            for store in (running, twin):
                assert store.put(key, payload)
                os.utime(store._path(key), times=(clock, clock))
            clock += 1.0
            assert running.evictions == twin.evictions, f"step {step}"
            assert survivors(running) == survivors(twin), f"step {step}"
            assert scans[0] - before <= 1
            if scans[0] > before:
                put_scans += 1
                assert running._total == running.stats().total_bytes
            assert running._total >= running.stats().total_bytes
        assert twin.evictions > 10 and twin.errors > 0
        assert put_scans < twin.stores

    def test_clear_and_stats(self, store):
        for token in ("a", "b", "c"):
            store.put(self._key(token), token)
        assert store.stats().entries == 3
        assert store.clear() == 3
        assert store.stats().entries == 0 and store.stats().total_bytes == 0
        # The next put counts the emptied directory afresh.
        assert store._total is None
        store.put(self._key("d"), "d")
        assert store._total == store.stats().total_bytes

    def test_invalid_max_bytes_rejected(self, tmp_path):
        with pytest.raises(CacheError):
            CacheStore(tmp_path, max_bytes=0)


class TestEnvironmentControls:
    @pytest.mark.parametrize("value", ["off", "0", "false", "no", "OFF"])
    def test_disable_values(self, monkeypatch, value):
        monkeypatch.setenv("RHYTHM_CACHE", value)
        assert not cache_enabled()
        assert default_store() is None

    def test_enabled_by_default(self, monkeypatch):
        monkeypatch.delenv("RHYTHM_CACHE", raising=False)
        assert cache_enabled()

    def test_cache_dir_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("RHYTHM_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert resolve_cache_dir() == tmp_path / "elsewhere"
        monkeypatch.delenv("RHYTHM_CACHE", raising=False)
        assert default_store().directory == tmp_path / "elsewhere"

    def test_default_dir_is_home_cache(self, monkeypatch):
        monkeypatch.delenv("RHYTHM_CACHE_DIR", raising=False)
        assert resolve_cache_dir() == Path.home() / ".cache" / "rhythm-repro"

    def test_max_bytes_override(self, monkeypatch):
        monkeypatch.setenv("RHYTHM_CACHE_MAX_BYTES", "1024")
        assert resolve_max_bytes() == 1024
        monkeypatch.setenv("RHYTHM_CACHE_MAX_BYTES", "lots")
        with pytest.raises(CacheError):
            resolve_max_bytes()
        monkeypatch.setenv("RHYTHM_CACHE_MAX_BYTES", "-1")
        with pytest.raises(CacheError):
            resolve_max_bytes()


class TestCellKeys:
    def _task(self, service, default_artifact, **overrides):
        from repro.baselines.heracles import HeraclesPolicy

        cell = GridCell(
            service,
            overrides.get("be_spec", evaluation_be_jobs()[0]),
            overrides.get("load", 0.45),
            seed=overrides.get("seed", 7),
            pattern=overrides.get("pattern"),
        )
        return _CellTask(
            cell=cell,
            artifact=overrides.get("artifact", default_artifact),
            heracles_policy=overrides.get("policy", HeraclesPolicy()),
            config=overrides.get("config"),
        )

    def test_key_is_stable(self, tiny_artifact):
        service, artifact = tiny_artifact
        a = cell_cache_key(self._task(service, artifact))
        b = cell_cache_key(self._task(service, artifact))
        assert a == b

    def test_every_coordinate_matters(self, tiny_artifact):
        service, artifact = tiny_artifact
        base = cell_cache_key(self._task(service, artifact))
        assert base != cell_cache_key(self._task(service, artifact, load=0.46))
        assert base != cell_cache_key(self._task(service, artifact, seed=8))
        assert base != cell_cache_key(
            self._task(service, artifact, be_spec=evaluation_be_jobs()[1])
        )
        assert base != cell_cache_key(
            self._task(service, artifact, config=FAST)
        )

    def test_changed_artifact_invalidates(self, tiny_artifact):
        service, artifact = tiny_artifact
        other = artifact_for(service, seed=1, probe_slacklimits=False)
        assert cell_cache_key(self._task(service, artifact)) != cell_cache_key(
            self._task(service, artifact, artifact=other)
        )

    def test_default_pattern_and_config_normalised(self, tiny_artifact):
        service, artifact = tiny_artifact
        implicit = cell_cache_key(self._task(service, artifact))
        explicit = cell_cache_key(
            self._task(
                service,
                artifact,
                pattern=ConstantLoad(0.45),
                config=ColocationConfig(),
            )
        )
        assert implicit == explicit

    def test_step_pattern_is_cacheable(self, tiny_artifact):
        service, artifact = tiny_artifact
        key = cell_cache_key(
            self._task(service, artifact, pattern=StepLoad([(0.0, 0.3)]))
        )
        assert len(key) == 64

    def test_callable_pattern_is_uncacheable(self, tiny_artifact):
        service, artifact = tiny_artifact
        with pytest.raises(CacheKeyError):
            cell_cache_key(
                self._task(
                    service, artifact, pattern=CallableLoad(lambda t: 0.3)
                )
            )


class TestIncrementalGrid:
    def _cells(self, service):
        return [
            GridCell(service, be, load, seed=7)
            for be in evaluation_be_jobs()[:2]
            for load in (0.25, 0.65)
        ]

    def test_warm_rerun_recomputes_nothing(
        self, tiny_artifact, store, monkeypatch
    ):
        service, artifact = tiny_artifact
        cells = self._cells(service)
        artifacts = {service.name: artifact}
        cold_stats = CacheOutcomes()
        cold = run_comparison_grid(
            cells,
            config=FAST,
            workers=1,
            artifacts=artifacts,
            cache=store,
            cache_stats=cold_stats,
        )
        assert cold_stats.misses == len(cells)
        assert cold_stats.hits == 0 and cold_stats.skipped == 0

        def _boom(task):
            raise AssertionError("warm run must not simulate any cell")

        monkeypatch.setattr(grid_module, "_execute_task", _boom)
        warm_stats = CacheOutcomes()
        warm = run_comparison_grid(
            cells,
            config=FAST,
            workers=1,
            artifacts=artifacts,
            cache=store,
            cache_stats=warm_stats,
        )
        assert warm_stats.hits == len(cells)
        assert warm_stats.misses == 0 and warm_stats.skipped == 0
        assert [comparison_fingerprint(r) for r in warm] == [
            comparison_fingerprint(r) for r in cold
        ]

    def test_partial_grid_only_runs_new_cells(self, tiny_artifact, store):
        service, artifact = tiny_artifact
        cells = self._cells(service)
        artifacts = {service.name: artifact}
        run_comparison_grid(
            cells[:2], config=FAST, workers=1, artifacts=artifacts, cache=store
        )
        stats = CacheOutcomes()
        run_comparison_grid(
            cells,
            config=FAST,
            workers=1,
            artifacts=artifacts,
            cache=store,
            cache_stats=stats,
        )
        assert stats.hits == 2 and stats.misses == 2

    def test_partial_grid_runs_missing_cells_in_one_batch(
        self, tiny_artifact, tmp_path, monkeypatch
    ):
        service, artifact = tiny_artifact
        cells = self._cells(service)
        artifacts = {service.name: artifact}

        class Recording(CacheStore):
            def __init__(self, directory):
                super().__init__(directory)
                self.keys = []

            def put(self, key, payload):
                self.keys.append(key)
                return super().put(key, payload)

        cold_store = Recording(tmp_path / "cold")
        cold = run_comparison_grid(
            cells, config=FAST, workers=1, artifacts=artifacts, cache=cold_store
        )
        store = Recording(tmp_path / "partial")
        run_comparison_grid(
            [cells[0], cells[2]],
            config=FAST,
            workers=1,
            artifacts=artifacts,
            cache=store,
        )
        store.keys = []
        batches = []
        real = grid_module._execute_task

        def spy(tasks):
            batches.append([task.cell for task in tasks])
            return real(tasks)

        monkeypatch.setattr(grid_module, "_execute_task", spy)
        warm = run_comparison_grid(
            cells, config=FAST, workers=1, artifacts=artifacts, cache=store
        )
        assert batches == [[cells[1], cells[3]]]
        assert store.keys == [cold_store.keys[1], cold_store.keys[3]]
        assert [comparison_fingerprint(r) for r in warm] == [
            comparison_fingerprint(r) for r in cold
        ]

    def test_no_store_skips_all(self, tiny_artifact):
        service, artifact = tiny_artifact
        cells = self._cells(service)[:1]
        stats = CacheOutcomes()
        run_comparison_grid(
            cells,
            config=FAST,
            workers=1,
            artifacts={service.name: artifact},
            cache=None,
            cache_stats=stats,
        )
        assert stats.skipped == 1 and stats.total == 1

    def test_rhythm_cache_off_bypasses(self, tiny_artifact, monkeypatch):
        service, artifact = tiny_artifact
        monkeypatch.setenv("RHYTHM_CACHE", "off")
        stats = CacheOutcomes()
        run_comparison_grid(
            self._cells(service)[:1],
            config=FAST,
            workers=1,
            artifacts={service.name: artifact},
            cache=True,
            cache_stats=stats,
        )
        assert stats.skipped == 1 and stats.hits == 0 and stats.misses == 0

    def test_uncacheable_cell_still_runs(self, tiny_artifact, store):
        service, artifact = tiny_artifact
        cells = [
            GridCell(
                service,
                evaluation_be_jobs()[0],
                0.4,
                seed=3,
                pattern=CallableLoad(lambda t: 0.4),
            )
        ]
        stats = CacheOutcomes()
        results = run_comparison_grid(
            cells,
            config=FAST,
            workers=1,
            artifacts={service.name: artifact},
            cache=store,
            cache_stats=stats,
        )
        assert len(results) == 1
        assert stats.skipped == 1
        assert store.stats().entries == 0

    def test_corrupted_cell_entry_recomputes(self, tiny_artifact, store):
        service, artifact = tiny_artifact
        cells = self._cells(service)[:1]
        artifacts = {service.name: artifact}
        run_comparison_grid(
            cells, config=FAST, workers=1, artifacts=artifacts, cache=store
        )
        from repro.baselines.heracles import HeraclesPolicy

        key = cell_cache_key(
            _CellTask(
                cell=cells[0],
                artifact=artifact,
                heracles_policy=HeraclesPolicy(),
                config=FAST,
            )
        )
        store._path(key).write_bytes(b"garbage")
        stats = CacheOutcomes()
        results = run_comparison_grid(
            cells,
            config=FAST,
            workers=1,
            artifacts=artifacts,
            cache=store,
            cache_stats=stats,
        )
        assert stats.misses == 1 and len(results) == 1

    def test_wrong_shaped_cell_entry_recomputes(self, tiny_artifact, store):
        service, artifact = tiny_artifact
        cells = self._cells(service)[:1]
        artifacts = {service.name: artifact}
        cold = run_comparison_grid(
            cells, config=FAST, workers=1, artifacts=artifacts, cache=store
        )
        from repro.baselines.heracles import HeraclesPolicy

        key = cell_cache_key(
            _CellTask(
                cell=cells[0],
                artifact=artifact,
                heracles_policy=HeraclesPolicy(),
                config=FAST,
            )
        )
        # A readable entry of the wrong type under the cell's live key.
        store.put(key, comparison_fingerprint(cold[0]))
        stats = CacheOutcomes()
        warm = run_comparison_grid(
            cells,
            config=FAST,
            workers=1,
            artifacts=artifacts,
            cache=store,
            cache_stats=stats,
        )
        assert stats.misses == 1 and stats.hits == 0
        assert comparison_fingerprint(warm[0]) == comparison_fingerprint(cold[0])
        assert isinstance(store.get(key), ComparisonResult)


class TestCacheLookup:
    """The one lookup every cached unit goes through."""

    KEY = "ab" * 32

    def _lookup(self, store, outcomes, make_key=None, accept=None):
        return cache_lookup(
            store,
            make_key or (lambda: self.KEY),
            accept or (lambda entry: isinstance(entry, int)),
            outcomes,
        )

    def test_no_store_skips_without_keying(self):
        outcomes = CacheOutcomes()

        def _never():
            raise AssertionError("no store: the key is never built")

        assert self._lookup(None, outcomes, make_key=_never) == (None, None)
        assert outcomes == CacheOutcomes(skipped=1)

    def test_uncacheable_key_skips(self, store):
        outcomes = CacheOutcomes()

        def _unhashable():
            raise CacheKeyError("bare callable")

        assert self._lookup(store, outcomes, make_key=_unhashable) == (
            None,
            None,
        )
        assert outcomes == CacheOutcomes(skipped=1)
        assert store.hits == store.misses == 0

    def test_accepted_hit(self, store):
        store.put(self.KEY, 7)
        outcomes = CacheOutcomes()
        assert self._lookup(store, outcomes) == (self.KEY, 7)
        assert outcomes == CacheOutcomes(hits=1)

    def test_absent_entry_is_a_miss(self, store):
        outcomes = CacheOutcomes()
        assert self._lookup(store, outcomes) == (self.KEY, None)
        assert outcomes == CacheOutcomes(misses=1)

    def test_rejected_entry_is_a_miss(self, store):
        store.put(self.KEY, "not an int")
        outcomes = CacheOutcomes()
        assert self._lookup(store, outcomes) == (self.KEY, None)
        assert outcomes == CacheOutcomes(misses=1)
        # The entry is left for the caller's recompute to overwrite.
        assert store.get(self.KEY) == "not an int"

    def test_corrupt_entry_is_a_miss(self, store):
        store.put(self.KEY, 7)
        store._path(self.KEY).write_bytes(b"garbage")
        outcomes = CacheOutcomes()
        assert self._lookup(store, outcomes) == (self.KEY, None)
        assert outcomes == CacheOutcomes(misses=1)
        assert store.errors == 1

    def test_resolve_store(self, store, monkeypatch):
        assert resolve_store(store) is store
        assert resolve_store(None) is None and resolve_store(False) is None
        monkeypatch.setenv("RHYTHM_CACHE", "off")
        assert resolve_store(True) is None


class TestArtifactCaching:
    def test_warm_profile_skips_probe(
        self, store, monkeypatch, fresh_profile_memo
    ):
        service = make_tiny_service("cached-svc")
        cells = [GridCell(service, evaluation_be_jobs()[0], 0.3, seed=0)]
        first = profile_services_parallel(cells, probe_slacklimits=False, cache=store)

        def _boom(*args, **kwargs):
            raise AssertionError("warm profile must come from the store")

        monkeypatch.setattr(profile_module, "run_envelopes", _boom)
        fresh_profile_memo()
        second = profile_services_parallel(cells, probe_slacklimits=False, cache=store)
        assert second == first

    def test_profiling_knobs_change_the_key(self, store, fresh_profile_memo):
        service = make_tiny_service("keyed-svc")
        cells = [GridCell(service, evaluation_be_jobs()[0], 0.3, seed=0)]
        profile_services_parallel(cells, probe_slacklimits=False, cache=store)
        entries = store.stats().entries
        # Sub-profile granularity: one artifact plus one entry per sweep
        # load point.
        assert entries > 1
        fresh_profile_memo()
        profile_services_parallel(
            cells,
            probe_slacklimits=False,
            cache=store,
            seed_by_service={service.name: 1},
        )
        # The seed feeds every key — artifact and all load points re-store.
        assert store.stats().entries == 2 * entries


class TestVectorizationIdentityGate:
    """The batched hot path must be bit-identical to the scalar one."""

    @staticmethod
    def _scalar_reference(cls, pod, load, n, rng, slowdown=1.0, sigma_inflation=1.0):
        # Verbatim port of the historical per-component loop.
        total = None
        for comp in pod.components:
            median = cls.component_median_ms(comp, load, slowdown)
            sigma = cls.component_sigma(comp, load, sigma_inflation)
            draws = rng.lognormal(mean=math.log(median), sigma=sigma, size=n)
            total = draws if total is None else total + draws
        assert total is not None
        return total

    def test_colocation_fingerprint_identical(
        self, tiny_artifact, monkeypatch
    ):
        service, artifact = tiny_artifact
        cells = [GridCell(service, evaluation_be_jobs()[0], 0.55, seed=11)]
        artifacts = {service.name: artifact}
        vectorized = run_comparison_grid(
            cells, config=FAST, workers=1, artifacts=artifacts
        )
        monkeypatch.setattr(
            LatencyModel,
            "sample_servpod_ms",
            classmethod(self._scalar_reference),
        )
        scalar = run_comparison_grid(
            cells, config=FAST, workers=1, artifacts=artifacts
        )
        assert comparison_fingerprint(vectorized[0]) == comparison_fingerprint(
            scalar[0]
        )
