"""Persistent result store: exact round-trips, sharding, eviction, recovery."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.api import PAPER_TECHNIQUES, cache_key, clear_compilation_cache
from repro.core import AdaptationResult
from repro.hardware import spin_qubit_target
from repro.server import ShardRouter, build_server
from repro.service import (
    CompilationService,
    PersistentResultStore,
    resolve_store_backend,
)
from repro.service.store import _entry_digest

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_compilation_cache()
    yield
    clear_compilation_cache()


def probe_circuit():
    circuit = repro.QuantumCircuit(3, name="store_probe")
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.swap(1, 2)
    return circuit


class TestRoundTrip:
    @pytest.mark.parametrize("technique", PAPER_TECHNIQUES)
    def test_every_technique_round_trips_exactly(self, technique):
        """Acceptance: from_dict(to_dict(result)) reproduces cost, duration
        and gate counts bit-identically, through an actual JSON encode."""
        result = repro.compile(probe_circuit(), spin_qubit_target(3), technique)
        payload = json.loads(json.dumps(result.to_dict()))
        restored = AdaptationResult.from_dict(payload)
        assert restored.technique == result.technique
        assert restored.cost == result.cost
        assert restored.cost.duration == result.cost.duration
        assert restored.cost.gate_count == result.cost.gate_count
        assert restored.cost.two_qubit_gate_count == result.cost.two_qubit_gate_count
        assert restored.baseline_cost == result.baseline_cost
        assert restored.objective_value == result.objective_value
        assert restored.adapted_circuit.to_dict() == result.adapted_circuit.to_dict()
        assert [s.to_dict() for s in restored.chosen_substitutions] == [
            s.to_dict() for s in result.chosen_substitutions
        ]
        assert restored.report.to_dict() == result.report.to_dict()

    def test_custom_gate_matrices_survive(self):
        """The dict form embeds matrices, unlike the lossy text dump."""
        result = repro.compile(probe_circuit(), spin_qubit_target(3), "kak_cz")
        restored = AdaptationResult.from_dict(result.to_dict())
        for ours, theirs in zip(
            restored.adapted_circuit.instructions,
            result.adapted_circuit.instructions,
        ):
            assert ours.gate.matrix == theirs.gate.matrix
            assert ours.qubits == theirs.qubits


class TestStore:
    def _compiled(self, technique="direct"):
        circuit = probe_circuit()
        target = spin_qubit_target(3)
        result = repro.compile(circuit, target, technique, use_cache=False)
        key = cache_key(circuit, target, technique, result.report.options)
        return key, result

    def test_put_get_round_trip(self, tmp_path):
        store = PersistentResultStore(str(tmp_path))
        key, result = self._compiled()
        store.put(key, result)
        loaded = store.get(key)
        assert loaded is not None
        assert loaded.cost == result.cost
        info = store.info()
        assert info.puts == 1 and info.hits == 1 and info.entries == 1
        assert info.total_bytes > 0

    def test_miss_and_uncacheable_key(self, tmp_path):
        store = PersistentResultStore(str(tmp_path))
        assert store.get(("a", "b", "c", "d")) is None
        store.put(None, object())  # Uncacheable: silently skipped.
        assert store.get(None) is None
        info = store.info()
        assert info.misses == 1 and info.entries == 0

    def test_entries_are_sharded_by_digest_prefix(self, tmp_path):
        store = PersistentResultStore(str(tmp_path))
        key, result = self._compiled()
        store.put(key, result)
        digest = _entry_digest(key)
        assert os.path.exists(
            os.path.join(str(tmp_path), digest[:2], digest + ".json")
        )

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        store = PersistentResultStore(str(tmp_path))
        key, result = self._compiled()
        store.put(key, result)
        digest = _entry_digest(key)
        path = os.path.join(str(tmp_path), digest[:2], digest + ".json")
        with open(path, "w") as handle:
            handle.write("{truncated")
        assert store.get(key) is None
        assert not os.path.exists(path)
        # A fresh put repairs the entry.
        store.put(key, result)
        assert store.get(key) is not None

    def test_stale_tmp_files_are_swept(self, tmp_path):
        import time

        store = PersistentResultStore(str(tmp_path))
        key, result = self._compiled()
        store.put(key, result)
        digest = _entry_digest(key)
        shard_dir = os.path.join(str(tmp_path), digest[:2])
        fresh = os.path.join(shard_dir, digest + ".inflight.tmp")
        stale = os.path.join(shard_dir, digest + ".abandoned.tmp")
        for path in (fresh, stale):
            with open(path, "w") as handle:
                handle.write("half-written")
        # Backdate the abandoned one past the live-writer grace period.
        old = time.time() - 3600
        os.utime(stale, (old, old))
        assert store.info().entries == 1  # tmp files are never entries...
        assert not os.path.exists(stale)  # ...the stale one was swept...
        assert os.path.exists(fresh)  # ...the live-looking one survived.

    def test_size_budget_evicts_least_recently_used(self, tmp_path):
        store = PersistentResultStore(str(tmp_path))
        keys = []
        for technique in ("direct", "kak_cz", "sat_p"):
            key, result = self._compiled(technique)
            store.put(key, result)
            keys.append(key)
        total = store.info().total_bytes
        # Refresh the first entry's recency, then shrink the budget so one
        # entry must go: the *second* (least recently used) is evicted.
        assert store.get(keys[0]) is not None
        import time as _time
        _time.sleep(0.02)  # mtime resolution guard
        store.max_bytes = total - 1
        key, result = self._compiled("template_f")
        store.put(key, result)
        assert store.get(keys[0]) is not None
        assert store.info().evictions >= 1

    def test_clear_empties_the_store(self, tmp_path):
        store = PersistentResultStore(str(tmp_path))
        key, result = self._compiled()
        store.put(key, result)
        assert store.clear() == 1
        assert store.info().entries == 0
        assert store.get(key) is None


class TestCompileIntegration:
    def test_compile_reads_through_l1_then_l2(self, tmp_path):
        circuit = probe_circuit()
        target = spin_qubit_target(3)
        store = repro.use_persistent_store(str(tmp_path))
        try:
            first = repro.compile(circuit, target, "direct")
            assert first.report.cache_hit is False
            assert store.info().puts == 1
            # Fresh L1 (as in a new process): served from disk, promoted.
            clear_compilation_cache()
            warm = repro.compile(circuit, target, "direct")
            assert warm.report.cache_hit is True
            assert warm.cost == first.cost
            assert store.info().hits == 1
            # Promoted to L1: the next hit does not touch the store again.
            third = repro.compile(circuit, target, "direct")
            assert third.report.cache_hit is True
            assert store.info().hits == 1
        finally:
            repro.disable_persistent_store()


class TestStoreSpecs:
    @pytest.mark.parametrize("spec, valid", [
        ("dir:store", True),
        ("store", True),
        ("replicated:store", False),
        ("replicated:store?peers=http://127.0.0.1:1&timeout=0.5", False),
    ])
    def test_spec_at_every_entry_point(self, tmp_path, monkeypatch,
                                       spec, valid):
        """``dir:`` and bare paths open the directory; any other scheme is
        refused by the library entry points and the CLI (exit 2) without
        creating anything on disk."""
        monkeypatch.chdir(tmp_path)
        root = os.path.realpath(tmp_path / "store")
        if valid:
            assert resolve_store_backend(spec).root == root
            service = CompilationService(workers=1, store=spec)
            try:
                assert service.store.root == root
            finally:
                service.shutdown()
            ShardRouter(shards=2, store=spec)  # Validates; spawns nothing.
            return
        entry_points = (
            resolve_store_backend,
            lambda s: CompilationService(workers=1, store=s),
            lambda s: build_server(port=0, workers=1, store=s),
            lambda s: ShardRouter(shards=2, store=s),
        )
        for entry_point in entry_points:
            with pytest.raises(ValueError,
                               match="unknown store scheme 'replicated'"):
                entry_point(spec)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        completed = subprocess.run(
            [sys.executable, "-m", "repro.server", "--port", "0",
             "--store", spec],
            env=env, capture_output=True, text=True, timeout=60)
        assert completed.returncode == 2
        assert "unknown store scheme" in completed.stderr
        assert os.listdir(tmp_path) == []

    def test_none_and_store_objects_pass_through(self, tmp_path):
        assert resolve_store_backend(None) is None
        store = PersistentResultStore(str(tmp_path / "s"))
        assert resolve_store_backend(store) is store
        with pytest.raises(ValueError, match="names no directory"):
            resolve_store_backend("dir:")
        with pytest.raises(TypeError):
            resolve_store_backend(42)
