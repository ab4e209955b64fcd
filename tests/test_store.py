"""Tests for the persistent content-addressed artifact store.

Covers the round-trip of every artifact kind through the disk backend
(read back by a *fresh* store instance, as a second process would),
the integrity/version checks, the bounded in-memory LRU, and a
hypothesis property that content keys are deterministic over generated
operator specs — the fact the cross-process cache rests on.
"""

import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import StoreError
from repro.core.build import BuildCache, BuildEngine, content_key
from repro.fabric.bitstream import Bitstream
from repro.hls import OperatorBuilder
from repro.hls.estimate import estimate_operator
from repro.hls.netlist import synthesize_netlist
from repro.hls.schedule import schedule_operator
from repro.noc.linking import build_link_configuration
from repro.pnr.compile_model import implement_design
from repro.softcore.compiler import compile_operator
from repro.store import (
    STORE_VERSION,
    ArtifactStore,
    artifact_kind,
    decode_artifact,
    encode_artifact,
)
from repro.store.serial import ARTIFACT_KINDS
from repro.dataflow import DataflowGraph, Operator
from repro.fabric.page import page_by_number


def make_spec(name="k", factor=3, extra_vars=0):
    b = OperatorBuilder(name, inputs=[("x", 32)], outputs=[("y", 32)])
    for i in range(extra_vars):
        b.variable(f"t{i}", 16)
    v = b.read("x")
    b.write("y", b.cast(b.mul(v, factor), 32))
    return b.build()


def _two_op_graph():
    def body(io):
        while True:
            value = yield io.read("in")
            yield io.write("out", value)

    g = DataflowGraph("app")
    g.add(Operator("a", body, ["in"], ["out"]))
    g.add(Operator("b", body, ["in"], ["out"]))
    g.connect("a.out", "b.in")
    g.expose_input("src", "a.in")
    g.expose_output("dst", "b.out")
    return g


def sample_artifacts():
    """One representative artefact per kind the flows cache."""
    spec = make_spec()
    estimate = estimate_operator(spec)
    netlist = synthesize_netlist("k", estimate, n_ports=2)
    page = page_by_number(1)
    impl = implement_design(netlist, page.page_type.grid(),
                            context_luts=page.luts, effort=0.05)
    return {
        "netlist": netlist,
        "schedule": schedule_operator(spec),
        "bitstream": Bitstream("page_1.xclbin", 5_000, brams=4,
                               content_digest="abc123"),
        "softcore-binary": compile_operator(spec),
        "link-configuration": build_link_configuration(
            _two_op_graph(), {"a": 1, "b": 2}),
        "implementation": impl,
        "bundle": (schedule_operator(spec), estimate, "module k;",
                   netlist),
    }


class TestSerialization:
    def test_round_trip_every_kind(self):
        for expect_kind, artifact in sample_artifacts().items():
            key = content_key(expect_kind, "probe")
            kind, back = decode_artifact(encode_artifact(key, artifact),
                                         expect_key=key)
            assert kind == expect_kind
            assert artifact_kind(artifact) == expect_kind
            assert pickle.dumps(back) == pickle.dumps(artifact)
        assert ARTIFACT_KINDS == set(sample_artifacts()) | {"object"}

    def test_key_mismatch_rejected(self):
        data = encode_artifact("aaa", "payload")
        with pytest.raises(StoreError):
            decode_artifact(data, expect_key="bbb")

    def test_corrupt_payload_rejected(self):
        data = encode_artifact("k1", {"v": 1})
        with pytest.raises(StoreError):
            decode_artifact(data[:-3] + b"xxx", expect_key="k1")

    def test_unknown_kind_rejected(self):
        # The payload digest does not cover the header, so a mangled
        # kind must be refused by name.
        data = encode_artifact("k1", "payload")
        for mangled in (b'"kind": " bject"', b'"kind": 7', b'"knd": "object"'):
            bad = data.replace(b'"kind": "object"', mangled)
            with pytest.raises(StoreError, match="kind"):
                decode_artifact(bad, expect_key="k1")

    def test_version_skew_rejected(self):
        data = encode_artifact("k1", "payload")
        head, sep, payload = data.partition(b"\n")
        head = head.replace(f'"version": {STORE_VERSION}'.encode(),
                            f'"version": {STORE_VERSION + 1}'.encode())
        with pytest.raises(StoreError):
            decode_artifact(head + sep + payload, expect_key="k1")

    def test_unpicklable_artifact_rejected(self):
        with pytest.raises(StoreError):
            encode_artifact("k1", lambda: None)


class TestDiskBackend:
    def test_fresh_store_serves_every_kind(self, tmp_path):
        """A second process (fresh instance) reads what the first wrote."""
        artifacts = sample_artifacts()
        writer = ArtifactStore(cache_dir=tmp_path)
        keys = {}
        for kind, artifact in artifacts.items():
            keys[kind] = content_key("step", kind)
            writer.put(keys[kind], artifact)

        reader = ArtifactStore(cache_dir=tmp_path)
        for kind, artifact in artifacts.items():
            back = reader.get(keys[kind])
            assert back is not None, f"disk miss for {kind}"
            assert pickle.dumps(back) == pickle.dumps(artifact)
            assert reader.kind_of(keys[kind]) == kind
        assert reader.disk_hits == len(artifacts)
        assert reader.misses == 0

    def test_corrupt_file_degrades_to_miss_and_heals(self, tmp_path):
        store = ArtifactStore(cache_dir=tmp_path)
        key = content_key("x")
        store.put(key, {"payload": 1})
        path = store._path(key)
        path.write_bytes(path.read_bytes()[:-4] + b"zzzz")

        fresh = ArtifactStore(cache_dir=tmp_path)
        assert fresh.get(key) is None
        assert fresh.corrupt == 1
        assert not path.exists()          # dropped, heals on next put
        fresh.put(key, {"payload": 1})
        assert ArtifactStore(cache_dir=tmp_path).get(key) == {"payload": 1}

    def test_memory_only_store_works(self):
        store = ArtifactStore()
        store.put("k", "v")
        assert store.get("k") == "v"
        assert store.get("absent") is None
        assert store.stats()["disk_writes"] == 0

    def test_prune_keeps_only_reachable(self, tmp_path):
        store = ArtifactStore(cache_dir=tmp_path)
        keep = content_key("keep")
        drop = content_key("drop")
        store.put(keep, 1)
        store.put(drop, 2)
        assert store.prune([keep]) == 1
        assert sorted(store.keys()) == [keep]

    def test_engine_hits_survive_processes(self, tmp_path):
        """The tentpole behaviour: warm second engine, zero rebuilds."""
        spec = make_spec()

        def run():
            engine = BuildEngine(cache=ArtifactStore(cache_dir=tmp_path))
            engine.step("hls:k", (spec,), lambda: ("artefact",))
            return engine

        first = run()
        second = run()
        assert first.record.built == ["hls:k"]
        assert second.record.built == []
        assert second.record.reused == ["hls:k"]
        assert second.record.keys == first.record.keys


class TestBoundedCache:
    def test_lru_evicts_oldest(self):
        cache = BuildCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")               # refresh a; b is now oldest
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.evictions == 1

    def test_miss_counted_in_get_not_put(self):
        cache = BuildCache()
        cache.put("a", 1)            # warming is not a miss
        cache.put("b", 2)
        assert cache.misses == 0
        assert cache.get("a") == 1
        assert cache.get("absent") is None
        assert (cache.hits, cache.misses) == (1, 1)

    def test_stats_shape(self):
        stats = BuildCache().stats()
        assert set(stats) == {"hits", "misses", "evictions", "entries"}

    def test_store_bounds_memory_but_not_disk(self, tmp_path):
        store = ArtifactStore(cache_dir=tmp_path, max_entries=2)
        keys = [content_key(i) for i in range(5)]
        for key in keys:
            store.put(key, key)
        assert len(store.memory) == 2
        # Evicted entries still come back from disk.
        for key in keys:
            assert store.get(key) == key


class TestContentKeyProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=0xFFFF),
           st.integers(min_value=0, max_value=4))
    def test_key_deterministic_over_specs(self, factor, extra_vars):
        """Independently built identical specs hash identically."""
        a = make_spec("op", factor, extra_vars)
        b = make_spec("op", factor, extra_vars)
        assert content_key(a) == content_key(b)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=0xFFFF))
    def test_key_sensitive_to_content(self, factor):
        base = make_spec("op", factor)
        edited = make_spec("op", factor + 1)
        assert content_key(base) != content_key(edited)
        assert content_key(base) != content_key(make_spec("op", factor, 1))


class TestDiskWriteFailure:
    """OSError during the disk publish surfaces as a structured
    StoreError (CLI exit 2), never a raw OSError traceback.

    Before the fix, a full disk or permission flip mid-`os.replace`
    escaped `_disk_write` as a bare OSError.
    """

    def test_replace_failure_is_store_error(self, tmp_path, monkeypatch):
        store = ArtifactStore(cache_dir=tmp_path)
        key = content_key("enospc")

        def full_disk(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("repro.store.artifact.os.replace", full_disk)
        with pytest.raises(StoreError, match="failed writing artifact"):
            store.put(key, {"payload": 1})
        monkeypatch.undo()

        # No .tmp litter left behind the failed publish.
        assert not list(tmp_path.rglob("*.tmp"))
        # The store still works once the condition clears.
        store.put(key, {"payload": 1})
        assert ArtifactStore(cache_dir=tmp_path).get(key) == {"payload": 1}

    def test_mkstemp_failure_is_store_error(self, tmp_path, monkeypatch):
        store = ArtifactStore(cache_dir=tmp_path)

        def no_stage(*args, **kwargs):
            raise OSError(13, "Permission denied")

        monkeypatch.setattr("repro.store.artifact.tempfile.mkstemp",
                            no_stage)
        with pytest.raises(StoreError, match="cannot stage artifact"):
            store.put(content_key("eacces"), {"payload": 2})

    def test_store_error_is_a_build_error(self):
        """StoreError stays inside the PLD error taxonomy: the CLI's
        `except PLDError` turns it into exit code 2."""
        from repro.errors import BuildError, PLDError
        assert issubclass(StoreError, BuildError)
        assert issubclass(StoreError, PLDError)


class TestSerialFuzz:
    """decode_artifact must refuse arbitrary bytes with StoreError only —
    never KeyError, AttributeError, struct.error or a raw pickle crash."""

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=512))
    def test_arbitrary_bytes_raise_store_error_only(self, data):
        try:
            decode_artifact(data)
        except StoreError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=200), st.binary(max_size=8))
    @example(cut=37, extra=b" ")   # "object" -> " bject" in the header
    def test_mutated_valid_encoding(self, cut, extra):
        """Truncations/suffixes of a real encoding decode fully or fail
        structurally — no exception outside StoreError."""
        data = encode_artifact("k" * 16, {"a": [1, 2, 3]})
        mutated = data[:cut] + extra + data[cut:cut] + data[cut + len(extra):]
        try:
            kind, artifact = decode_artifact(mutated)
        except StoreError:
            return
        assert kind == "object"
        assert artifact == {"a": [1, 2, 3]}

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=64))
    def test_json_scalars_and_lists_as_header(self, line):
        """Any JSON-decodable header that is not an object must fail
        as a corrupt header, not an AttributeError (the pre-fix bug)."""
        for head in (b"5", b"[1]", b'"s"', b"null", b"true",
                     line.encode("utf-8", "replace")):
            try:
                decode_artifact(head + b"\n" + b"payload")
            except StoreError:
                pass
