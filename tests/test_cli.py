"""Tests for the command-line driver."""

import pytest

from repro.cli import build_parser, main
from repro.errors import DeadlockError, FlowError


class TestParser:
    def test_apps_command(self):
        args = build_parser().parse_args(["apps"])
        assert args.command == "apps"

    def test_compile_defaults(self):
        args = build_parser().parse_args(["compile", "optical-flow"])
        assert args.flow == "o1"
        assert args.out is None

    def test_bad_flow_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compile", "x", "--flow", "gpu"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_apps_lists_all_six(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        for name in ("3d-rendering", "digit-recognition", "spam-filter",
                     "optical-flow", "face-detection", "bnn"):
            assert name in out

    def test_floorplan(self, capsys):
        assert main(["floorplan"]) == 0
        out = capsys.readouterr().out
        assert "xcu50" in out
        assert out.count("page") == 22

    def test_compile_o0(self, capsys, tmp_path):
        assert main(["compile", "3d-rendering", "--flow", "o0",
                     "--effort", "0.1", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "-O0" in out
        assert (tmp_path / "dfg.ir").exists()

    def test_run_o0(self, capsys):
        assert main(["run", "3d-rendering", "--flow", "o0",
                     "--effort", "0.1", "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "Output_1" in out
        assert "TOTAL" in out

    def test_unknown_app_exits_nonzero(self, capsys):
        # Toolflow errors are reported as a one-line diagnostic plus a
        # nonzero exit, not a traceback.
        assert main(["compile", "not-an-app"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: FlowError:")
        assert "not-an-app" in err


class TestErrorHandling:
    def test_pld_error_exit_code(self, capsys, monkeypatch):
        import repro.cli as cli

        def boom(_args):
            raise FlowError("injected toolflow failure")

        monkeypatch.setattr(cli, "cmd_apps", boom)
        assert main(["apps"]) == 2
        err = capsys.readouterr().err
        assert "error: FlowError: injected toolflow failure" in err

    def test_deadlock_renders_structured_report(self, capsys,
                                                monkeypatch):
        import repro.cli as cli

        def boom(_args):
            raise DeadlockError(
                "graph 'g': no runnable operator",
                blocked=["sink_2"],
                diagnostic={"fifo_occupancy": {"a->b": "4/4"}})

        monkeypatch.setattr(cli, "cmd_apps", boom)
        assert main(["apps"]) == 2
        err = capsys.readouterr().err
        assert "DeadlockError" in err
        assert "blocked: sink_2" in err
        assert "a->b: 4/4" in err

    def test_non_pld_errors_still_propagate(self, monkeypatch):
        import repro.cli as cli

        def boom(_args):
            raise RuntimeError("a bug, not a toolflow failure")

        monkeypatch.setattr(cli, "cmd_apps", boom)
        with pytest.raises(RuntimeError):
            main(["apps"])


class TestFlowLookup:
    def test_flow_constructor_keyerror_propagates(self, monkeypatch):
        # A KeyError raised *inside* a flow's __init__ is a real bug;
        # it must not be swallowed and misreported as "unknown flow".
        import repro.cli as cli

        class BrokenFlow:
            def __init__(self, effort, seed):
                raise KeyError("missing internal table entry")

        monkeypatch.setitem(cli.FLOWS, "broken", BrokenFlow)
        with pytest.raises(KeyError, match="missing internal table"):
            main(["compile", "spam-filter", "--flow", "broken"])


class TestEngineRouting:
    """'run' and 'tables' honour --cache-dir/--workers and close
    their engine — now via the CompileService engine factory, the
    single place every frontend gets its engines from."""

    def test_run_parser_accepts_engine_flags(self):
        args = build_parser().parse_args(
            ["run", "bnn", "--cache-dir", "c", "-j", "2"])
        assert args.cache_dir == "c"
        assert args.workers == 2

    def test_tables_parser_accepts_engine_flags(self):
        args = build_parser().parse_args(
            ["tables", "--cache-dir", "c", "--workers", "2"])
        assert args.cache_dir == "c"
        assert args.workers == 2

    @staticmethod
    def _tracking_engine(monkeypatch):
        from repro.core import BuildEngine
        from repro.service import CompileService

        class ClosingEngine(BuildEngine):
            closed = False

            def close(self):
                self.closed = True

        engine = ClosingEngine()
        monkeypatch.setattr(
            CompileService, "build_engine",
            lambda self, request=None, tracer=None: engine)
        return engine

    def test_run_routes_through_engine_and_closes(self, capsys,
                                                  monkeypatch):
        engine = self._tracking_engine(monkeypatch)
        assert main(["run", "3d-rendering", "--flow", "o0",
                     "--effort", "0.1"]) == 0
        assert engine.closed
        assert engine.record.build_seconds   # the compile used it

    def test_tables_routes_through_engine_and_closes(self, capsys,
                                                     monkeypatch):
        engine = self._tracking_engine(monkeypatch)
        assert main(["tables", "--apps", "digit-recognition",
                     "--effort", "0.1"]) == 0
        assert engine.closed
        assert engine.record.build_seconds

    def test_run_uses_cache_dir(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        assert main(["run", "3d-rendering", "--flow", "o0",
                     "--effort", "0.1",
                     "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        assert any(cache.iterdir())   # artefacts persisted


class TestRemoteStoreCLI:
    def test_compile_with_store_urls(self, tmp_path, capsys):
        from repro.store import ArtifactStore
        from repro.store.remote import StoreServer

        servers = [
            StoreServer(ArtifactStore(
                cache_dir=tmp_path / f"shard{i}")).start()
            for i in range(2)]
        urls = ",".join(server.url for server in servers)
        try:
            assert main(["compile", "digit-recognition",
                         "--effort", "0.1", "--store", urls]) == 0
            out = capsys.readouterr().out
            assert "store:" in out
            assert "0 shard(s) quarantined" in out

            # A second invocation has a cold local tier but a warm
            # fleet: every step is a remote hit, nothing rebuilds.
            assert main(["compile", "digit-recognition",
                         "--effort", "0.1", "--store", urls]) == 0
            out = capsys.readouterr().out
            assert "pages rebuilt: 0" in out
            import re
            match = re.search(r"store: (\d+) remote hits", out)
            assert match and int(match.group(1)) > 0
        finally:
            for server in servers:
                server.stop()

    def test_degraded_compile_then_shard_restart(self, tmp_path, capsys):
        """With one of three shards stopped, a compile finishes
        degraded: the shard is quarantined and ``--trace`` records the
        breaker opening.  Restarted on the same port and directory, the
        shard takes the next compile with nothing quarantined or owed,
        and ``fsck --shard`` passes on every shard."""
        import json

        from repro.store import ArtifactStore
        from repro.store.remote import StoreServer

        servers = [
            StoreServer(ArtifactStore(
                cache_dir=tmp_path / f"shard{i}")).start()
            for i in range(3)]
        urls = ",".join(server.url for server in servers)
        host, port = servers[1].address

        def compile_app(tier, *extra):
            assert main(["compile", "digit-recognition",
                         "--effort", "0.1", "--store", urls,
                         "--cache-dir", str(tmp_path / tier),
                         *extra]) == 0
            return capsys.readouterr().out

        try:
            servers[1].stop()
            trace = tmp_path / "degraded-trace.json"
            out = compile_app("tier-c", "--trace", str(trace))
            assert "1 shard(s) quarantined" in out
            events = json.loads(trace.read_text())["traceEvents"]
            names = {event.get("name", "") for event in events}
            assert any(n.startswith("shard:breaker-open:") for n in names)
            assert any(n.startswith("shard:degraded:") for n in names)

            servers[1] = StoreServer(
                ArtifactStore(cache_dir=tmp_path / "shard1"),
                host=host, port=port).start()
            out = compile_app("tier-d")
            assert "0 shard(s) quarantined" in out
            assert "0 write(s) owed" in out
            assert main(["fsck", "--shard", urls]) == 0
            assert capsys.readouterr().out.count(": clean,") == 3
        finally:
            for server in servers:
                server.stop()

    def test_edit_with_store_and_no_cache_dir(self, tmp_path, capsys):
        """Regression: ``pld edit --store`` with no ``--cache-dir``
        must run with a memory-only local tier — the service's one
        store is then a ``ShardedStoreClient`` over
        ``ArtifactStore(cache_dir=None)``."""
        from repro.store import ArtifactStore
        from repro.store.remote import StoreServer

        server = StoreServer(ArtifactStore(
            cache_dir=tmp_path / "shard0")).start()
        try:
            assert main(["edit", "digit-recognition",
                         "--effort", "0.1",
                         "--store", server.url]) == 0
            out = capsys.readouterr().out
            assert "baseline:" in out
            # The fleet, not a local disk tier, holds the artefacts.
            assert list(server.store.keys())
        finally:
            server.stop()

    def test_bad_store_urls_exit_2(self, capsys):
        assert main(["compile", "digit-recognition",
                     "--store", "nonsense"]) == 2
        assert main(["compile", "digit-recognition",
                     "--store", "tcp://host:notaport"]) == 2
        capsys.readouterr()
