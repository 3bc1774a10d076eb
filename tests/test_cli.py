"""Tests for the ``python -m repro`` command-line interface."""

import functools
import inspect
import socket

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_reproduce_flags(self):
        args = build_parser().parse_args(["reproduce", "--analytic"])
        assert args.analytic is True
        assert args.full is False

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.platform == "shmcaffe_a"
        assert args.workers == 4
        assert args.moving_rate == pytest.approx(0.2)

    def test_train_rejects_unknown_platform(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--platform", "pytorch"])

    def test_bandwidth_connect_parsing(self):
        args = build_parser().parse_args(
            ["bandwidth", "--connect", "10.0.0.1:7000"]
        )
        assert args.connect == "10.0.0.1:7000"

    def test_global_flag_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.log_level == "warning"
        assert args.telemetry == "off"
        assert args.telemetry_out == ""

    def test_telemetry_and_log_level_flags(self):
        args = build_parser().parse_args(
            ["--log-level", "debug", "--telemetry", "trace",
             "--telemetry-out", "/tmp/t", "train"]
        )
        assert args.log_level == "debug"
        assert args.telemetry == "trace"
        assert args.telemetry_out == "/tmp/t"

    def test_telemetry_mode_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--telemetry", "loud", "train"])

    def test_telemetry_report_requires_path(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["telemetry", "report"])
        args = build_parser().parse_args(
            ["telemetry", "report", "run/metrics.json"]
        )
        assert args.metrics == "run/metrics.json"

    def test_serve_gateway_is_the_read_tiers_only_door(self):
        """The replica has no SMB port and no pool to size: ``serve
        replica`` and ``--capacity-mb`` are gone, not ignored."""
        gateway = ["serve", "gateway", "--connect", "x:1", "--segments", "W_g"]
        args = build_parser().parse_args(gateway)
        assert args.segments == "W_g" and args.replicas == 2
        for argv in (
            ["serve", "replica", "--connect", "x:1", "--segments", "W_g"],
            gateway + ["--capacity-mb", "1"],
        ):
            with pytest.raises(SystemExit) as refused:
                build_parser().parse_args(argv)
            assert refused.value.code == 2

    def test_smb_bench_is_gone(self):
        """``benchmarks/e2e`` is the only ruler: no in-package benchmark
        sub-command is left to run beside it."""
        with pytest.raises(SystemExit) as refused:
            build_parser().parse_args(["smb", "bench", "--quick"])
        assert refused.value.code == 2


class TestExecution:
    def test_train_tiny_run(self, capsys):
        code = main(
            [
                "train", "--platform", "shmcaffe_a", "--workers", "2",
                "--epochs", "1", "--samples-per-class", "30",
                "--batch-size", "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "final acc" in out
        assert "shmcaffe_a" in out

    def test_reproduce_analytic_prints_tables(self, capsys):
        code = main(["reproduce", "--analytic"])
        assert code == 0
        out = capsys.readouterr().out
        for marker in ("fig9/table2", "fig12-13/table5", "fig15"):
            assert marker in out

    def test_train_with_telemetry_saves_and_reports(self, capsys, tmp_path):
        from repro import telemetry
        from repro.telemetry import runtime

        original = telemetry.current()
        try:
            code = main(
                [
                    "--telemetry", "trace",
                    "--telemetry-out", str(tmp_path),
                    "train", "--platform", "shmcaffe_a", "--workers", "2",
                    "--epochs", "1", "--samples-per-class", "20",
                    "--batch-size", "5",
                ]
            )
        finally:
            runtime._current = original
        assert code == 0
        out = capsys.readouterr().out
        assert "phase timings (eq. 8)" in out
        assert (tmp_path / "metrics.json").exists()
        assert (tmp_path / "trace.json").exists()

        code = main(
            ["telemetry", "report", str(tmp_path / "metrics.json")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "phase timings (eq. 8)" in out

    def test_smb_tenants_lists_quotas_and_usage(self, capsys):
        import json

        from repro.smb import SMBClient, TcpSMBServer

        server = TcpSMBServer(capacity=1 << 20).start()
        try:
            admin = SMBClient.connect(server.address)
            admin.create_tenant("alice", quota=4096)
            alice = SMBClient.connect(server.address, tenant="alice")
            alice.create_buffer("w", 1024)
            host, port = server.address
            code = main(
                ["smb", "tenants", "--address", f"{host}:{port}"]
            )
            assert code == 0
            out = capsys.readouterr().out
            assert "alice" in out
            assert "4096" in out
            code = main(
                ["smb", "tenants", "--address", f"{host}:{port}", "--json"]
            )
            assert code == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["alice"]["used"] == 1024
            alice.close()
            admin.close()
        finally:
            server.stop()

    def test_smb_members_renders_the_job(self, capsys, tmp_path):
        import json

        from repro.smb import MembershipRegistry
        from repro.smb.client import SlotClaim
        from repro.telemetry import TelemetrySession

        registry = MembershipRegistry(
            tmp_path / "registry", telemetry=TelemetrySession("off")
        )
        registry.publish_job(
            {"mode": "tcp", "host": "127.0.0.1", "port": 4711},
            {"count": 4, "capacity": 3, "algorithm": "seasgd"},
        )
        registry.join("w0", lambda: SlotClaim(0, 1))
        registry.join("w1", lambda: SlotClaim(1, 1))
        code = main(
            ["smb", "members", "--registry", str(tmp_path / "registry")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "capacity: 3" in out
        assert "tcp 127.0.0.1:4711" in out
        assert "2 live" in out
        assert "w0" in out and "w1" in out
        code = main(
            ["smb", "members", "--registry", str(tmp_path / "registry"),
             "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["members"]) == {"w0", "w1"}
        assert doc["job"]["capacity"] == 3

    def test_telemetry_report_bad_input_is_clean_error(self, capsys, tmp_path):
        code = main(["telemetry", "report", str(tmp_path / "missing.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"hello": 1}')
        code = main(["telemetry", "report", str(bogus)])
        assert code == 1
        err = capsys.readouterr().err
        assert "not a telemetry metrics dump" in err


def _error_lines(err):
    return [line for line in err.splitlines() if "error:" in line]


class TestEndpointFlags:
    """Every ``host:port`` flag is read by one parser: a malformed value
    is a usage error, an unreachable server one ``error:`` line."""

    @pytest.mark.parametrize("argv", [
        ["smb", "tenants", "--address", "localhost"],
        ["smb", "tenants", "--address", "127.0.0.1:port"],
        ["bandwidth", "--connect", "10.0.0.1"],
        ["checkpoint", "save", "--connect", ":7000"],
        ["serve", "gateway", "--connect", "127.0.0.1:99999",
         "--segments", "W_g", "--sync-timeout", "0.1"],
    ])
    def test_malformed_endpoint_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert len(_error_lines(capsys.readouterr().err)) == 1

    @pytest.mark.parametrize("command", [
        ["smb", "tenants", "--address"],
        ["checkpoint", "save", "--connect"],
    ])
    def test_unreachable_server_is_one_error_line(self, command, capsys):
        with socket.socket() as closed:  # bound, never listening
            closed.bind(("127.0.0.1", 0))
            host, port = closed.getsockname()
            code = main(command + [f"{host}:{port}"])
        assert code == 1
        assert len(_error_lines(capsys.readouterr().err)) == 1

    def test_members_of_a_missing_registry_creates_nothing(
        self, capsys, tmp_path
    ):
        missing = tmp_path / "registry"
        code = main(["smb", "members", "--registry", str(missing)])
        assert code == 1
        assert len(_error_lines(capsys.readouterr().err)) == 1
        assert not missing.exists()

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_members_of_a_registry_without_a_job_is_one_error_line(
        self, flags, capsys, tmp_path
    ):
        empty = tmp_path / "registry"
        empty.mkdir()
        code = main(["smb", "members", "--registry", str(empty)] + flags)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(_error_lines(captured.err)) == 1


class TestChaosScenarioDefaults:
    """``--workers`` / ``--iterations`` default per ``smb chaos`` scenario."""

    class Recorded(Exception):
        pass

    @pytest.fixture
    def drill_calls(self, monkeypatch):
        """Record the elastic drill's kwargs instead of running it."""
        from repro.experiments import elastic

        calls = []

        @functools.wraps(elastic.run_elastic_drill)
        def record(workdir, **kwargs):
            calls.append(kwargs)
            raise self.Recorded

        monkeypatch.setattr(elastic, "run_elastic_drill", record)
        return calls

    def test_elastic_defaults_leave_the_joiner_a_slot(
        self, drill_calls, tmp_path
    ):
        from repro.experiments.elastic import run_elastic_drill

        defaults = inspect.signature(run_elastic_drill).parameters
        with pytest.raises(self.Recorded):
            main(["smb", "chaos", "--scenario", "elastic",
                  "--workdir", str(tmp_path)])
        (kwargs,) = drill_calls
        workers = kwargs.get("num_workers", defaults["num_workers"].default)
        assert workers < kwargs["max_workers"]
        iterations = kwargs.get("iterations", defaults["iterations"].default)
        assert iterations >= defaults["iterations"].default

    def test_elastic_passes_on_what_the_user_set(self, drill_calls, tmp_path):
        with pytest.raises(self.Recorded):
            main(["smb", "chaos", "--scenario", "elastic", "--workers", "3",
                  "--iterations", "80", "--workdir", str(tmp_path)])
        (kwargs,) = drill_calls
        assert (kwargs["num_workers"], kwargs["iterations"]) == (3, 80)

    @pytest.mark.parametrize("flags", [["--workers", "4"],
                                       ["--max-workers", "2"]])
    def test_elastic_refuses_a_fleet_with_no_free_slot(
        self, drill_calls, tmp_path, capsys, flags
    ):
        code = main(["smb", "chaos", "--scenario", "elastic", *flags,
                     "--workdir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert drill_calls == []

    def test_faults_keeps_four_workers_and_six_iterations(self, capsys):
        assert main(["smb", "chaos"]) == 0
        assert "chaos drill: 4 workers x 6 iters" in capsys.readouterr().out
