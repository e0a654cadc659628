"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.baselines.heracles import heracles_controllers
from repro.bejobs.catalog import be_job_spec
from repro.cli import build_parser, main
from repro.experiments.colocation import ColocationConfig
from repro.experiments.bakeoff import rhythm_member
from repro.experiments.fleet import rhythm_fleet_policies
from repro.experiments.runner import run_cell
from repro.faults.spec import FaultSchedule
from repro.loadgen.patterns import ConstantLoad
from repro.parallel.profile import profile_service_parallel
from repro.workloads.catalog import (
    lc_service_spec,
    service_profiling_mode,
    service_spec,
)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_profile_args(self):
        args = build_parser().parse_args(["profile", "Redis", "--no-probe"])
        assert args.service == "Redis"
        assert args.no_probe is True

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare", "Redis", "stream-dram"])
        assert args.load == 0.65
        assert args.duration == 120.0


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E-commerce" in out
        assert "SNMS" in out
        assert "stream-dram" in out

    def test_profile_without_probe(self, capsys):
        assert main(["profile", "Redis", "--no-probe"]) == 0
        out = capsys.readouterr().out
        assert "master" in out and "slave" in out
        assert "loadlimit" in out

    def test_profile_snms_matches_fleet_and_bakeoff_thresholds(self, capsys):
        # SNMS is profiled from its jaeger spans by every command, so the
        # table `profile` prints is what the fleet and bake-off run.
        assert service_profiling_mode(service_spec("SNMS")) == "jaeger"
        assert service_profiling_mode(lc_service_spec("Redis")) == "direct"
        assert main(["profile", "SNMS", "--no-probe"]) == 0
        table = {}
        for line in capsys.readouterr().out.splitlines():
            cells = [c.strip() for c in line.split("|")]
            if len(cells) == 7 and cells[0] != "Servpod":
                table[cells[0]] = (float(cells[5]), float(cells[6]))
        policies = rhythm_fleet_policies("SNMS")
        assert set(table) == set(policies) == set(service_spec("SNMS").servpod_names)
        for pod, policy in policies.items():
            assert table[pod] == (
                round(policy.loadlimit, 2), round(policy.slacklimit, 3)
            )
        assert rhythm_member("SNMS").policies == tuple(sorted(policies.items()))

    def test_profile_unknown_service_fails_cleanly(self, capsys):
        assert main(["profile", "Netflix", "--no-probe"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_compare_unknown_be_fails_cleanly(self, capsys):
        assert main(["compare", "Redis", "fortnite"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_trace(self, capsys):
        assert main(["trace", "Redis", "--requests", "30"]) == 0
        out = capsys.readouterr().out
        assert "kernel events" in out
        assert "master" in out


class TestChaosCli:
    def test_systems_match_scalar_solo_runs(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("RHYTHM_CACHE_DIR", str(tmp_path / "cache"))
        report = tmp_path / "storm.json"
        argv = ["chaos", "Redis", "stream-dram", "--duration", "20",
                "--json", str(report)]
        assert main(argv) == 0
        assert "violation gap" in capsys.readouterr().out
        payload = json.loads(report.read_text())
        service = lc_service_spec("Redis")
        schedule = FaultSchedule.generate(
            1, 20.0, targets=tuple(service.servpod_names), faults_per_minute=3.0
        )
        assert len(payload["schedule"]) == len(schedule)
        config = ColocationConfig(duration_s=20.0, faults=schedule)
        controllers = {
            "rhythm": profile_service_parallel(
                service, probe_slacklimits=False, workers=1
            ).controllers(),
            "heracles": heracles_controllers(service),
        }
        assert list(payload["systems"]) == list(controllers)
        for name, members in controllers.items():
            result = run_cell(
                service, members, be_job_spec("stream-dram"), ConstantLoad(0.5),
                config=config, kernel="scalar",
            )
            assert payload["systems"][name] == {
                "sla_violations": result.sla_violations,
                "worst_tail_ms": result.worst_tail_ms,
                "be_kills": result.be_kills,
                "be_throughput": result.be_throughput,
                "emu": result.emu,
            }

    def test_unknown_service_error_lists_snms(self, capsys):
        assert main(["chaos", "Nope", "x"]) == 2
        err = capsys.readouterr().err
        assert "error: unknown LC service 'Nope'" in err
        assert "'SNMS'" in err and "'Redis'" in err


class TestFleetCli:
    def test_fleet_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.machines == 1000
        assert args.shards == 4
        assert args.violation_threshold is None
        assert args.policies == ["rhythm", "heracles"]

    def test_fleet_cache_flag_defaults_on(self):
        args = build_parser().parse_args(["fleet"])
        assert args.cache is True
        assert build_parser().parse_args(["fleet", "--no-cache"]).cache is False

    def test_fleet_runs_small(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("RHYTHM_CACHE_DIR", str(tmp_path / "cachedir"))
        out_file = tmp_path / "fleet.json"
        argv = [
            "fleet", "--machines", "4", "--duration", "20",
            "--shards", "2", "--workers", "1", "--seed", "3",
            "--zone-size", "1", "--policies", "heracles",
            "--json", str(out_file),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "heracles" in out and "Fleet" in out
        assert "misses" in out and "zones" in out  # the cache stats line
        import json as _json

        report = _json.loads(out_file.read_text())
        assert report["heracles"]["machines"] >= 4
        assert report["heracles"]["digest"]
        assert report["heracles"]["cache"]["misses"] > 0
        # A warm CLI re-run serves every zone from the store.
        assert main(argv) == 0
        warm_out = capsys.readouterr().out
        warm = _json.loads(out_file.read_text())
        assert warm["heracles"]["cache"]["misses"] == 0
        assert warm["heracles"]["cache"]["hits"] > 0
        assert warm["heracles"]["digest"] == report["heracles"]["digest"]
        assert "0 misses" in warm_out

    def test_fleet_no_cache_has_no_stats_line(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("RHYTHM_CACHE_DIR", str(tmp_path / "cachedir"))
        assert main([
            "fleet", "--machines", "2", "--duration", "10",
            "--workers", "1", "--zone-size", "1",
            "--policies", "heracles", "--no-cache",
        ]) == 0
        assert "zones" not in capsys.readouterr().out


class TestCacheCli:
    def test_grid_cache_flag_defaults_on(self):
        args = build_parser().parse_args(["grid", "servpod"])
        assert args.cache is True

    def test_grid_no_cache_flag(self):
        args = build_parser().parse_args(["grid", "servpod", "--no-cache"])
        assert args.cache is False

    def test_cache_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])

    def test_cache_stats(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("RHYTHM_CACHE_DIR", str(tmp_path / "cachedir"))
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "cachedir" in out
        assert "entries" in out

    def test_cache_clear(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("RHYTHM_CACHE_DIR", str(tmp_path / "cachedir"))
        from repro.cache import CacheStore, stable_hash

        store = CacheStore(tmp_path / "cachedir")
        store.put(stable_hash("x"), 1)
        assert main(["cache", "clear"]) == 0
        assert "1" in capsys.readouterr().out
        assert store.stats().entries == 0


class TestStormCli:
    def test_storm_defaults(self):
        args = build_parser().parse_args(["storm"])
        assert args.machines == 1000
        assert args.storm_seed == 1
        assert args.events_per_minute == 1.0
        assert args.policies == ["rhythm", "heracles"]
        assert args.cache is True
        assert args.baseline is False

    def test_storm_runs_small(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("RHYTHM_CACHE_DIR", str(tmp_path / "cachedir"))
        out_file = tmp_path / "storm.json"
        argv = [
            "storm", "--machines", "8", "--duration", "40",
            "--shards", "2", "--workers", "1", "--seed", "3",
            "--storm-seed", "7", "--events-per-minute", "2",
            "--zone-size", "2", "--policies", "heracles",
            "--baseline", "--json", str(out_file),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "storm seed 7" in out
        assert "blast zones" in out
        assert "viols vs healthy" in out
        import json as _json

        report = _json.loads(out_file.read_text())
        assert report["topology"]["instances"] == 4
        assert report["events"]
        for event in report["events"]:
            assert event["blast_zones"]
        assert report["policies"]["heracles"]["digest"]
        assert report["baselines"]["heracles"]["digest"]
        # A warm CLI re-run of the identical storm is all cache hits.
        assert main(argv) == 0
        capsys.readouterr()
        warm = _json.loads(out_file.read_text())
        assert warm["policies"]["heracles"]["digest"] == (
            report["policies"]["heracles"]["digest"]
        )

    def test_storm_shard_count_does_not_change_digest(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("RHYTHM_CACHE_DIR", str(tmp_path / "cachedir"))
        digests = []
        for shards in ("1", "2"):
            out_file = tmp_path / f"storm-{shards}.json"
            assert main([
                "storm", "--machines", "8", "--duration", "40",
                "--shards", shards, "--workers", "1",
                "--zone-size", "2", "--policies", "heracles",
                "--no-cache", "--json", str(out_file),
            ]) == 0
            capsys.readouterr()
            import json as _json

            digests.append(
                _json.loads(out_file.read_text())["policies"]["heracles"]["digest"]
            )
        assert digests[0] == digests[1]


class TestScenarioCli:
    def test_scenario_requires_kind(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenario"])

    def test_scenario_defaults(self):
        args = build_parser().parse_args(["scenario", "canary"])
        assert args.kind == "canary"
        assert args.slowdown == 0.08
        assert args.threshold == 1.10
        assert args.multipliers == [1.0, 1.5, 2.0]

    def test_canary_runs_small(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("RHYTHM_CACHE_DIR", str(tmp_path / "cachedir"))
        out_file = tmp_path / "canary.json"
        assert main([
            "scenario", "canary", "--machines", "8", "--duration", "40",
            "--seed", "3", "--slowdown", "0.5", "--json", str(out_file),
        ]) == 0
        out = capsys.readouterr().out
        assert "canary rollout" in out
        assert "REGRESSED" in out
        import json as _json

        report = _json.loads(out_file.read_text())
        assert report["kind"] == "canary"
        assert report["detection_rate"] == 1.0
        assert report["digest"] != report["baseline_digest"]

    def test_drift_runs_small(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("RHYTHM_CACHE_DIR", str(tmp_path / "cachedir"))
        out_file = tmp_path / "drift.json"
        assert main([
            "scenario", "drift", "--epochs", "2", "--json", str(out_file),
        ]) == 0
        out = capsys.readouterr().out
        assert "workload drift" in out
        import json as _json

        report = _json.loads(out_file.read_text())
        assert report["kind"] == "drift"
        assert len(report["epochs"]) == 2
        # The cached second epoch only simulates the newly-entered point.
        assert report["epochs"][1]["sweep_cache_hits"] > 0

    def test_capacity_runs_small(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("RHYTHM_CACHE_DIR", str(tmp_path / "cachedir"))
        out_file = tmp_path / "capacity.json"
        assert main([
            "scenario", "capacity", "--multipliers", "1.0", "2.0",
            "--duration", "40", "--json", str(out_file),
        ]) == 0
        out = capsys.readouterr().out
        assert "capacity plan" in out
        import json as _json

        report = _json.loads(out_file.read_text())
        assert report["kind"] == "capacity"
        machines = [row["machines"] for row in report["rows"]]
        assert machines == sorted(machines)


class TestTraceCli:
    def test_fleet_trace_flag(self, capsys, monkeypatch, tmp_path):
        from repro.loadgen.alibaba import DATA_FILE

        monkeypatch.setenv("RHYTHM_CACHE_DIR", str(tmp_path / "cachedir"))
        assert main([
            "fleet", "--machines", "4", "--duration", "20",
            "--workers", "1", "--zone-size", "1", "--policies", "heracles",
            "--load", "alibaba", "--trace", str(DATA_FILE), "--no-cache",
        ]) == 0
        assert "heracles" in capsys.readouterr().out

    def test_fleet_trace_requires_alibaba_load(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("RHYTHM_CACHE_DIR", str(tmp_path / "cachedir"))
        assert main([
            "fleet", "--machines", "4", "--duration", "20",
            "--trace", "somefile.csv",
        ]) != 0
        assert "error:" in capsys.readouterr().err

    def test_fleet_missing_trace_fails_cleanly(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("RHYTHM_CACHE_DIR", str(tmp_path / "cachedir"))
        assert main([
            "fleet", "--machines", "4", "--duration", "20",
            "--load", "alibaba", "--trace", str(tmp_path / "absent.csv"),
        ]) != 0
        assert "error:" in capsys.readouterr().err
