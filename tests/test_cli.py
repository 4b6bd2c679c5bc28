"""Tests for the command-line interface."""

import pytest

from repro.cli import _EXPERIMENTS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestList:
    def test_lists_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in ("fig9", "tab1", "sec48"):
            assert key in out


class TestValidate:
    def test_prints_table(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "HIST/RID" in out and "PAD/VRID" in out
        assert "294" in out


class TestPartition:
    def test_fpga_engine(self, capsys):
        assert main(
            ["partition", "--tuples", "5000", "--partitions", "64"]
        ) == 0
        out = capsys.readouterr().out
        assert "5,000 tuples" in out
        assert "Mtuples/s" in out

    def test_cpu_backend(self, capsys):
        assert main(
            [
                "partition", "--tuples", "5000", "--partitions", "64",
                "--backend", "cpu", "--radix",
            ]
        ) == 0
        assert "cpu" in capsys.readouterr().out

    def test_parallel_engine_flag(self, capsys):
        assert main(
            [
                "partition", "--tuples", "5000", "--partitions", "64",
                "--engine", "parallel", "--threads", "2",
            ]
        ) == 0
        assert "5,000 tuples" in capsys.readouterr().out

    def test_serial_engine_cpu_backend(self, capsys):
        assert main(
            [
                "partition", "--tuples", "5000", "--partitions", "64",
                "--backend", "cpu", "--engine", "serial", "--radix",
            ]
        ) == 0
        assert "cpu" in capsys.readouterr().out

    def test_vrid_mode(self, capsys):
        assert main(
            [
                "partition", "--tuples", "5000", "--partitions", "64",
                "--mode", "HIST/VRID",
            ]
        ) == 0
        assert "HIST/VRID" in capsys.readouterr().out

    def test_bad_mode(self):
        with pytest.raises(SystemExit):
            main(["partition", "--mode", "FAST/FURIOUS"])


class TestJoin:
    def test_join_table(self, capsys):
        assert main(
            ["join", "--workload", "A", "--scale", "200000",
             "--threads", "4", "--partitions", "256"]
        ) == 0
        out = capsys.readouterr().out
        assert "cpu" in out and "matches" in out

    def test_join_with_parallel_engine(self, capsys):
        assert main(
            ["join", "--workload", "A", "--scale", "200000",
             "--threads", "2", "--partitions", "64",
             "--engine", "parallel"]
        ) == 0
        out = capsys.readouterr().out
        assert "cpu" in out and "matches" in out

    def test_skewed_join_falls_back(self, capsys):
        assert main(
            ["join", "--workload", "A", "--scale", "200000",
             "--threads", "4", "--partitions", "256", "--zipf", "1.5"]
        ) == 0
        out = capsys.readouterr().out
        assert "HIST" in out  # the skewed side retried in HIST mode


class TestServe:
    def test_batched_serving(self, capsys):
        assert main(
            ["serve", "--requests", "40", "--partitions", "32"]
        ) == 0
        out = capsys.readouterr().out
        assert "served 40 requests" in out
        assert "ok 40" in out
        assert "batched dispatch" in out

    def test_naive_dispatch_flag(self, capsys):
        assert main(
            ["serve", "--requests", "12", "--partitions", "32", "--naive"]
        ) == 0
        assert "naive dispatch" in capsys.readouterr().out

    def test_backpressure_prints_retry_hints(self, capsys):
        assert main(
            ["serve", "--requests", "64", "--partitions", "32",
             "--queue", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "retry-after hints" in out

    def test_metrics_json_output(self, tmp_path, capsys):
        target = tmp_path / "metrics.json"
        assert main(
            ["serve", "--requests", "10", "--partitions", "32",
             "--output", str(target)]
        ) == 0
        import json

        data = json.loads(target.read_text())
        assert data["counters"]["completed"] == 10
        assert "latency" in data

    def test_degradation_counters_surface(self, capsys):
        assert main(
            ["serve", "--requests", "20", "--partitions", "32",
             "--fail-rate", "1.0"]
        ) == 0
        out = capsys.readouterr().out
        assert "degraded to cpu   : 20" in out

    def test_bad_size_range(self):
        with pytest.raises(SystemExit):
            main(["serve", "--min-tuples", "100", "--max-tuples", "10"])


class TestSimulate:
    def test_unthrottled(self, capsys):
        assert main(
            ["simulate", "--tuples", "512", "--partitions", "16"]
        ) == 0
        out = capsys.readouterr().out
        assert "lines/cycle" in out

    def test_throttled(self, capsys):
        assert main(
            ["simulate", "--tuples", "512", "--partitions", "16",
             "--bandwidth", "6.5"]
        ) == 0
        assert "back-pressure" in capsys.readouterr().out

    def test_fast_forward_matches_reference(self, capsys):
        assert main(
            ["simulate", "--tuples", "512", "--partitions", "16"]
        ) == 0
        reference = capsys.readouterr().out
        assert main(
            ["simulate", "--tuples", "512", "--partitions", "16",
             "--fast-forward"]
        ) == 0
        assert capsys.readouterr().out == reference


class TestCluster:
    def test_serve_with_kill_and_identity(self, capsys):
        assert main(
            ["cluster", "serve", "--shards", "3", "--requests", "4",
             "--tuples", "4000", "--partitions", "16",
             "--distribution", "zipf", "--kill-shard", "1",
             "--check-identity"]
        ) == 0
        out = capsys.readouterr().out
        assert "killed shard-1" in out
        assert "4/4 requests verified" in out
        assert "0 failed" in out

    def test_serve_prometheus_output(self, tmp_path, capsys):
        page = tmp_path / "cluster.prom"
        assert main(
            ["cluster", "serve", "--shards", "2", "--requests", "2",
             "--tuples", "2000", "--partitions", "16",
             "--prometheus-out", str(page)]
        ) == 0
        text = page.read_text()
        assert 'shard="shard-0"' in text
        assert "repro_cluster_requests_total" in text


class TestOptimize:
    @staticmethod
    def _rows(out):
        """The explain table's rows (title, rule, headers, rule, rows,
        blank line, note), keyed by workload label."""
        lines = out.splitlines()
        headers = lines[2].split()
        body = lines[4:lines.index("", 4)]
        return {
            cells[0]: dict(zip(headers, cells))
            for cells in map(str.split, body)
        }

    def test_explain_plans_each_default_workload(self, capsys):
        assert main(["optimize", "explain", "--tuples", "20000"]) == 0
        out = capsys.readouterr().out
        assert "(planned configs)" in out
        rows = self._rows(out)
        assert sorted(rows) == ["random", "zipf(0.9)", "zipf(1.2)"]
        assert rows["zipf(1.2)"]["pad_strategy"] == "isolate"

    def test_explain_against_a_request_mode(self, capsys):
        argv = ["optimize", "explain", "--tuples", "20000",
                "--mode", "PAD/RID", "--partitions", "64"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "(request config)" in out
        rows = self._rows(out)
        assert sorted(rows) == ["random", "zipf(0.9)", "zipf(1.2)"]
        assert {row["config"] for row in rows.values()} == {"PAD/RID"}
        assert {row["fanout"] for row in rows.values()} == {"64"}
        assert rows["zipf(1.2)"]["pad_strategy"] == "isolate"


class TestReport:
    def test_report_written(self, tmp_path, capsys):
        out = tmp_path / "REPORT.md"
        assert main(["report", "--output", str(out)]) == 0
        text = out.read_text()
        assert "# Reproduction report" in text
        assert "[Figure 9]" in text
        assert "[Section 4.8]" in text


class TestExperiment:
    def test_unknown_id(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_loads_a_light_bench(self, capsys):
        assert main(["experiment", "tab2"]) == 0
        out = capsys.readouterr().out
        assert "[Table 2]" in out

    def test_every_registered_experiment_has_a_module(self):
        from repro.cli import _benchmarks_dir

        directory = _benchmarks_dir()
        assert directory is not None
        for module_name, _builder in _EXPERIMENTS.values():
            assert (directory / f"{module_name}.py").exists(), module_name
