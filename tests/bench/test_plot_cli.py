"""ASCII charting and the command-line interface."""

import os

import pytest

from repro.bench.harness import SweepPoint
from repro.bench.plot import ascii_chart, chart_sweep
from repro.cli import build_parser, main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _point(clients, servers, mean, unit="MB/s"):
    return SweepPoint(
        impl="lwfs", n_clients=clients, n_servers=servers, mean=mean, stdev=0.0, unit=unit
    )


class TestAsciiChart:
    def test_empty_series(self):
        assert "(no data)" in ascii_chart({}, title="t")

    def test_all_points_plotted(self):
        chart = ascii_chart({"s": [(1, 10.0), (2, 20.0), (3, 15.0)]}, title="demo")
        body = "\n".join(chart.splitlines()[1:-2])  # strip title + legend
        assert body.count("o") == 3
        assert "demo" in chart

    def test_series_get_distinct_glyphs(self):
        chart = ascii_chart({"a": [(1, 1.0)], "b": [(2, 2.0)]})
        assert "o=a" in chart and "x=b" in chart

    def test_log_scale_marks_legend(self):
        chart = ascii_chart({"a": [(1, 10.0), (64, 10000.0)]}, log_y=True)
        assert "[log y" in chart

    def test_single_point_does_not_divide_by_zero(self):
        chart = ascii_chart({"a": [(5, 42.0)]})
        assert "o" in chart

    def test_chart_sweep_groups_by_servers(self):
        points = [
            _point(2, 2, 100),
            _point(4, 2, 150),
            _point(2, 16, 100),
            _point(4, 16, 400),
        ]
        chart = chart_sweep(points, "Fig 9")
        assert "2 servers" in chart and "16 servers" in chart
        assert "clients" in chart


class TestCLI:
    def test_parser_knows_all_commands(self):
        parser = build_parser()
        for argv in (["table1"], ["table2"], ["checkpoint"], ["create"],
                     ["fig9"], ["fig10"], ["petaflop"], ["examples"],
                     ["trace"], ["traffic"], ["metrics", "export.json"]):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("argv", [
        ["metrics", "/nonexistent.json"],
        ["checkpoint", "--faults", "/nonexistent.json"],
        ["checkpoint", "--tiers", "/nonexistent.json"],
        ["traffic", "--workload", "/nonexistent.json"],
        ["checkpoint", "--clients", "0"],
        ["create", "--servers", "0"],
    ], ids=" ".join)
    def test_bad_input_is_a_one_line_diagnostic(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("repro: error: ")
        assert "Traceback" not in err

    def test_failed_simulated_run_exits_3(self, capsys, monkeypatch):
        # A storage crash without a buffer tier exhausts the checkpoint's
        # attempts: a simulated-run failure, not bad input.
        monkeypatch.chdir(REPO_ROOT)
        argv = ["checkpoint", "--clients", "1296", "--servers", "40", "--state-mb", "64",
                "--collapse", "--flow", "--faults", "examples/faults/storage_crash.json"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("repro: error: ")
        assert "Traceback" not in err

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Red Storm" in out and "65536" in out

    @pytest.mark.parametrize("argv", [
        ["checkpoint", "--clients", "8", "--servers", "4", "--state-mb", "8",
         "--seed", "42", "--faults", "examples/faults/storage_crash.json"],
        ["checkpoint", "--clients", "8", "--servers", "4", "--state-mb", "8",
         "--tiers", "examples/tiers/nvram_node_local.json"],
        ["traffic", "--workload", "examples/workloads/diurnal_mixed.json",
         "--servers", "8", "--seed", "1"],
        ["checkpoint", "--impl", "lustre-fpp", "--clients", "64", "--servers", "16",
         "--state-mb", "16", "--collapse"],
    ], ids=["faults", "tiers", "workload", "collapse"])
    def test_input_file_and_collapse_paths_stay_wired(self, argv, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main(argv) == 0

    def test_checkpoint_point(self, capsys):
        assert main(["checkpoint", "--impl", "lwfs", "--clients", "4",
                     "--servers", "2", "--state-mb", "8"]) == 0
        out = capsys.readouterr().out
        assert "MB/s" in out

    def test_create_point(self, capsys):
        assert main(["create", "--clients", "4", "--servers", "2",
                     "--per-client", "8"]) == 0
        assert "creates/s" in capsys.readouterr().out

    def test_fig9_small(self, capsys):
        assert main(["fig9", "--clients", "2", "4", "--servers", "2",
                     "--state-mb", "8", "--trials", "1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out and "clients" in out

    def test_petaflop(self, capsys):
        assert main(["petaflop"]) == 0
        out = capsys.readouterr().out
        assert "pfs_create_fraction" in out

    def test_examples_listing(self, capsys):
        assert main(["examples"]) == 0
        out = capsys.readouterr().out
        assert "quickstart.py" in out


    def test_figures_command(self, capsys, tmp_path):
        out_file = tmp_path / "charts.txt"
        code = main(["figures", "--out", str(out_file)])
        captured = capsys.readouterr().out
        if code == 0:
            assert "Fig 9" in captured
            assert out_file.exists()
        else:
            assert "no sweep results" in captured
