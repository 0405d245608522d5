"""Exploration JSON persistence and the CLI."""

import io
import json

import pytest

from repro.core.config import ExplorationSettings
from repro.core.exploration import ExhaustiveExplorer
from repro.io.results import load_exploration, save_exploration
from repro.cli import build_parser, main

SETTINGS = ExplorationSettings(
    bitwidths=(2, 4, 6, 8), activity_cycles=12, activity_batch=12
)


@pytest.fixture(scope="module")
def exploration(booth8_domained):
    return ExhaustiveExplorer(booth8_domained).run(SETTINGS)


class TestResultsJson:
    def test_roundtrip(self, exploration):
        stream = io.StringIO()
        save_exploration(exploration, stream)
        stream.seek(0)
        loaded = load_exploration(stream)
        assert loaded.design_name == exploration.design_name
        assert loaded.num_domains == exploration.num_domains
        assert loaded.points_evaluated == exploration.points_evaluated
        assert loaded.settings == exploration.settings
        assert sorted(loaded.best_per_bitwidth) == sorted(
            exploration.best_per_bitwidth
        )
        for bits, point in exploration.best_per_bitwidth.items():
            assert loaded.best_per_bitwidth[bits] == point
        assert loaded.best_per_knob_point == exploration.best_per_knob_point
        assert loaded.feasible_counts == exploration.feasible_counts

    def test_is_valid_json(self, exploration):
        stream = io.StringIO()
        save_exploration(exploration, stream)
        payload = json.loads(stream.getvalue())
        assert payload["schema"] == 1
        assert payload["kind"] == "repro-exploration"

    def test_corrupt_json_rejected(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            load_exploration(io.StringIO('{"schema": 1,'))

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="not an exploration result"):
            load_exploration(io.StringIO('[{"bits": 8, "cycles": 100}]'))

    def test_schema_mismatch_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            load_exploration(io.StringIO('{"schema": 99}'))


class TestCli:
    def test_parser_has_all_commands(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("explore", "compare", "report-timing", "characterize"):
            assert command in text

    def test_characterize_runs(self, capsys):
        assert main(["characterize"]) == 0
        out = capsys.readouterr().out
        assert "NAND2" in out

    def test_characterize_writes_liberty(self, tmp_path):
        path = tmp_path / "out.lib"
        assert main(["characterize", "--lib", str(path)]) == 0
        assert path.read_text().startswith("library (")

    def test_explore_small_design(self, capsys, tmp_path):
        out_json = tmp_path / "modes.json"
        code = main(
            [
                "explore", "--design", "adder", "--width", "4",
                "--grid", "1x2", "--output", str(out_json),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "explored" in out
        saved = json.loads(out_json.read_text())
        assert saved["design_name"].startswith("adder")

    def test_exploration_result_is_not_a_mode_table(self, capsys, tmp_path):
        out_json = tmp_path / "x.json"
        code = main(
            [
                "explore", "--design", "adder", "--width", "4",
                "--grid", "1x2", "--output", str(out_json),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"exploration result written to {out_json}" in out
        assert main(["replay", "--table", str(out_json)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "error: not a mode table (kind='repro-exploration'"
        )
        assert "repro compile-table" in err
        assert "--exploration FILE" in err

    def test_mode_table_is_not_an_exploration(self, capsys, tmp_path):
        table = tmp_path / "t.json"
        design = ["--design", "adder", "--width", "4", "--grid", "1x2"]
        assert main(["compile-table", *design, "--output", str(table)]) == 0
        capsys.readouterr()
        code = main(
            [
                "compile-table", *design, "--exploration", str(table),
                "--output", str(tmp_path / "u.json"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == (
            "error: not an exploration result (kind='repro-mode-table'); "
            "write one with `repro explore --output FILE`\n"
        )

    def test_trace_is_not_an_exploration(self, capsys, tmp_path):
        assert main(
            [
                "gen-traces", "--family", "bursty", "--length", "8",
                "--output-dir", str(tmp_path),
            ]
        ) == 0
        capsys.readouterr()
        code = main(
            [
                "compile-table", "--design", "adder", "--width", "4",
                "--grid", "1x2",
                "--exploration", str(tmp_path / "trace_bursty.json"),
                "--output", str(tmp_path / "t.json"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "error: not an exploration result (kind='repro-workload-trace')"
        )
        assert err.count("\n") == 1

    def test_report_timing_runs(self, capsys):
        code = main(
            [
                "report-timing", "--design", "adder", "--width", "4",
                "--paths", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "data arrival" in out

    def test_unknown_design_rejected(self):
        with pytest.raises(SystemExit):
            main(["explore", "--design", "gpu"])

    def test_bad_grid_rejected(self):
        with pytest.raises(SystemExit):
            main(["explore", "--design", "adder", "--grid", "circle"])

    @pytest.mark.parametrize("grid", ["0x2", "axb", "2x2x2"])
    @pytest.mark.parametrize(
        "command", ["explore", "compare", "compile-table", "chaos"]
    )
    def test_bad_grid_fails_before_implementing(
        self, capsys, monkeypatch, command, grid
    ):
        """A bad --grid is a usage error at parse time, not after the
        design has been implemented."""
        import repro.cli

        def never(*args, **kwargs):
            raise AssertionError("the design was implemented")

        monkeypatch.setattr(repro.cli, "select_clock_for", never)
        monkeypatch.setattr(repro.cli, "implement_with_domains", never)
        monkeypatch.setattr(repro.cli, "implement_base", never)
        argv = [command, "--design", "booth", "--width", "16", "--grid", grid]
        if command == "compile-table":
            argv += ["--output", "t.json"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: repro {command}")
        assert f"error: argument --grid: bad grid {grid!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("bits", ["99", "5", "0", "-1"])
    def test_report_timing_bits_outside_width_rejected(self, capsys, bits):
        code = main(
            [
                "report-timing", "--design", "adder", "--width", "4",
                "--bits", bits,
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --bits must be between 1 and --width (4), got {bits}\n"
        )

    @pytest.mark.parametrize("flag", ["--requests", "--operators"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_chaos_counts_must_be_positive(self, capsys, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "chaos", "--design", "adder", "--width", "4",
                    "--grid", "2x1", "--serve-only", f"{flag}={value}",
                ]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro chaos")
        assert f"error: argument {flag}: must be at least 1, got {value}" in err
        assert "Traceback" not in err


class TestReplayMisuse:
    """`repro replay` misuse exits 2 with one `error:` line naming the
    flag or the file, and no traceback."""

    @pytest.fixture()
    def paths(self, tmp_path):
        from repro.io.results import save_mode_table
        from repro.traces import generate_trace
        from tests.conftest import build_synthetic_table

        table = tmp_path / "table.json"
        with open(table, "w") as stream:
            save_mode_table(build_synthetic_table(), stream)
        empty = tmp_path / "empty_trace.json"
        document = generate_trace("bursty", seed=1, length=4).to_dict()
        document["phases"] = []
        empty.write_text(json.dumps(document))
        return {
            "table": str(table),
            "missing": str(tmp_path / "missing_table.json"),
            "empty": str(empty),
        }

    @pytest.mark.parametrize(
        "args, names",
        [
            (["--phases", "0"], "argument --phases: must be at least 1"),
            (["--phases", "-5"], "argument --phases: must be at least 1"),
            (
                ["--policy", "lookahead", "--window", "-1"],
                "argument --window: must be at least 0",
            ),
            (["--trace", "{empty}"], "{empty} has no phases"),
            (["--table", "{missing}"], "mode table {missing}: No such file"),
        ],
    )
    def test_exits_2_with_one_error_line(self, capsys, paths, args, names):
        argv = ["replay", "--table", paths["table"]]
        argv += [arg.format(**paths) for arg in args]
        try:
            code = main(argv)
        except SystemExit as exit_info:
            code = exit_info.code
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert names.format(**paths) in errors[0]


#: A chaos run small enough to reach every check.
CHAOS = ["chaos", "--design", "adder", "--width", "4", "--grid", "2x1"]


class TestNumericMisuse:
    """Out-of-range counts and magnitudes exit 2 with one `error:` line
    naming the flag and no traceback, before any design is implemented."""

    @pytest.mark.parametrize(
        "argv, names",
        [
            (
                ["explore", "--design", "adder", "--width", "0"],
                "argument --width: must be at least 1",
            ),
            (CHAOS + ["--fleet", "1"], "--fleet needs at least 2 workers"),
            (
                CHAOS + ["--fleet", "-2"],
                "argument --fleet: must be at least 0",
            ),
            (
                CHAOS + ["--fleet", "2", "--fleet-requests", "0"],
                "argument --fleet-requests: must be at least 1",
            ),
            (
                CHAOS + ["--intensity", "-1"],
                "argument --intensity: must be at least 0.0",
            ),
            (
                CHAOS + ["--horizon-ns", "0"],
                "argument --horizon-ns: must be greater than 0.0",
            ),
            (
                CHAOS + ["--margin-samples", "0"],
                "argument --margin-samples: must be at least 2",
            ),
            (
                CHAOS + ["--margin-samples", "1"],
                "argument --margin-samples: must be at least 2",
            ),
            (
                CHAOS + ["--activity-cycles", "0"],
                "argument --activity-cycles: must be at least 6",
            ),
            (
                CHAOS + ["--recalibrate", "--recal-interval", "-5"],
                "argument --recal-interval: must be greater than 0.0",
            ),
            (
                ["serve", "--table", "t.json", "--clients", "0"],
                "argument --clients: must be at least 1",
            ),
            (
                ["serve", "--table", "t.json", "--generators", "0"],
                "argument --generators: must be at least 1",
            ),
            (
                ["serve", "--table", "t.json", "--queue-depth", "0"],
                "argument --queue-depth: must be at least 1",
            ),
            (
                ["serve", "--table", "t.json", "--max-pending", "0"],
                "argument --max-pending: must be at least 1",
            ),
            (
                ["serve", "--table", "t.json", "--soak", "-5"],
                "argument --soak: must be at least 0",
            ),
            *(
                (
                    ["fleet-serve", "--table", "t.json", flag, "0"],
                    f"argument {flag}: must be at least 1",
                )
                for flag in (
                    "--generators", "--queue-depth", "--batch-window",
                    "--max-inflight", "--retreat-budget", "--soak",
                    "--operators", "--chunk",
                )
            ),
            (
                ["gen-traces", "--output-dir", "out", "--length", "0"],
                "argument --length: must be at least 1",
            ),
            (
                ["gen-traces", "--output-dir", "out", "--mean-cycles", "0"],
                "argument --mean-cycles: must be at least 1",
            ),
            (
                ["gen-traces", "--output-dir", "out", "--levels", "2,x"],
                "argument --levels: invalid int value: 'x'",
            ),
            (
                ["gen-traces", "--output-dir", "out", "--levels", "0,2"],
                "argument --levels: must be at least 1",
            ),
            *(
                (
                    [
                        "train-policy", "--table", "t.json",
                        "--output", "o.json", flag, "0",
                    ],
                    f"argument {flag}: must be at least 1",
                )
                for flag in (
                    "--rounds", "--length", "--mean-cycles", "--suites",
                )
            ),
            (
                [
                    "compile-table", "--output", "t.json", "--margins",
                    "--margin-samples", "0",
                ],
                "argument --margin-samples: must be at least 2",
            ),
        ],
    )
    def test_exits_2_with_one_error_line(
        self, capsys, monkeypatch, tmp_path, argv, names
    ):
        import repro.cli

        def never(*args, **kwargs):
            raise AssertionError("the design was implemented")

        monkeypatch.setattr(repro.cli, "select_clock_for", never)
        monkeypatch.chdir(tmp_path)
        try:
            code = main(argv)
        except SystemExit as exit_info:
            code = exit_info.code
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert names in errors[0]
