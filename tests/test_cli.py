"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_requires_valid_id(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "99"])

    def test_all_subcommands_parse(self):
        parser = build_parser()
        for argv in (
            ["figures"],
            ["figure", "2"],
            ["ablations"],
            ["ablation", "flush"],
            ["extensions"],
            ["extension", "tlb"],
            ["suite"],
            ["clock"],
            ["power"],
            ["cache-verify", "--cache-dir", "x"],
            ["cache-clear", "--cache-dir", "x"],
            ["export", "all"],
            ["obs", "summarize", "t"],
            ["degrade"],
            ["chaos"],
            ["worker"],
        ):
            assert parser.parse_args(argv).command == argv[0]

    def test_resilience_flags_parse(self):
        args = build_parser().parse_args(
            ["figure", "9", "--jobs", "4", "--chunk-size", "2",
             "--retries", "5", "--timeout", "120"]
        )
        assert args.chunk_size == 2
        assert args.retries == 5
        assert args.timeout == 120.0

    def test_run_sinks_only_on_commands_that_honour_them(self):
        parser = build_parser()
        for argv in (["figure", "9"], ["query", "dcache", "compress"]):
            args = parser.parse_args(argv + ["--metrics", "m", "--profile"])
            assert args.metrics == "m" and args.profile
        for argv in (["serve"], ["loadtest"]):
            assert parser.parse_args(argv + ["--trace", "t"]).trace == "t"
            for flag in ("--metrics=m", "--profile", "--telemetry=t"):
                with pytest.raises(SystemExit):
                    parser.parse_args(argv + [flag])

    @pytest.mark.parametrize(
        "option, message",
        [
            (["figure", "2", "--jobs", "0"], "jobs must be >= 1"),
            (["figure", "2", "--chunk-size", "0"], "chunk_size must be >= 1"),
            (["figure", "2", "--retries", "0"], "max_attempts must be >= 1"),
            (["figure", "2", "--cache-dir", __file__], "is not a directory"),
            (["cache-clear", "--cache-dir", __file__], "is not a directory"),
        ],
    )
    def test_invalid_engine_option_is_a_one_line_error(self, option, message):
        """``option`` is a whole command line carrying one bad engine option."""
        with pytest.raises(SystemExit, match=f"^error: .*{message}"):
            main(option)

    def test_unknown_cell_kind_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cache-clear", "--cache-dir", "x", "--kind", "nope"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'nope'" in err and "'cache_tpi'" in err

    def test_cache_clear_help_lists_the_cell_kinds(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cache-clear", "--help"])
        assert exc.value.code == 0
        assert "cache_tpi" in capsys.readouterr().out


class TestCommands:
    def test_figures_lists_everything(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        for fig in ("1a", "1b", "2", "7", "8", "9", "10", "11", "12", "13a", "13b"):
            assert fig in out

    def test_figure_2(self, capsys):
        assert main(["figure", "2"]) == 0
        out = capsys.readouterr().out
        assert "Unbuffered" in out
        assert "0.12u" in out

    def test_figure_1a(self, capsys):
        assert main(["figure", "1a"]) == 0
        assert "2KB subarrays" in capsys.readouterr().out

    def test_suite(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "stereo" in out and "appcg" in out
        assert "go" in out

    def test_clock(self, capsys):
        assert main(["clock"]) == 0
        out = capsys.readouterr().out
        assert "Cycle time" in out
        assert "GHz" in out

    def test_power(self, capsys):
        assert main(["power"]) == 0
        out = capsys.readouterr().out
        assert "server" in out and "ups" in out

    def test_ablations_list(self, capsys):
        assert main(["ablations"]) == 0
        assert "granularity" in capsys.readouterr().out

    def test_ablation_flush(self, capsys):
        assert main(["ablation", "flush"]) == 0
        assert "misses" in capsys.readouterr().out

    def test_extensions_list(self, capsys):
        assert main(["extensions"]) == 0
        assert "concert" in capsys.readouterr().out

    def test_figure_9_prints_average(self, capsys):
        assert main(["figure", "9"]) == 0
        out = capsys.readouterr().out
        assert "average reduction" in out
        assert "stereo" in out

    def test_cache_verify_reports_and_sets_exit_code(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(["cache-verify", "--cache-dir", str(cache_dir)]) == 0
        assert "0 entries checked" in capsys.readouterr().out
        entry = cache_dir / "ab" / ("ab" + "0" * 62 + ".json")
        entry.parent.mkdir(parents=True)
        entry.write_text("not json at all")
        assert main(["cache-verify", "--cache-dir", str(cache_dir)]) == 1
        out = capsys.readouterr().out
        assert "1 corrupt" in out and "quarantine" in out
