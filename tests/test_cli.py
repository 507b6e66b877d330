"""CLI smoke and behaviour tests (in-process, fast paths only)."""

import pytest

from repro.cli import GENERATOR_CHOICES, main, make_generator
from repro.errors import ReproError
from repro.generators import MixedModeLfsr, Type1Lfsr


class TestGeneratorFactory:
    @pytest.mark.parametrize("kind", GENERATOR_CHOICES)
    def test_all_choices_construct(self, kind):
        gen = make_generator(kind, 12, 4096)
        assert gen.width == 12
        assert len(gen.sequence(8)) == 8

    def test_mixed_switches_halfway(self):
        gen = make_generator("mixed", 12, 4096)
        assert isinstance(gen, MixedModeLfsr)
        assert gen.switch_after == 2048

    def test_unknown_rejected(self):
        with pytest.raises(ReproError):
            make_generator("quantum", 12, 4096)


class TestCommands:
    def test_stats(self, capsys):
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "LP:" in out and "registers" in out

    def test_grade(self, capsys):
        assert main(["grade", "--design", "BP", "--generator", "lfsrd",
                     "--vectors", "256", "--map"]) == 0
        out = capsys.readouterr().out
        assert "detected" in out
        assert "missed faults" in out  # the --map section

    def test_grade_report(self, capsys):
        assert main(["grade", "--design", "BP", "--generator", "lfsrd",
                     "--vectors", "128", "--report"]) == 0
        out = capsys.readouterr().out
        assert "testability report" in out

    def test_rank(self, capsys):
        assert main(["rank", "--design", "LP", "--vectors", "512"]) == 0
        out = capsys.readouterr().out
        assert "proposed scheme" in out

    def test_spectrum(self, capsys):
        assert main(["spectrum", "--generator", "ramp"]) == 0
        out = capsys.readouterr().out
        assert "power (dB)" in out

    def test_table(self, capsys):
        assert main(["table", "2"]) == 0
        out = capsys.readouterr().out
        assert "T1a" in out

    def test_figure(self, capsys):
        assert main(["figure", "1"]) == 0
        out = capsys.readouterr().out
        assert "test zones" in out

    def test_bad_table_number(self):
        with pytest.raises(SystemExit):
            main(["table", "9"])

    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestUnknownNames:
    """Unknown design/generator names: one-line error, exit code 2."""

    def test_grade_unknown_design(self, capsys):
        assert main(["grade", "--design", "XL"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unknown design 'XL'" in err
        assert "BP" in err and "HP" in err and "LP" in err

    def test_grade_unknown_generator(self, capsys):
        assert main(["grade", "--generator", "noise"]) == 2
        err = capsys.readouterr().err
        assert "unknown generator 'noise'" in err
        assert "lfsr1" in err and "white" in err

    def test_rank_unknown_design(self, capsys):
        assert main(["rank", "--design", "bandstop"]) == 2
        assert "unknown design" in capsys.readouterr().err

    def test_sweep_unknown_generator_key(self, capsys):
        assert main(["sweep", "--generators", "LFSR-1,Fibonacci",
                     "--vectors", "64"]) == 2
        err = capsys.readouterr().err
        assert "unknown generator 'Fibonacci'" in err
        assert "LFSR-D" in err and "Ramp" in err

    def test_grade_accepts_aliases(self, capsys):
        assert main(["grade", "--design", "bp", "--generator", "LFSR-D",
                     "--vectors", "128"]) == 0
        assert "detected" in capsys.readouterr().out


_BAD_COUNTS = [
    ("--exact", ["profile", "LP", "lfsr1", "--vectors", "64",
                 "--exact", "-5"]),
    ("--gates-faults", ["bench", "--gates", "--gates-faults", "-65800",
                        "--gates-vectors", "64"]),
    ("--gates-vectors", ["bench", "--gates", "--gates-vectors", "0"]),
    ("--top-k", ["recommend", "--top-k", "-2"]),
    ("--confirm-vectors", ["recommend", "--confirm-vectors", "-1"]),
    ("--confirm-faults", ["recommend", "--confirm-faults", "-5"]),
    ("--bins", ["recommend", "--bins", "0"]),
    ("--bins", ["recommend", "--bins", "1"]),
    ("--vectors", ["recommend", "--vectors", "0"]),
    ("--points", ["spectrum", "--points", "0"]),
    ("--points", ["spectrum", "--points", "-3"]),
    ("--vectors", ["rank", "--vectors", "-1"]),
    ("--vectors", ["grade", "--vectors", "0"]),
    ("--vectors", ["profile", "LP", "lfsr1", "--vectors", "0"]),
    ("--vectors", ["sweep", "--vectors", "0"]),
    ("--vectors", ["bench", "--vectors", "-1"]),
    ("--vectors", ["cluster", "http://127.0.0.1:9", "--vectors", "0"]),
    ("--faults", ["cluster", "http://127.0.0.1:9", "--faults", "-1"]),
    ("--shard-faults", ["cluster", "http://127.0.0.1:9",
                        "--shard-faults", "0"]),
    ("--max-retries", ["cluster", "http://127.0.0.1:9",
                       "--max-retries", "-1"]),
    ("--last", ["runs", "trend", "--metric", "faults_per_sec",
                "--last", "0"]),
    ("--last", ["runs", "trend", "--metric", "faults_per_sec",
                "--last", "-1"]),
    ("--last", ["runs", "list", "--last", "0"]),
]


class TestCountFlags:
    """Count flags reject out-of-range values at argument parsing,
    before any command runs (a negative count would slice from the
    end)."""

    @pytest.mark.parametrize(
        "flag,argv", _BAD_COUNTS,
        ids=[f"{a[0]}{f}={a[a.index(f) + 1]}" for f, a in _BAD_COUNTS])
    def test_out_of_range_exits_2(self, flag, argv, capsys):
        from repro.cli import _build_parser

        with pytest.raises(SystemExit) as exc:
            _build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert f"argument {flag}: must be at least" in capsys.readouterr().err

    def test_boundary_values_parse(self):
        from repro.cli import _build_parser

        parse = _build_parser().parse_args
        args = parse(["recommend", "--top-k", "0", "--confirm-vectors", "0",
                      "--confirm-faults", "0", "--bins", "2",
                      "--vectors", "1"])
        assert (args.top_k, args.confirm_vectors, args.confirm_faults,
                args.bins, args.vectors) == (0, 0, 0, 2, 1)
        assert parse(["profile", "LP", "lfsr1", "--exact", "0"]).exact == 0
        assert parse(["spectrum", "--points", "1"]).points == 1
        args = parse(["cluster", "http://127.0.0.1:9", "--faults", "0",
                      "--shard-faults", "1", "--max-retries", "0"])
        assert (args.faults, args.shard_faults, args.max_retries) \
            == (0, 1, 0)


class TestBenchNow:
    """`bench --now` / $REPRO_BENCH_NOW pin the report timestamp."""

    @staticmethod
    def _args(now):
        import argparse
        return argparse.Namespace(now=now)

    def test_unix_float(self):
        from repro.cli import _bench_now
        assert _bench_now(self._args("1754500000.5")) == 1754500000.5

    def test_iso_datetime(self):
        from datetime import datetime

        from repro.cli import _bench_now
        got = _bench_now(self._args("2026-08-05T12:00:00"))
        assert got == datetime.fromisoformat("2026-08-05T12:00:00").timestamp()

    def test_env_fallback(self, monkeypatch):
        from repro.cli import _bench_now
        monkeypatch.setenv("REPRO_BENCH_NOW", "123.25")
        assert _bench_now(self._args(None)) == 123.25

    def test_flag_beats_env(self, monkeypatch):
        from repro.cli import _bench_now
        monkeypatch.setenv("REPRO_BENCH_NOW", "123.25")
        assert _bench_now(self._args("456.0")) == 456.0

    def test_wall_clock_default(self, monkeypatch):
        import time

        from repro.cli import _bench_now
        monkeypatch.delenv("REPRO_BENCH_NOW", raising=False)
        assert abs(_bench_now(self._args(None)) - time.time()) < 60

    def test_garbage_rejected(self):
        from repro.cli import _bench_now
        with pytest.raises(ReproError):
            _bench_now(self._args("yesterday-ish"))
