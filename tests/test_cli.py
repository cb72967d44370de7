import json
import os
import subprocess
import sys

import numpy as np
import pytest

import fwcuts
from fwcuts.cli import CSV_COLUMNS, build_parser, main
from fwcuts.instances import MkpInstance, format_mknap

MICRO = format_mknap(
    [MkpInstance("m", 2, 1, [6, 4], [[3, 5]], [7], known_optimum=6)]
)


@pytest.fixture
def micro_file(tmp_path):
    path = tmp_path / "micro.mknap"
    path.write_text(MICRO)
    return str(path)


class TestSeparateCommand:
    def run(self, tmp_path, point, knapsack, *flags):
        pf = tmp_path / "point.txt"
        pf.write_text(" ".join(map(str, point)))
        kf = tmp_path / "knap.txt"
        kf.write_text(" ".join(map(str, knapsack)))
        return main(["separate", str(pf), str(kf), *flags])

    def test_outside_point_exits_zero(self, tmp_path, capsys):
        code = self.run(tmp_path, [1, 1, 1], [3, 5, 2, 3, 4])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["result"] == "separated"
        cut = payload["cut"]
        assert cut["violation_at_target"] > 0
        assert len(cut["alpha"]) == 3

    def test_inside_point_exits_one(self, tmp_path, capsys):
        code = self.run(tmp_path, [0.5, 0.0, 0.0], [3, 5, 2, 3, 4])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["result"] == "membership"

    def test_malformed_point_exits_two(self, tmp_path):
        pf = tmp_path / "point.txt"
        pf.write_text("not a number")
        kf = tmp_path / "knap.txt"
        kf.write_text("2 5 2 3")
        assert main(["separate", str(pf), str(kf)]) == 2

    def test_weight_count_mismatch_exits_two(self, tmp_path):
        assert self.run(tmp_path, [1, 1], [3, 5, 2, 3]) == 2

    def test_weight_beyond_int64_exits_two(self, tmp_path, capsys):
        # exit 1 would read as the membership verdict
        big = "99999999999999999999"
        assert self.run(tmp_path, [1, 1, 1], [3, 5, 2, big, 4]) == 2
        assert "at token 3" in capsys.readouterr().err

    def test_integral_float_weight_reads_like_the_instance_parser(self, tmp_path, capsys):
        assert self.run(tmp_path, [1, 1, 1], [3, 5, 2, 3, 4]) == 0
        plain = json.loads(capsys.readouterr().out)
        assert self.run(tmp_path, [1, 1, 1], [3, 5, 2, 3, "4.0"]) == 0
        assert json.loads(capsys.readouterr().out) == plain

    def test_normalized_cut_has_unit_max_coefficient(self, tmp_path, capsys):
        code = self.run(tmp_path, [1, 1, 1], [3, 5, 2, 3, 4], "--normalize")
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert max(abs(a) for a in payload["cut"]["alpha"]) == pytest.approx(1.0)

    def test_vanilla_flag(self, tmp_path, capsys):
        code = self.run(tmp_path, [1, 1, 1], [3, 5, 2, 3, 4], "--vanilla")
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["result"] == "separated"


class TestRootGapCommand:
    def test_micro_json_reports_full_gap(self, micro_file, capsys):
        assert main(["root-gap", micro_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        row = payload["instances"][0]
        assert row["gap_closed"] == pytest.approx(100.0, abs=1e-6)
        assert row["d_lp"] == pytest.approx(9.2)
        assert row["d_r"] == pytest.approx(6.0, abs=1e-6)

    def test_json_schema_keys_frozen(self, micro_file, capsys):
        main(["root-gap", micro_file, "--no-timings"])
        row = json.loads(capsys.readouterr().out)["instances"][0]
        assert sorted(row.keys()) == [
            "calls",
            "cuts",
            "d_lp",
            "d_r",
            "gap_closed",
            "integral_root",
            "known_optimum",
            "loop_stop",
            "m",
            "n",
            "name",
            "rounds",
            "stop_reasons",
        ]

    def test_byte_identical_reruns_without_timings(self, micro_file, capsys):
        main(["root-gap", micro_file, "--no-timings"])
        first = capsys.readouterr().out
        main(["root-gap", micro_file, "--no-timings"])
        second = capsys.readouterr().out
        assert first == second and first

    def test_csv_columns_and_block_average(self, tmp_path, capsys):
        two = format_mknap(
            [
                MkpInstance("a", 2, 1, [6, 4], [[3, 5]], [7], known_optimum=6),
                MkpInstance("b", 2, 1, [5, 4], [[3, 5]], [7], known_optimum=5),
            ]
        )
        path = tmp_path / "two.mknap"
        path.write_text(two)
        assert main(["root-gap", str(path), "--csv", "--no-timings"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 4  # header, two instances, one (n, m) block average
        assert lines[3].startswith("block(n=2;m=1)")
        # instance counts print as ints, block averages with one decimal
        cells = [line.split(",", 1)[1] for line in lines[1:]]
        assert cells == [
            "2,1,100.00,,,1,1,1",
            "2,1,100.00,,,1,1,1",
            "2,1,100.00,,,1.0,1.0,1.0",
        ]

    def test_parse_failure_exits_two(self, tmp_path):
        bad = tmp_path / "bad.mknap"
        bad.write_text("1  2 1 10  6 4  3")
        assert main(["root-gap", str(bad)]) == 2

    def test_non_integral_or_out_of_range_token_exits_two(self, tmp_path, capsys):
        # exit 1 would read as `separate`'s membership verdict
        bad = tmp_path / "bad.mknap"
        for token in ("inf", "99999999999999999999", "2.5"):
            bad.write_text(f"1  2 1 10  6 {token}  3 5  7")
            assert main(["root-gap", str(bad)]) == 2
            assert "at token 5" in capsys.readouterr().err

    def test_out_file(self, micro_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(["root-gap", micro_file, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["command"] == "root-gap"

    def test_rejects_separator_variant_flags(self, micro_file, capsys):
        # the root loop runs only the lazy away-step separator with the early
        # stop, and lifts every cut the one way
        flags = (
            "--vanilla",
            "--no-lazy",
            "--no-early-stop",
            "--lifting down",
            "--epsilon 1e-9",
            "--step-rule agnostic",
        )
        for flag in flags:
            with pytest.raises(SystemExit) as exc:
                main(["root-gap", micro_file, *flag.split()])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestAuditCommand:
    """`root-gap` audits every report it produces; there is no separate
    `audit` subcommand."""

    def test_clean_run_exits_zero(self, micro_file, capsys):
        assert main(["root-gap", micro_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["failed"] == []
        assert payload["checks"]
        assert all(c["passed"] for c in payload["checks"])
        assert {c["check"] for c in payload["checks"]} >= {"cut-validity-dp", "lp-sandwich"}

    def test_empty_file_warns_and_passes(self, tmp_path, capsys):
        empty = tmp_path / "none.mknap"
        empty.write_text("0")
        assert main(["root-gap", str(empty)]) == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err
        payload = json.loads(captured.out)
        assert payload["checks"] == [] and payload["failed"] == []

    @staticmethod
    def corrupt_every_pooled_cut(monkeypatch):
        import dataclasses

        import fwcuts.cli as cli

        real_loop = cli.root_cut_loop

        def corrupted_loop(*args, **kwargs):
            report = real_loop(*args, **kwargs)
            assert report.cut_pool
            pool = tuple(
                dataclasses.replace(rec, beta=rec.beta - 10.0) for rec in report.cut_pool
            )
            return dataclasses.replace(report, cut_pool=pool)

        monkeypatch.setattr(cli, "root_cut_loop", corrupted_loop)

    def test_corrupted_cut_fails_named_invariant(self, micro_file, monkeypatch, capsys):
        self.corrupt_every_pooled_cut(monkeypatch)
        assert main(["root-gap", micro_file]) == 3
        captured = capsys.readouterr()
        assert "audit failed: cut-validity-dp" in captured.err
        assert "cut-validity-dp" in json.loads(captured.out)["failed"]

    def test_cli_exit_three_on_failed_invariant(self, micro_file, monkeypatch, capsys):
        # CSV rows have no room for the checks; the exit code and stderr carry them
        self.corrupt_every_pooled_cut(monkeypatch)
        assert main(["root-gap", micro_file, "--csv"]) == 3
        assert "audit failed: cut-validity-dp" in capsys.readouterr().err

    def test_audit_subcommand_is_gone(self, micro_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["audit", micro_file])
        assert exc.value.code == 2
        assert "invalid choice: 'audit'" in capsys.readouterr().err


class TestSidecarOptima:
    GAP = "1  1 2  5 7  2 3  5"

    def run(self, tmp_path, optima):
        gap = tmp_path / "g.gap"
        gap.write_text(self.GAP)
        opt = tmp_path / "g.opt"
        opt.write_text(optima)
        return main(["root-gap", str(gap), "--format", "gap", "--optima", str(opt)])

    def test_one_value_per_instance_is_attached(self, tmp_path, capsys):
        assert self.run(tmp_path, "12") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["instances"][0]["known_optimum"] == 12
        assert "lp-sandwich" in {c["check"] for c in payload["checks"]}

    @pytest.mark.parametrize(
        "optima, count", [("12 13", 2), ("", 0)], ids=["too-many", "too-few"]
    )
    def test_value_count_must_match_instances(self, optima, count, tmp_path, capsys):
        assert self.run(tmp_path, optima) == 2
        err = capsys.readouterr().err
        assert f"sidecar optima file has {count} values for 1 instances" in err


def test_output_format_flags_only_on_root_gap(micro_file, tmp_path, capsys):
    # `separate` always prints JSON and has no timing fields
    point = tmp_path / "point.txt"
    point.write_text("1 1")
    for flag in ("--csv", "--no-timings"):
        with pytest.raises(SystemExit) as exc:
            main(["separate", str(point), micro_file, flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_import_loads_no_scipy():
    # scipy adds about 48 MB of resident memory; the package must not pull it in
    src = os.path.dirname(os.path.dirname(os.path.abspath(fwcuts.__file__)))
    code = (
        "import sys, fwcuts, fwcuts.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "[]"
