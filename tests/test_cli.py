import hashlib
import json
import os
import subprocess
import sys

import pytest

import taplab
from taplab.cli import main
from taplab.core import TAP, Task, metrics_from_trace, tap_from_json, tap_to_json
from taplab.engine import simulate
from taplab.rationals import PHI, Rat, ZERO, parse_rat
from taplab.sched_awake import BalScheduler


def _write(tmp_path, tap, name="tap.json"):
    path = tmp_path / name
    path.write_text(tap_to_json(tap))
    return str(path)


def _golden_tap():
    return TAP(4, (Task(0, PHI, Rat(4), ZERO),))


class TestRun:
    def test_record_matches_simulation(self, tmp_path, capsys):
        tap = _golden_tap()
        path = _write(tmp_path, tap)
        assert main(["run", path, "bal"]) == 0
        record = json.loads(capsys.readouterr().out)
        trace = simulate(tap, BalScheduler())
        assert parse_rat(record["awake"]) == metrics_from_trace(trace, tap).awake
        assert record["scheduler"] == "bal"
        assert record["violations"] == []
        assert record["cancellations"] == 0
        assert record["n"] == 1

    def test_csched_never_cancels(self, tmp_path, capsys):
        tap = TAP(4, (Task(0, Rat(1), Rat(4), ZERO), Task(1, Rat(1), Rat(4), ZERO)))
        path = _write(tmp_path, tap)
        assert main(["run", path, "csched"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["cancellations"] == 0

    def test_canc_requires_flag(self, tmp_path, capsys):
        path = _write(tmp_path, _golden_tap())
        assert main(["run", path, "canc"]) == 2
        assert main(["run", path, "canc", "--allow-cancel"]) == 0

    def test_unknown_scheduler(self, tmp_path, capsys):
        path = _write(tmp_path, _golden_tap())
        assert main(["run", path, "nope"]) == 2

    def test_no_inner_scale_flag(self, tmp_path, capsys):
        path = _write(tmp_path, _golden_tap())
        with pytest.raises(SystemExit) as exc:
            main(["run", path, "csched", "--inner-scale", "2"])
        assert exc.value.code == 2
        assert "--inner-scale" in capsys.readouterr().err

    def test_cyclic_instance(self, tmp_path, capsys):
        tap = TAP(
            4,
            (
                Task(0, Rat(1), Rat(2), ZERO, frozenset({1})),
                Task(1, Rat(1), Rat(2), ZERO, frozenset({0})),
            ),
        )
        path = _write(tmp_path, tap)
        assert main(["run", path, "bal"]) == 2
        assert "cyclic" in capsys.readouterr().err

    def test_dump_trace(self, tmp_path, capsys):
        path = _write(tmp_path, _golden_tap())
        out = tmp_path / "trace.json"
        assert main(["run", path, "bal", "--dump-trace", str(out)]) == 0
        dump = json.loads(out.read_text())
        assert dump["slices"]


class TestBadInput:
    """Malformed instances and flag values end in ``error: ...`` and exit
    status 2, never in a traceback."""

    @pytest.mark.parametrize("text", ["[]", "5", '"x"'])
    @pytest.mark.parametrize("command", [["run", "{}", "bal"], ["oracle", "{}"]],
                             ids=["run", "oracle"])
    def test_instance_not_an_object(self, tmp_path, capsys, text, command):
        path = tmp_path / "tap.json"
        path.write_text(text)
        argv = [arg.format(path) for arg in command]
        assert main(argv) == 2
        assert "error: malformed TAP: expected a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        # not a number
        (["sweep", "--count", "1", "--p-list", "x"], "--p-list"),
        (["sweep", "--count", "x"], "--count"),
        (["gen", "c-trigger", "--p", "8", "--sigma-t", "x"], "--sigma-t"),
        (["sweep", "--count", "1", "--p-list", "8", "--n", "2", "--speed", "1/0"],
         "--speed"),
        # not positive
        (["gen", "c-trigger", "--p", "8", "--sigma-t", "0"], "--sigma-t"),
        (["sweep", "--count", "1", "--p-list", "8", "--n", "2", "--speed", "0"],
         "--speed"),
        (["oracle", "tap.json", "--method", "grid", "--grid", "0"], "--grid"),
        (["oracle", "tap.json", "--method", "grid", "--grid=-1/4"], "--grid"),
        # a negative count
        (["gen", "random", "--n", "-1"], "--n"),
        (["gen", "randlb", "--p", "4", "--blocks", "-1"], "--blocks"),
        (["sweep", "--count", "-1"], "--count"),
        (["sweep", "--count", "1", "--n", "-2"], "--n"),
    ])
    def test_bad_flag_value(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"error: argument {flag}: expected" in captured.err
        assert captured.out == ""

    def test_zero_counts_are_valid(self, tmp_path, capsys):
        assert main(["gen", "random", "--n", "0", "--seed", "1"]) == 0
        assert tap_from_json(capsys.readouterr().out).n == 0
        assert main(["gen", "randlb", "--p", "4", "--blocks", "0", "--seed", "1"]) == 0
        assert tap_from_json(capsys.readouterr().out).n == 0
        out = tmp_path / "out.csv"
        assert main(["sweep", "--count", "0", "-o", str(out)]) == 0
        assert out.read_text().count("\n") == 1  # the header only
        assert main(["sweep", "--count", "1", "--p-list", "4", "--n", "0",
                     "--seed", "1", "-o", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[3] for row in rows] == ["0", "0"]


class TestGenRoundtrip:
    def test_gen_then_run_then_oracle(self, tmp_path, capsys):
        path = str(tmp_path / "inst.json")
        assert main(["gen", "random", "--p", "4", "--n", "4",
                     "--seed", "7", "-o", path]) == 0
        tap = tap_from_json(open(path).read())
        assert tap.n == 4
        capsys.readouterr()
        assert main(["run", path, "unk"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert main(["oracle", path, "--method", "exhaustive"]) == 0
        oracle = json.loads(capsys.readouterr().out)
        assert parse_rat(record["awake"]) >= parse_rat(oracle["value"])

    def test_gen_deterministic(self, tmp_path):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        main(["gen", "random", "--seed", "3", "-o", a])
        main(["gen", "random", "--seed", "3", "-o", b])
        assert open(a).read() == open(b).read()

    def test_gen_stdout(self, capsys):
        assert main(["gen", "geometric", "--p", "4"]) == 0
        tap = tap_from_json(capsys.readouterr().out)
        assert tap.n == 4


class TestParser:
    def test_consecutive_calls_do_not_share_values(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["gen", "random", "--p", "4", "--n", "3", "--seed", "1",
                     "-o", str(a)]) == 0
        assert main(["gen", "random", "--seed", "1", "-o", str(b)]) == 0
        first, second = tap_from_json(a.read_text()), tap_from_json(b.read_text())
        assert (first.p, first.n) == (4, 3)
        assert (second.p, second.n) == (8, 8)  # the defaults, not the first call's


class TestModule:
    def test_python_m_taplab(self):
        src = os.path.dirname(os.path.dirname(taplab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "taplab", "verify", "--only", "A5", "--seed", "0"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert "A5   PASS" in done.stdout


class TestOracle:
    def test_lb_method(self, tmp_path, capsys):
        path = _write(tmp_path, _golden_tap())
        assert main(["oracle", path, "--method", "lb",
                     "--objective", "trt"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert parse_rat(out["value"]) == 1

    def test_exhaustive_reports_decisions(self, tmp_path, capsys):
        path = _write(tmp_path, _golden_tap())
        assert main(["oracle", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert parse_rat(out["value"]) == 1
        assert out["decisions"] == {"0": "parallel"}


class TestSweep:
    def test_deterministic_and_bounded(self, tmp_path):
        args = ["sweep", "--generator", "random", "--count", "6",
                "--p-list", "4,8", "--n", "5", "--seed", "11",
                "--schedulers", "bal,unk", "--oracle", "both"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        rows = a.read_text().strip().splitlines()
        header = rows[0].split(",")
        assert header == [
            "instance", "scheduler", "p", "n", "awake", "trt", "opt_awake",
            "trt_lb", "ratio_awake", "ratio_trt_lb",
            "max_ballistic_over_2sigma", "violations",
        ]
        for row in rows[1:]:
            cells = dict(zip(header, row.split(",")))
            assert cells["violations"] == ""
            if cells["ratio_awake"]:
                limit = 3 if cells["scheduler"] == "bal" else 6
                assert parse_rat(cells["ratio_awake"]) <= limit

    def test_oracle_once_per_instance(self, tmp_path, monkeypatch):
        import taplab.cli as cli

        calls = []
        real = cli.opt_awake_exhaustive

        def counted(tap, bound=20):
            calls.append(tap)
            return real(tap, bound=bound)

        monkeypatch.setattr(cli, "opt_awake_exhaustive", counted)
        out = tmp_path / "out.csv"
        assert main(["sweep", "--generator", "random", "--count", "4",
                     "--p-list", "4,8", "--n", "6", "--seed", "11",
                     "--arrival", "bursty", "--schedulers", "bal,unk",
                     "--oracle", "both", "-o", str(out)]) == 0
        assert len(calls) == 4
        # the CSV the sweep wrote when it ran the oracle once per row
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "265e67e9e186c5a0ff92a8b39840b7aa1593abfbc2ef86a78ab0794d77b2430f")

    def test_dependency_instance_leaves_oracles_blank(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        assert main(["gen", "dtap-random", "--p", "4", "--n", "4", "--seed", "1",
                     "-o", str(corpus / "dtap.json")]) == 0
        out = tmp_path / "out.csv"
        assert main(["sweep", "--dir", str(corpus), "--schedulers", "turtle",
                     "-o", str(out)]) == 0
        header, *rows = out.read_text().strip().splitlines()
        assert len(rows) == 1
        cells = dict(zip(header.split(","), rows[0].split(",")))
        assert cells["opt_awake"] == cells["trt_lb"] == cells["violations"] == ""
        assert "warning: dtap.json: dependencies" in capsys.readouterr().err

    def test_unk_on_dependency_instance(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        assert main(["gen", "dtap-random", "--p", "4", "--n", "4", "--seed", "1",
                     "-o", str(corpus / "dtap.json")]) == 0
        out = tmp_path / "out.csv"
        assert main(["sweep", "--dir", str(corpus), "--schedulers", "unk",
                     "-o", str(out)]) == 0
        header, *rows = out.read_text().strip().splitlines()
        assert len(rows) == 1
        cells = dict(zip(header.split(","), rows[0].split(",")))
        assert cells["scheduler"] == "unk"
        assert cells["awake"] != "" and cells["violations"] == ""
        assert "dtap.json/unk" not in capsys.readouterr().err

    def test_jobs_is_ignored(self, tmp_path):
        args = ["sweep", "--count", "6", "--p-list", "4,8", "--n", "5",
                "--seed", "11", "--schedulers", "bal,unk,equi"]
        one, four = tmp_path / "one.csv", tmp_path / "four.csv"
        assert main(args + ["--jobs", "1", "-o", str(one)]) == 0
        assert main(args + ["--jobs", "4", "-o", str(four)]) == 0
        assert one.read_bytes() == four.read_bytes()

    def test_only_the_random_generator(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--generator", "geometric", "--count", "2",
                  "--p-list", "8", "--n", "3", "--seed", "1", "-o", str(out)])
        assert exc.value.code == 2
        assert "invalid choice: 'geometric'" in capsys.readouterr().err
        assert not out.exists()

    def test_directory_corpus(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        _write(corpus, _golden_tap(), "one.json")
        out = tmp_path / "out.csv"
        assert main(["sweep", "--dir", str(corpus),
                     "--schedulers", "bal", "-o", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 2


# exact output of each duel; the ratios are computed on the TAP replayed
# from Trace.injected, so any change to what the replay yields shows here
DUEL_OUTPUTS = {
    "duel bal golden --p 8":
        '{"adversary":"golden","awake":"9349/2440","injected":true,'
        '"opt_awake":"987/610","p":8,"ratio":"9349/3948","scheduler":"bal","seed":0}',
    "duel mwf-all-parallel golden --p 100":
        '{"adversary":"golden","awake":"98323/610","injected":true,'
        '"opt_awake":"987/610","p":100,"ratio":"98323/987",'
        '"scheduler":"mwf-all-parallel","seed":0}',
    "duel unk golden --p 32":
        '{"adversary":"golden","awake":"1292/305","injected":true,'
        '"opt_awake":"987/610","p":32,"ratio":"2584/987","scheduler":"unk","seed":0}',
    "duel rigid flood --R 10":
        '{"R":10,"adversary":"flood","ratio":"220011/20002","scheduler":"rigid",'
        '"seed":0,"triggered":true,"trt":"220011/20000","trt_lb":"10001/10000"}',
    "duel equi flood --R 100":
        '{"R":100,"adversary":"flood","ratio":"1102/1001","scheduler":"equi",'
        '"seed":0,"triggered":true,"trt":"551/500","trt_lb":"1001/1000"}',
    "duel rigid flood --R 0":
        '{"R":0,"adversary":"flood","inconclusive":true,"ratio":"1",'
        '"scheduler":"rigid","seed":0,"triggered":false,"trt":"1","trt_lb":"1"}',
}


class TestDuel:
    @pytest.mark.parametrize("command", sorted(DUEL_OUTPUTS))
    def test_exact_output(self, command, capsys, monkeypatch):
        monkeypatch.delenv("TAPLAB_SEED", raising=False)
        assert main(command.split()) == 0
        assert capsys.readouterr().out == DUEL_OUTPUTS[command] + "\n"

    def test_golden_duel(self, capsys):
        assert main(["duel", "bal", "golden", "--p", "32"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert parse_rat(out["ratio"]) >= PHI - Rat(1, 32) - Rat(1, 100)

    def test_flood_duel(self, tmp_path, capsys):
        probe = TAP(100, (Task(0, Rat(1), Rat(100), ZERO),))
        path = _write(tmp_path, probe)
        assert main(["duel", "rigid", "flood", "--R", "10",
                     "--probe", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert not out.get("inconclusive", False)
        assert parse_rat(out["ratio"]) > 5


class TestVerify:
    def test_only_single_criterion(self, capsys):
        assert main(["verify", "--only", "A1", "--seed", "0"]) == 0
        assert "A1" in capsys.readouterr().out

    def test_a9_exit_status(self, capsys):
        assert main(["verify", "--only", "A9", "--seed", "0"]) == 0
        assert "A9   PASS" in capsys.readouterr().out
