import csv
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import taplab
from taplab.cli import main
from taplab.core import (
    TAP,
    InvalidInstanceError,
    Task,
    TapError,
    metrics_from_trace,
    tap_from_json,
    tap_to_json,
)
from taplab.engine import simulate
from taplab.oracle import grid_opt
from taplab.rationals import PHI, Rat, ZERO, parse_rat, rat_str
from taplab.sched_awake import BalScheduler
from taplab.verify import SCHEDULERS, run


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
        """Cancellation comes from the registry, so no flag asks for it."""
        path = _write(tmp_path, _golden_tap())
        with pytest.raises(SystemExit) as exc:
            main(["run", path, "canc", "--allow-cancel"])
        assert exc.value.code == 2
        assert "--allow-cancel" in capsys.readouterr().err
        assert main(["run", path, "canc"]) == 0

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

    @pytest.mark.parametrize("scheduler", ["turtle", "bal", "unk", "equi"])
    def test_awake_from_availability(self, tmp_path, capsys, scheduler):
        """Task 0 depends on task 1, released at 5: nothing is available
        before 5, so the run is awake 1/2, while TRT counts task 0 from its
        release at 0."""
        tap = TAP(4, (Task(0, Rat(1), Rat(1), ZERO, frozenset({1})),
                      Task(1, Rat(1), Rat(1), Rat(5))))
        assert main(["run", _write(tmp_path, tap), scheduler]) == 0
        record = json.loads(capsys.readouterr().out)
        assert (record["awake"], record["trt"]) == ("1/2", "23/4")

    def test_dump_trace(self, tmp_path, capsys):
        path = _write(tmp_path, _golden_tap())
        out = tmp_path / "trace.json"
        assert main(["run", path, "bal", "--dump-trace", str(out)]) == 0
        dump = json.loads(out.read_text())
        assert dump["slices"]


def test_registry_budgets_match_perfbench(monkeypatch):
    """The benchmark names its own classes, budgets and cancellation; they
    are the ones the registry's classes declare, for every scheduler both
    know."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    shared = SCHEDULERS.keys() & workloads.SCHEDULERS.keys()
    assert len(shared) == len(workloads.SCHEDULERS)
    for name in shared:
        cls = SCHEDULERS[name]
        assert workloads.SCHEDULERS[name][1:] == (
            cls.__name__, cls.budget_factor, cls.cancels), name


def test_benchmark_selftest_passes():
    """The benchmark's self-test runs on this checkout's source, so a change
    that breaks what the benchmark calls (``EngineConfig``, ``simulate``,
    ``validate_trace``, ``Engine.advance_to``, the scheduler callbacks)
    fails here too; the self-test removes its own work directory."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # leave perfbench/ as it is
    done = subprocess.run([sys.executable, str(root / "perfbench" / "selftest.py")],
                          cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selftest passed" in done.stdout
    assert not list((root / ".perfbench_work").glob("selftest-*"))


def test_registry_keys_are_class_names():
    assert all(cls.name == name for name, cls in SCHEDULERS.items())


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

    @pytest.mark.parametrize("text", [
        '{"version":1,"p":4.7,"tasks":[{"id":1,"sigma":"1","pi":"2","arrival":"0"}]}',
        '{"version":1,"p":true,"tasks":[{"id":1,"sigma":"1","pi":"2","arrival":"0"}]}',
        '{"version":1,"p":4,"tasks":[{"id":1.9,"sigma":"1","pi":"2","arrival":"0"}]}',
        '{"version":1,"p":4,"tasks":[{"id":1,"sigma":"1","pi":"2","arrival":"0"},'
        '{"id":2,"sigma":"1","pi":"2","arrival":"0","deps":[1.5]}]}',
    ], ids=["float-p", "bool-p", "float-id", "float-dep"])
    @pytest.mark.parametrize("command", [["run", "{}", "turtle"], ["oracle", "{}"]],
                             ids=["run", "oracle"])
    def test_non_integer_numbers(self, tmp_path, capsys, text, command):
        path = tmp_path / "tap.json"
        path.write_text(text)
        assert main([arg.format(path) for arg in command]) == 2
        captured = capsys.readouterr()
        assert "error: malformed TAP:" in captured.err and "must be an integer" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("text, message", [
        ('{"version":1,"p":4,"tasks":{"id":0,"sigma":"1","pi":"2","arrival":"0"}}',
         "tasks must be a JSON list, got dict"),
        ('{"version":1,"p":4,"tasks":[7]}', "tasks[0] must be a JSON object, got int"),
        ('{"version":1,"p":4,"tasks":[{"id":0,"sigma":"1","pi":"2"}]}',
         "tasks[0] has no 'arrival'"),
        ('{"version":1,"tasks":[]}', "the TAP has no 'p'"),
        ('{"version":1,"p":4,"tasks":[{"id":0,"sigma":"1","pi":"2","arrival":"0","deps":3}]}',
         "task 0: deps must be a JSON list, got int"),
        ('{"version":1,"p":4,"tasks":[{"id":3,"sigma":"1","pi":"2","arrival":"1e5"}]}',
         'task 3: arrival must be "a" or "a/b" (integers, b > 0), got \'1e5\''),
        ('{"version":1,"p":4,"tasks":[{"id":3,"sigma":"1","pi":"2","arrival":"inf"}]}',
         'task 3: arrival must be "a" or "a/b" (integers, b > 0), got \'inf\''),
        ('{"version":1,"p":4,"tasks":[{"id":3,"sigma":"1","pi":"2","arrival":"nan"}]}',
         'task 3: arrival must be "a" or "a/b" (integers, b > 0), got \'nan\''),
        ('{"version":1,"p":4,"tasks":[{"id":3,"sigma":1.5,"pi":"2","arrival":"0"}]}',
         'task 3: sigma must be "a" or "a/b" (integers, b > 0), got 1.5'),
        ('{"version":1,"p":4,"tasks":[{"id":3,"sigma":"1","pi":"2/0","arrival":"0"}]}',
         'task 3: pi must be "a" or "a/b" (integers, b > 0), got \'2/0\''),
    ], ids=["tasks-object", "task-not-object", "missing-arrival", "missing-p", "deps-int",
            "arrival-exponent", "arrival-inf", "arrival-nan", "sigma-float", "pi-zero-den"])
    @pytest.mark.parametrize("command", [["run", "{}", "turtle"], ["oracle", "{}"]],
                             ids=["run", "oracle"])
    def test_malformed_fields_are_named(self, tmp_path, capsys, text, message, command):
        """The message names the task, the field and the expected form."""
        path = tmp_path / "tap.json"
        path.write_text(text)
        assert main([arg.format(path) for arg in command]) == 2
        assert capsys.readouterr() == ("", f"error: malformed TAP: {message}\n")
        with pytest.raises(InvalidInstanceError):
            tap_from_json(text)

    @pytest.mark.parametrize("version, tasks, message", [
        (1, '{"id":0,"sigma":"1","pi":"2","arrival":"0"},'
            '{"id":0,"sigma":"1","pi":"2","arrival":"0"}', "duplicate task ids"),
        (1, '{"id":0,"sigma":"0","pi":"2","arrival":"0"}', "task 0: non-positive work"),
        (1, '{"id":0,"sigma":"2","pi":"1","arrival":"0"}', "task 0: pi < sigma"),
        (1, '{"id":0,"sigma":"1","pi":"5","arrival":"0"}', "task 0: pi > p*sigma"),
        (1, '{"id":0,"sigma":"1","pi":"2","arrival":"-1"}', "task 0: negative arrival"),
        (1, '{"id":0,"sigma":"1","pi":"2","arrival":"0","deps":[7]}', "task 0: unknown dep 7"),
        (1, '{"id":0,"sigma":"1","pi":"2","arrival":"0","deps":[0]}',
         "task 0: self-dependency"),
        (2, "", "unsupported TAP version 2"),
        ("true", "", "unsupported TAP version True"),
        ("1.0", "", "unsupported TAP version 1.0"),
    ], ids=["duplicate", "non-positive", "pi-below-sigma", "pi-above-p-sigma",
            "negative-arrival", "unknown-dep", "self-dep", "version", "version-true",
            "version-float"])
    def test_invalid_instance(self, tmp_path, capsys, version, tasks, message):
        path = tmp_path / "tap.json"
        path.write_text(f'{{"version":{version},"p":4,"tasks":[{tasks}]}}')
        assert main(["run", str(path), "bal"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

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
        (["duel", "rigid", "flood", "--R", "-1"], "--R"),
    ])
    def test_bad_flag_value(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"error: argument {flag}: expected" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv, message", [
        # p is checked before any root of it is taken, and before the
        # flood's lower bound divides by it
        (["gen", "cheap-expensive", "--p", "-5"], "p must be a fourth power >= 16"),
        (["gen", "cheap-expensive", "--p", "1"], "p must be a fourth power >= 16"),
        (["gen", "dtap-levels", "--p", "-4"], "p must be a perfect square >= 4"),
        (["duel", "equi", "flood", "--p", "0"], "p must be >= 2, got 0"),
        (["duel", "equi", "flood", "--p", "1"], "p must be >= 2, got 1"),
    ])
    def test_bad_generator_p(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("sigma_t", ["3", "3/2", "6"])
    def test_c_trigger_sigma_not_a_power_of_two(self, capsys, sigma_t):
        # csched, the instance's only target, runs on power-of-two works
        # only, so the generator refuses to write what it would refuse
        assert main(["gen", "c-trigger", "--p", "8", "--sigma-t", sigma_t]) == 2
        captured = capsys.readouterr()
        assert f"error: sigma_t must be a power of two, got {sigma_t}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("sigma_t", ["1/4", "1", "8"])
    def test_c_trigger_runs_under_csched(self, tmp_path, capsys, sigma_t):
        path = str(tmp_path / "ct.json")
        assert main(["gen", "c-trigger", "--p", "8", "--sigma-t", sigma_t, "-o", path]) == 0
        assert main(["run", path, "csched"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("gen, run, message", [
        # sss assumes a budget of 2p and csched one of 4p
        ("--p 4 --n 12 --seed 5 --ratio-dist pow2 --arrival poisson",
         "sss --budget-factor 1", "at least 2p = 8, got 4 (budget factor 1)"),
        ("--p 4 --n 12 --seed 5 --ratio-dist pow2 --arrival poisson",
         "csched --budget-factor 3", "at least 4p = 16, got 12 (budget factor 3)"),
        # csched runs on power-of-two works only
        ("--p 8 --n 20 --seed 6 --arrival poisson", "csched", "apply round_pow2"),
        ("--p 8 --n 20 --seed 7 --arrival poisson", "csched", "apply round_pow2"),
    ])
    def test_scheduler_refuses_up_front(self, tmp_path, capsys, gen, run, message):
        path = str(tmp_path / "tap.json")
        assert main(["gen", "random", *gen.split(), "-o", path]) == 0
        assert main(["run", path, *run.split()]) == 2
        captured = capsys.readouterr()
        assert "error: " in captured.err and message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["gen", "random", "-o", "{missing}/x.json"],
        ["run", "{tap}", "bal", "--dump-trace", "{missing}/t.json"],
        ["sweep", "--count", "1", "--n", "3", "-o", "{missing}/s.csv"],
    ], ids=["gen", "run", "sweep"])
    def test_unwritable_output(self, tmp_path, capsys, argv):
        tap, missing = _write(tmp_path, _golden_tap()), tmp_path / "missing"
        assert main([arg.format(tap=tap, missing=missing) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert "error: [Errno 2] No such file or directory" in captured.err
        assert captured.out == ""

    def test_unwritable_sweep_output_before_any_run(self, tmp_path, capsys, monkeypatch):
        import taplab.cli as cli

        def fail(*args, **kwargs):
            raise AssertionError("the sweep ran before opening its output")

        monkeypatch.setattr(cli, "run", fail)
        assert main(["sweep", "--count", "1", "--n", "3",
                     "-o", str(tmp_path / "missing" / "s.csv")]) == 2
        captured = capsys.readouterr()
        assert "error: [Errno 2] No such file or directory" in captured.err
        assert captured.out == ""

    def test_unknown_sweep_scheduler(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--count", "2", "--n", "3", "--schedulers", "bal,bogus",
                  "-o", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert ("error: argument --schedulers: expected comma-separated schedulers "
                f"from {','.join(sorted(SCHEDULERS))}, got 'bal,bogus'") in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["gen", "random"],
        ["sweep", "--count", "1"],
        ["verify", "--only", "A5"],
    ], ids=["gen", "sweep", "verify"])
    def test_unparsable_seed_variable(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("TAPLAB_SEED", "x")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: TAPLAB_SEED must be an integer, got 'x'\n"
        assert captured.out == ""

    @pytest.mark.parametrize("only, message", [
        ("A99", "unknown criterion 'A99'"),
        ("A12", "A12 compares two full battery passes"),
    ])
    def test_bad_criterion(self, capsys, only, message):
        assert main(["verify", "--only", only]) == 2
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("error", [TapError("boom"), OSError("boom")],
                             ids=["TapError", "OSError"])
    @pytest.mark.parametrize("argv, callee", [
        (["run", "{tap}", "bal"], "run"),
        (["gen", "random"], "gen_random"),
        (["sweep", "--count", "1", "--n", "3"], "gen_random"),
        (["duel", "bal", "golden", "--p", "4"], "run"),
        (["oracle", "{tap}"], "opt_awake_exhaustive"),
        (["verify", "--only", "A1"], "run_battery"),
    ], ids=["run", "gen", "sweep", "duel", "oracle", "verify"])
    def test_one_error_boundary(self, tmp_path, capsys, monkeypatch, argv, callee, error):
        """Whatever a command calls may raise; ``main`` turns it into one
        ``error:`` line and exit status 2."""
        import taplab.cli as cli

        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, callee, fail)
        tap = _write(tmp_path, _golden_tap())
        assert main([arg.format(tap=tap) for arg in argv]) == 2
        assert capsys.readouterr() == ("", "error: boom\n")

    @pytest.mark.parametrize("argv", [["gen", "bogus"], ["duel", "bal", "bogus"]],
                             ids=["gen", "duel"])
    def test_unknown_name_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "invalid choice: 'bogus'" in captured.err
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
        tap = tap_from_json(Path(path).read_text())
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
        assert Path(a).read_text() == Path(b).read_text()

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
    @staticmethod
    def _python_m(*argv):
        """``python -m taplab argv`` in a subprocess; its stdout."""
        src = os.path.dirname(os.path.dirname(taplab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "taplab", *argv],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    def test_python_m_taplab(self):
        assert "A5   PASS" in self._python_m("verify", "--only", "A5", "--seed", "0")

    def test_python_m_taplab_gen(self):
        assert tap_from_json(self._python_m("gen", "geometric", "--p", "4")).p == 4


# exact output of ``run`` and ``oracle``, one line each, on a pow2 instance
# (``gen random --p 8 --n 5 --seed 4 --ratio-dist pow2``) and a DTAP
# (``gen dtap-random --p 4 --n 4 --seed 1``); canc and bsched split any
# budget into equal parallel and serial halves, so budget factors 1 and 4
# differ from the default 2
POW2_TAP = ('{"p":8,"tasks":[{"arrival":"0","id":0,"pi":"4","sigma":"2"},'
            '{"arrival":"0","id":1,"pi":"4","sigma":"1"},'
            '{"arrival":"0","id":2,"pi":"16","sigma":"8"},'
            '{"arrival":"0","id":3,"pi":"2","sigma":"2"},'
            '{"arrival":"0","id":4,"pi":"1","sigma":"1"}],"version":1}')
DEP_TAP = ('{"p":4,"tasks":[{"arrival":"0","id":0,"pi":"325/32","sigma":"25/8"},'
           '{"arrival":"0","id":1,"pi":"58","sigma":"29/2"},'
           '{"arrival":"0","id":2,"pi":"4","sigma":"2"},'
           '{"arrival":"0","deps":[0,2],"id":3,"pi":"529/64","sigma":"23/8"}],"version":1}')
RUN_ORACLE_OUTPUTS = {
    "run POW2 bal":
        '{"awake":"27/8","budget_factor":"1","cancellations":0,'
        '"instance_hash":"e259d4a421a4a51a","mrt":"1399/840","n":5,"p":8,'
        '"scheduler":"bal","speed":"1","trt":"1399/168","violations":[]}',
    "run POW2 csched":
        '{"awake":"167/20","budget_factor":"4","cancellations":0,'
        '"instance_hash":"e259d4a421a4a51a","mrt":"197/50","n":5,"p":8,'
        '"scheduler":"csched","speed":"1","trt":"197/10","violations":[]}',
    "run POW2 csched --speed 2":
        '{"awake":"127/20","budget_factor":"4","cancellations":0,'
        '"instance_hash":"e259d4a421a4a51a","mrt":"529/200","n":5,"p":8,'
        '"scheduler":"csched","speed":"2","trt":"529/40","violations":[]}',
    "run POW2 bsched":
        '{"awake":"99/32","budget_factor":"2","cancellations":1,'
        '"instance_hash":"e259d4a421a4a51a","mrt":"269/160","n":5,"p":8,'
        '"scheduler":"bsched","speed":"1","trt":"269/32","violations":[]}',
    "run POW2 canc --budget-factor 1":
        '{"awake":"109/20","budget_factor":"1","cancellations":3,'
        '"instance_hash":"e259d4a421a4a51a","mrt":"307/100","n":5,"p":8,'
        '"scheduler":"canc","speed":"1","trt":"307/20","violations":[]}',
    "run POW2 canc --budget-factor 4":
        '{"awake":"27/16","budget_factor":"4","cancellations":0,'
        '"instance_hash":"e259d4a421a4a51a","mrt":"71/80","n":5,"p":8,'
        '"scheduler":"canc","speed":"1","trt":"71/16","violations":[]}',
    "run POW2 bsched --budget-factor 1":
        '{"awake":"109/20","budget_factor":"1","cancellations":3,'
        '"instance_hash":"e259d4a421a4a51a","mrt":"307/100","n":5,"p":8,'
        '"scheduler":"bsched","speed":"1","trt":"307/20","violations":[]}',
    "run POW2 bsched --budget-factor 4":
        '{"awake":"27/16","budget_factor":"4","cancellations":0,'
        '"instance_hash":"e259d4a421a4a51a","mrt":"71/80","n":5,"p":8,'
        '"scheduler":"bsched","speed":"1","trt":"71/16","violations":[]}',
    "run POW2 equi --speed 3/2 --budget-factor 2":
        '{"awake":"9/8","budget_factor":"2","cancellations":0,'
        '"instance_hash":"e259d4a421a4a51a","mrt":"71/120","n":5,"p":8,'
        '"scheduler":"equi","speed":"3/2","trt":"71/24","violations":[]}',
    "run DEP turtle":
        '{"awake":"29/2","budget_factor":"1","cancellations":0,'
        '"instance_hash":"4693b87614ee2116","mrt":"205/32","n":4,"p":4,'
        '"scheduler":"turtle","speed":"1","trt":"205/8","violations":[]}',
    "oracle POW2":
        '{"decisions":{"0":"serial","1":"serial","2":"parallel","3":"serial",'
        '"4":"serial"},"instance_hash":"e259d4a421a4a51a","method":"exhaustive",'
        '"objective":"awake","value":"11/4"}',
    "oracle POW2 --method lb --objective trt":
        '{"instance_hash":"e259d4a421a4a51a","method":"lb","objective":"trt",'
        '"value":"27/8"}',
}


@pytest.mark.parametrize("command", sorted(RUN_ORACLE_OUTPUTS))
def test_run_and_oracle_exact_output(command, tmp_path, capsys):
    paths = {"POW2": tmp_path / "pow2.json", "DEP": tmp_path / "dep.json"}
    paths["POW2"].write_text(POW2_TAP)
    paths["DEP"].write_text(DEP_TAP)
    argv = [str(paths.get(arg, arg)) for arg in command.split()]
    assert main(argv) == 0
    assert capsys.readouterr().out == RUN_ORACLE_OUTPUTS[command] + "\n"


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

    @pytest.mark.parametrize("objective", ["awake", "trt"])
    def test_grid_method(self, tmp_path, capsys, objective):
        tap = TAP(4, (Task(0, Rat(1), Rat(4), ZERO), Task(1, Rat(2), Rat(2), Rat(1))))
        path = _write(tmp_path, tap)
        assert main(["oracle", path, "--method", "grid", "--objective", objective]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["method"] == "grid" and out["objective"] == objective
        assert out["grid"] == "1/4"
        assert parse_rat(out["value"]) == grid_opt(tap, objective, Rat(1, 4))

    def test_grid_method_refuses_n5(self, tmp_path, capsys):
        tap = TAP(4, tuple(Task(i, Rat(1), Rat(2), ZERO) for i in range(5)))
        path = _write(tmp_path, tap)
        assert main(["oracle", path, "--method", "grid"]) == 2
        assert capsys.readouterr() == ("", "error: grid_opt requires n <= 4, got 5\n")

    @pytest.mark.parametrize("argv, message", [
        (["--objective", "trt"], "exhaustive oracle supports only the awake objective"),
        (["--method", "lb"], "the lower-bound oracle supports only the trt objective"),
    ], ids=["exhaustive-trt", "lb-awake"])
    def test_objective_refused(self, tmp_path, capsys, argv, message):
        path = _write(tmp_path, _golden_tap())
        assert main(["oracle", path, *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ["oracle", "{tap}", "--bound", "3"],
        ["sweep", "--count", "1", "--oracle-bound", "3"],
    ], ids=["oracle", "sweep"])
    def test_no_oracle_bound_flags(self, tmp_path, capsys, argv):
        """The exhaustive oracle's bound is fixed per command: 20 for
        ``oracle`` (the function's default), 14 for ``sweep``."""
        tap = _write(tmp_path, _golden_tap())
        with pytest.raises(SystemExit) as exc:
            main([arg.format(tap=tap) for arg in argv])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestSweep:
    def test_refused_run_is_a_row(self, tmp_path, capsys):
        """A scheduler that refuses an instance gets a row carrying the
        refusal and a warning; the other rows and the exit status stand."""
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        _write(corpus, TAP(4, (Task(0, Rat(3), Rat(6), ZERO),)), "odd.json")
        out = tmp_path / "out.csv"
        assert main(["sweep", "--dir", str(corpus), "--schedulers", "bal,csched",
                     "-o", str(out)]) == 0
        refusal = "csched needs power-of-two works, task 0 has sigma 3 and pi 6: apply round_pow2"
        _, bal, csched = csv.reader(out.read_text().splitlines())
        assert bal == ["odd.json", "bal", "4", "1", "3/2", "3/2", "3/2", "3/2", "1", "1", "", ""]
        assert csched == ["odd.json", "csched", "4", "1"] + [""] * 7 + [refusal]
        assert capsys.readouterr().err == f"warning: odd.json/csched: {refusal}\n"

    def test_ballistic_column(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        path = corpus / "ct.json"
        assert main(["gen", "c-trigger", "--p", "8", "--sigma-t", "2", "-o", str(path)]) == 0
        out = tmp_path / "out.csv"
        assert main(["sweep", "--dir", str(corpus), "--schedulers", "csched",
                     "-o", str(out)]) == 0
        header, row = out.read_text().strip().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        tap = tap_from_json(path.read_text())
        ratios = [(r.exited - r.entered) / (2 * tap.task(r.task_id).sigma)
                  for r in run("csched", tap).scheduler.mode_records
                  if r.mode == "ballistic"]
        assert cells["max_ballistic_over_2sigma"] == rat_str(max(ratios)) == "5/64"
        assert cells["violations"] == ""

    def test_deterministic_and_bounded(self, tmp_path):
        args = ["sweep", "--count", "6",
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
        assert main(["sweep", "--count", "4",
                     "--p-list", "4,8", "--n", "6", "--seed", "11",
                     "--arrival", "bursty", "--schedulers", "bal,unk",
                     "--oracle", "both", "-o", str(out)]) == 0
        assert len(calls) == 4
        # the CSV the sweep wrote when it ran the oracle once per row
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "265e67e9e186c5a0ff92a8b39840b7aa1593abfbc2ef86a78ab0794d77b2430f")

    def test_rows_do_not_hash_the_instance(self, tmp_path, monkeypatch):
        # the sweep prints no instance hash, so it computes none
        import taplab.cli as cli

        def unused(tap):
            raise AssertionError("instance_hash called by sweep")

        monkeypatch.setattr(cli, "instance_hash", unused)
        out = tmp_path / "out.csv"
        assert main(["sweep", "--count", "2", "--p-list", "4", "--n", "3",
                     "--seed", "1", "--schedulers", "bal,equi", "-o", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 5

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

    def test_instance_above_the_oracle_bound(self, tmp_path, capsys):
        """Above the sweep's exhaustive bound the awake columns stay blank
        and the TRT lower bound is still filled."""
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        assert main(["gen", "random", "--p", "4", "--n", "15", "--seed", "1",
                     "-o", str(corpus / "big.json")]) == 0
        out = tmp_path / "out.csv"
        assert main(["sweep", "--dir", str(corpus), "--schedulers", "bal",
                     "--oracle", "both", "-o", str(out)]) == 0
        header, *rows = out.read_text().strip().splitlines()
        assert len(rows) == 1
        cells = dict(zip(header.split(","), rows[0].split(",")))
        assert cells["n"] == "15"
        assert cells["opt_awake"] == cells["ratio_awake"] == ""
        assert cells["trt_lb"] != "" and cells["ratio_trt_lb"] != ""

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
        '"opt_awake":"987/610","p":8,"ratio":"9349/3948","scheduler":"bal"}',
    "duel mwf-all-parallel golden --p 100":
        '{"adversary":"golden","awake":"98323/610","injected":true,'
        '"opt_awake":"987/610","p":100,"ratio":"98323/987",'
        '"scheduler":"mwf-all-parallel"}',
    "duel unk golden --p 32":
        '{"adversary":"golden","awake":"1292/305","injected":true,'
        '"opt_awake":"987/610","p":32,"ratio":"2584/987","scheduler":"unk"}',
    "duel rigid flood --R 10":
        '{"R":10,"adversary":"flood","ratio":"20481/1862","scheduler":"rigid",'
        '"triggered":true,"trt":"225291/20480","trt_lb":"10241/10240"}',
    "duel equi flood --R 100":
        '{"R":100,"adversary":"flood","ratio":"1126/1025","scheduler":"equi",'
        '"triggered":true,"trt":"563/512","trt_lb":"1025/1024"}',
    # the flood's power-of-two work is in csched's input class
    "duel csched flood --R 3 --p 8":
        '{"R":3,"adversary":"flood","ratio":"1494/745","scheduler":"csched",'
        '"triggered":true,"trt":"8217/4096","trt_lb":"8195/8192"}',
    "duel rigid flood --R 0":
        '{"R":0,"adversary":"flood","inconclusive":true,"ratio":"1",'
        '"scheduler":"rigid","triggered":false,"trt":"1","trt_lb":"1"}',
}


class TestDuel:
    @pytest.mark.parametrize("command", sorted(DUEL_OUTPUTS))
    def test_exact_output(self, command, capsys):
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

    def test_flood_that_never_fires(self, tmp_path, capsys):
        """rigid runs the probe on the whole budget, so its remaining work is
        below 1 from the start and the flood never fires."""
        probe = TAP(8, (Task(0, Rat(1, 4), Rat(1, 2), ZERO),))
        path = _write(tmp_path, probe)
        assert main(["duel", "rigid", "flood", "--R", "10", "--probe", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["inconclusive"] is True and out["triggered"] is False
        assert out["ratio"] == "1"


class TestVerify:
    def test_only_single_criterion(self, capsys):
        assert main(["verify", "--only", "A1", "--seed", "0"]) == 0
        assert "A1" in capsys.readouterr().out

    def test_a9_exit_status(self, capsys):
        assert main(["verify", "--only", "A9", "--seed", "0"]) == 0
        assert "A9   PASS" in capsys.readouterr().out
