"""Experiment harness.

Subcommands: ``run`` (one scheduler on one instance, JSON record),
``sweep`` (scheduler x instance matrix, CSV), ``gen`` (write instances),
``duel`` (scheduler versus adaptive adversary), ``oracle`` (offline
bounds), ``verify`` (acceptance battery).  All outputs are deterministic
given inputs and seeds; rationals are serialized in lowest terms.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from .adversary import (
    GenParams,
    GoldenAdversary,
    NonPreemptiveAdversary,
    gen_c_trigger,
    gen_dtap_levels,
    gen_geometric,
    gen_mrt_cheap_expensive,
    gen_random,
    gen_random_dtap,
    gen_randlb,
)
from .core import (
    TAP,
    Task,
    TapError,
    instance_hash,
    metrics_from_trace,
    tap_from_json,
    tap_to_json,
)
from .engine import EngineConfig, simulate, validate_trace
from .oracle import (
    InstanceTooLargeError,
    grid_opt,
    opt_awake_exhaustive,
    opt_awake_given_decisions,
    opt_trt_lower,
)
from .rationals import Rat, ZERO, ONE, parse_rat, rat_str
from .verify import SCHEDULERS, default_seed, format_results, make_scheduler, run_battery

SWEEP_COLUMNS = [
    "instance", "scheduler", "p", "n", "awake", "trt", "opt_awake", "trt_lb",
    "ratio_awake", "ratio_trt_lb", "max_ballistic_over_2sigma", "violations",
]


def _die(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _load_tap(path: str) -> TAP:
    """The validated TAP in a JSON file."""
    with open(path) as fh:
        return tap_from_json(fh.read())


def _build_scheduler(name: str, args) -> tuple:
    """(scheduler, budget factor) honoring per-scheduler defaults and flags."""
    if name not in SCHEDULERS:
        raise TapError(f"unknown scheduler {name!r}")
    _, default_factor, needs_cancel = SCHEDULERS[name]
    factor = args.budget_factor if args.budget_factor is not None else default_factor
    if needs_cancel and not args.allow_cancel:
        raise TapError(f"scheduler {name!r} requires --allow-cancel")
    return make_scheduler(name), factor


def _config(tap: TAP, factor, args) -> EngineConfig:
    return EngineConfig(
        speed=args.speed,
        processor_budget=Rat(factor) * tap.p,
        allow_cancel=args.allow_cancel,
    )


def _run_record(tap: TAP, name: str, args) -> dict:
    """(``run`` record without the instance hash, trace) of one run."""
    scheduler, factor = _build_scheduler(name, args)
    config = _config(tap, factor, args)
    trace = simulate(tap, scheduler, config)
    metrics = metrics_from_trace(trace, tap)
    report = validate_trace(trace, tap, config)
    return {
        "scheduler": name,
        "p": tap.p,
        "speed": rat_str(config.speed),
        "budget_factor": rat_str(Rat(factor)),
        "awake": rat_str(metrics.awake),
        "trt": rat_str(metrics.trt),
        "mrt": rat_str(metrics.mrt),
        "n": tap.n,
        "cancellations": len(trace.cancellations),
        "violations": report.violations,
    }, trace


def cmd_run(args) -> int:
    try:
        tap = _load_tap(args.instance)
        record, trace = _run_record(tap, args.scheduler, args)
    except (TapError, OSError) as exc:
        return _die(str(exc))
    record["instance_hash"] = instance_hash(tap)
    print(json.dumps(record, separators=(",", ":"), sort_keys=True))
    if args.dump_trace:
        dump = {
            "slices": [
                [rat_str(a), rat_str(b), {str(t): rat_str(r) for t, r in alloc.items()}]
                for a, b, alloc in trace.slices
            ],
            "completions": {str(t): rat_str(f) for t, f in trace.completions.items()},
            "cancellations": [[t, rat_str(at)] for t, at in trace.cancellations],
        }
        with open(args.dump_trace, "w") as fh:
            json.dump(dump, fh, separators=(",", ":"), sort_keys=True)
    return 0 if not record["violations"] else 1


# --- gen ---------------------------------------------------------------------

def _generate(args) -> TAP:
    name = args.generator
    seed = args.seed if args.seed is not None else default_seed()
    if name == "random":
        return gen_random(GenParams(
            p=args.p, n=args.n, seed=seed,
            ratio_distribution=args.ratio_dist, arrival_pattern=args.arrival,
        ))
    if name == "geometric":
        return gen_geometric(args.p)
    if name == "randlb":
        return gen_randlb(args.p, args.blocks, seed)
    if name == "cheap-expensive":
        return gen_mrt_cheap_expensive(args.p, seed)
    if name == "dtap-levels":
        return gen_dtap_levels(args.p, seed)
    if name == "dtap-random":
        return gen_random_dtap(GenParams(p=args.p, n=args.n, seed=seed))
    if name == "c-trigger":
        return gen_c_trigger(args.p, args.sigma_t)
    raise TapError(f"unknown generator {name!r}")


def cmd_gen(args) -> int:
    try:
        tap = _generate(args)
    except TapError as exc:
        return _die(str(exc))
    text = tap_to_json(tap)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


# --- sweep -------------------------------------------------------------------

def _sweep_instances(args):
    """(label, TAP) pairs in deterministic order."""
    if args.dir:
        import os

        names = sorted(
            f for f in os.listdir(args.dir) if f.endswith(".json")
        )
        for fname in names:
            yield fname, _load_tap(f"{args.dir}/{fname}")
        return
    seed = args.seed if args.seed is not None else default_seed()
    ps = args.p_list
    for i in range(args.count):
        params = GenParams(
            p=ps[i % len(ps)], n=args.n, seed=seed + i,
            ratio_distribution=args.ratio_dist, arrival_pattern=args.arrival,
        )
        tap = gen_random(params)
        yield f"{args.generator}-{seed + i}", tap


def _sweep_bounds(tap: TAP, args) -> tuple:
    """(exhaustive awake optimum, TRT lower bound) of one instance; None
    where ``--oracle`` leaves it out, the instance exceeds the bound or
    has dependencies (both oracles need a plain TAP)."""
    opt = lb = None
    if tap.has_deps:
        return opt, lb
    if args.oracle in ("exhaustive", "both"):
        try:
            opt, _ = opt_awake_exhaustive(tap, bound=args.oracle_bound)
        except InstanceTooLargeError:
            pass
    if args.oracle in ("lb", "both"):
        lb = opt_trt_lower(tap)
    return opt, lb


def _sweep_row(label: str, tap: TAP, name: str, record: dict, trace, bounds) -> list:
    opt, lb = bounds
    opt_awake = trt_lb = ratio_awake = ratio_trt = ""
    if opt is not None:
        opt_awake = rat_str(opt)
        if opt > 0:
            ratio_awake = rat_str(parse_rat(record["awake"]) / opt)
    if lb is not None:
        trt_lb = rat_str(lb)
        if lb > 0:
            ratio_trt = rat_str(parse_rat(record["trt"]) / lb)
    ballistic = ""
    records = trace.aux.get("c_modes", [])
    ratios = [
        (r.exited - r.entered) / (2 * tap.task(r.task_id).sigma)
        for r in records
        if r.mode == "ballistic" and r.exited is not None
    ]
    if ratios:
        ballistic = rat_str(max(ratios))
    return [
        label, name, tap.p, tap.n, record["awake"], record["trt"],
        opt_awake, trt_lb, ratio_awake, ratio_trt, ballistic,
        " / ".join(record["violations"]),
    ]


def _sweep_instance(label: str, tap: TAP, schedulers: list, args) -> list:
    """The rows of one instance.  Its bounds are computed once, when the
    first scheduler run succeeds, so an instance on which every run fails
    never reaches the oracles."""
    rows = []
    bounds = None
    for name in schedulers:
        try:
            record, trace = _run_record(tap, name, args)
        except TapError as exc:
            rows.append([label, name, tap.p, tap.n, "", "", "", "", "", "", "", str(exc)])
            continue
        if bounds is None:
            bounds = _sweep_bounds(tap, args)
        rows.append(_sweep_row(label, tap, name, record, trace, bounds))
    return rows


def cmd_sweep(args) -> int:
    try:
        instances = list(_sweep_instances(args))
    except (TapError, OSError) as exc:
        return _die(str(exc))
    schedulers = args.schedulers.split(",")
    rows = [
        row
        for label, tap in instances
        for row in _sweep_instance(label, tap, schedulers, args)
    ]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    skipped = [r for r in rows if r[4] == "" and r[11]]
    for row in rows:
        writer.writerow(row)
    for row in skipped:
        print(f"warning: {row[0]}/{row[1]}: {row[11]}", file=sys.stderr)
    if args.oracle != "none":
        for label, tap in instances:
            if tap.has_deps:
                print(f"warning: {label}: dependencies, no oracle columns", file=sys.stderr)
    text = out.getvalue()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# --- duel --------------------------------------------------------------------

def cmd_duel(args) -> int:
    seed = args.seed if args.seed is not None else default_seed()
    try:
        scheduler, factor = _build_scheduler(args.scheduler, args)
        if args.adversary == "golden":
            base = TAP(args.p, ())
            adv = GoldenAdversary(args.p)
        elif args.adversary == "flood":
            base = (
                _load_tap(args.probe)
                if args.probe
                else TAP(args.p, (Task(0, ONE, Rat(args.p), ZERO),))
            )
            adv = NonPreemptiveAdversary(args.R, base, opt_trt_lower(base))
        else:
            return _die(f"unknown adversary {args.adversary!r}")
        trace = simulate(base, scheduler, _config(base, factor, args), adversary=adv)
        tap = TAP(base.p, base.tasks + tuple(trace.injected))
        metrics = metrics_from_trace(trace, tap)
        if args.adversary == "golden":
            opt = opt_awake_given_decisions(tap, adv.witness_decisions())
            report = {
                "adversary": "golden",
                "scheduler": args.scheduler,
                "p": args.p,
                "injected": adv.injected,
                "awake": rat_str(metrics.awake),
                "opt_awake": rat_str(opt),
                "ratio": rat_str(metrics.awake / opt),
            }
        else:
            lb = opt_trt_lower(tap)
            report = {
                "adversary": "flood",
                "scheduler": args.scheduler,
                "R": args.R,
                "triggered": adv.triggered,
                "trt": rat_str(metrics.trt),
                "trt_lb": rat_str(lb),
                "ratio": rat_str(metrics.trt / lb),
            }
            if not adv.triggered:
                report["inconclusive"] = True
    except (TapError, OSError) as exc:
        return _die(str(exc))
    report["seed"] = seed
    print(json.dumps(report, separators=(",", ":"), sort_keys=True))
    return 0


# --- oracle ------------------------------------------------------------------

def cmd_oracle(args) -> int:
    try:
        tap = _load_tap(args.instance)
        if args.method == "exhaustive":
            if args.objective != "awake":
                return _die("exhaustive oracle supports only the awake objective")
            value, decisions = opt_awake_exhaustive(tap, bound=args.bound)
            record = {
                "method": "exhaustive",
                "objective": "awake",
                "value": rat_str(value),
                "decisions": {
                    str(tid): d.name.lower() for tid, d in sorted(decisions.items())
                },
            }
        elif args.method == "grid":
            value = grid_opt(tap, args.objective, args.grid)
            record = {
                "method": "grid",
                "objective": args.objective,
                "grid": rat_str(args.grid),
                "value": rat_str(value),
            }
        elif args.method == "lb":
            if args.objective != "trt":
                return _die("the lower-bound oracle supports only the trt objective")
            record = {
                "method": "lb",
                "objective": "trt",
                "value": rat_str(opt_trt_lower(tap)),
            }
        else:
            return _die(f"unknown method {args.method!r}")
    except (TapError, OSError) as exc:
        return _die(str(exc))
    record["instance_hash"] = instance_hash(tap)
    print(json.dumps(record, separators=(",", ":"), sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    try:
        results = run_battery(seed=args.seed, only=args.only)
    except TapError as exc:
        return _die(str(exc))
    print(format_results(results))
    return 0 if all(r.passed for r in results) else 1


# --- argument parsing --------------------------------------------------------
#
# Flag values are parsed by argparse, so a malformed one ends in a usage
# message and exit status 2 before any command runs.

def _flag_type(parse, valid, expected: str):
    """An argparse type: ``parse(text)``, rejected unless ``valid``."""
    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not valid(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return convert


_count = _flag_type(int, lambda v: v >= 0, "a non-negative integer")
_int_list = _flag_type(lambda text: [int(x) for x in text.split(",")],
                       lambda v: True, "comma-separated integers")
_positive_rational = _flag_type(parse_rat, lambda v: v > 0,
                                "a positive rational a or a/b")


def _add_run_flags(sub):
    sub.add_argument("--speed", type=_positive_rational, default="1",
                     help="speed augmentation factor")
    sub.add_argument("--budget-factor", type=int, default=None,
                     help="processor budget as a multiple of p")
    sub.add_argument("--allow-cancel", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taplab",
        description="Simulation laboratory for serial/parallel scheduling",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="run one scheduler on one instance")
    p_run.add_argument("instance")
    p_run.add_argument("scheduler", help=",".join(sorted(SCHEDULERS)))
    p_run.add_argument("--dump-trace", metavar="FILE")
    _add_run_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_gen = subs.add_parser("gen", help="generate an instance")
    p_gen.add_argument("generator", help="random|geometric|randlb|cheap-expensive|"
                       "dtap-levels|dtap-random|c-trigger")
    p_gen.add_argument("--p", type=int, default=8)
    p_gen.add_argument("--n", type=_count, default=8)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--ratio-dist", default="uniform",
                       choices=["uniform", "extremes", "pow2"])
    p_gen.add_argument("--arrival", default="batch",
                       choices=["batch", "poisson", "bursty"])
    p_gen.add_argument("--blocks", type=_count, default=4)
    p_gen.add_argument("--sigma-t", type=_positive_rational, default="4")
    p_gen.add_argument("-o", "--output")
    p_gen.set_defaults(func=cmd_gen)

    p_sweep = subs.add_parser("sweep", help="scheduler x instance matrix to CSV")
    p_sweep.add_argument("--dir", help="directory of instance JSON files")
    p_sweep.add_argument("--generator", default="random", choices=["random"])
    p_sweep.add_argument("--count", type=_count, default=100)
    p_sweep.add_argument("--p-list", type=_int_list, default="4,8,16")
    p_sweep.add_argument("--n", type=_count, default=8)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--ratio-dist", default="uniform",
                         choices=["uniform", "extremes", "pow2"])
    p_sweep.add_argument("--arrival", default="batch",
                         choices=["batch", "poisson", "bursty"])
    p_sweep.add_argument("--schedulers", default="bal,unk")
    p_sweep.add_argument("--oracle", default="both",
                         choices=["exhaustive", "lb", "both", "none"])
    p_sweep.add_argument("--oracle-bound", type=int, default=14,
                         help="largest n the exhaustive oracle will attempt")
    p_sweep.add_argument("--jobs", type=int,
                         help="ignored: the sweep runs in one thread")
    p_sweep.add_argument("-o", "--output")
    _add_run_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_duel = subs.add_parser("duel", help="scheduler versus adaptive adversary")
    p_duel.add_argument("scheduler")
    p_duel.add_argument("adversary", help="golden|flood")
    p_duel.add_argument("--p", type=int, default=100)
    p_duel.add_argument("--R", type=_count, default=10)
    p_duel.add_argument("--probe", help="probe instance file for the flood")
    p_duel.add_argument("--seed", type=int, default=None)
    _add_run_flags(p_duel)
    p_duel.set_defaults(func=cmd_duel)

    p_oracle = subs.add_parser("oracle", help="offline optimum and bounds")
    p_oracle.add_argument("instance")
    p_oracle.add_argument("--objective", default="awake", choices=["awake", "trt"])
    p_oracle.add_argument("--method", default="exhaustive",
                          choices=["exhaustive", "grid", "lb"])
    p_oracle.add_argument("--grid", type=_positive_rational, default="1/4")
    p_oracle.add_argument("--bound", type=int, default=20)
    p_oracle.set_defaults(func=cmd_oracle)

    p_verify = subs.add_parser("verify", help="run the acceptance battery")
    p_verify.add_argument("--only", help="run a single criterion, e.g. A3")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.set_defaults(func=cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
