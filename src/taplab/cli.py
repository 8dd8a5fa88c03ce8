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
import json
import os
import sys
from contextlib import nullcontext

from .adversary import (
    GenParams,
    GoldenAdversary,
    NonPreemptiveAdversary,
    flood_probe,
    gen_c_trigger,
    gen_dtap_levels,
    gen_geometric,
    gen_mrt_cheap_expensive,
    gen_random,
    gen_random_dtap,
    gen_randlb,
    golden_probe,
)
from .core import TAP, InvalidArgumentError, TapError, instance_hash, tap_from_json, tap_to_json
from .oracle import (
    InstanceTooLargeError,
    grid_opt,
    opt_awake_exhaustive,
    opt_awake_given_decisions,
    opt_trt_lower,
)
from .rationals import parse_rat, rat_str
from .verify import SCHEDULERS, format_results, run, run_battery

SWEEP_COLUMNS = [
    "instance", "scheduler", "p", "n", "awake", "trt", "opt_awake", "trt_lb",
    "ratio_awake", "ratio_trt_lb", "max_ballistic_over_2sigma", "violations",
]
#: largest n on which ``sweep`` runs the exhaustive awake oracle
SWEEP_ORACLE_BOUND = 14


def _print_record(record: dict) -> None:
    print(json.dumps(record, separators=(",", ":"), sort_keys=True))


def _load_tap(path: str) -> TAP:
    """The validated TAP in a JSON file."""
    with open(path) as fh:
        return tap_from_json(fh.read())


def _save(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def cmd_run(args) -> int:
    tap = _load_tap(args.instance)
    done = run(args.scheduler, tap, args.budget_factor, args.speed)
    metrics = done.metrics()
    if args.dump_trace:
        trace = done.trace
        dump = {
            "slices": [
                [rat_str(a), rat_str(b), {str(t): rat_str(r) for t, r in alloc.items()}]
                for a, b, alloc in trace.slices
            ],
            "completions": {str(t): rat_str(f) for t, f in trace.completions.items()},
            "cancellations": [[t, rat_str(at)] for t, at in trace.cancellations],
        }
        _save(args.dump_trace, json.dumps(dump, separators=(",", ":"), sort_keys=True))
    _print_record({
        "scheduler": args.scheduler,
        "p": tap.p,
        "speed": rat_str(done.config.speed),
        "budget_factor": rat_str(done.config.processor_budget / tap.p),
        "awake": rat_str(metrics.awake),
        "trt": rat_str(metrics.trt),
        "mrt": rat_str(metrics.mrt),
        "n": tap.n,
        "cancellations": len(done.trace.cancellations),
        "violations": done.violations,
        "instance_hash": instance_hash(tap),
    })
    return 0 if not done.violations else 1


# --- gen ---------------------------------------------------------------------

#: generator name -> instance built from the parsed ``gen`` flags
GENERATORS = {
    "random": lambda a: gen_random(GenParams(
        p=a.p, n=a.n, seed=a.seed,
        ratio_distribution=a.ratio_dist, arrival_pattern=a.arrival,
    )),
    "geometric": lambda a: gen_geometric(a.p),
    "randlb": lambda a: gen_randlb(a.p, a.blocks, a.seed),
    "cheap-expensive": lambda a: gen_mrt_cheap_expensive(a.p, a.seed),
    "dtap-levels": lambda a: gen_dtap_levels(a.p, a.seed),
    "dtap-random": lambda a: gen_random_dtap(GenParams(
        p=a.p, n=a.n, seed=a.seed, ratio_distribution=a.ratio_dist,
    )),
    "c-trigger": lambda a: gen_c_trigger(a.p, a.sigma_t),
}


def cmd_gen(args) -> int:
    text = tap_to_json(GENERATORS[args.generator](args))
    if args.output:
        _save(args.output, text + "\n")
    else:
        print(text)
    return 0


# --- sweep -------------------------------------------------------------------

def _sweep_instances(args):
    """(label, TAP) pairs in deterministic order."""
    if args.dir:
        names = sorted(
            f for f in os.listdir(args.dir) if f.endswith(".json")
        )
        for fname in names:
            yield fname, _load_tap(f"{args.dir}/{fname}")
        return
    ps = args.p_list
    for i in range(args.count):
        params = GenParams(
            p=ps[i % len(ps)], n=args.n, seed=args.seed + i,
            ratio_distribution=args.ratio_dist, arrival_pattern=args.arrival,
        )
        yield f"random-{args.seed + i}", gen_random(params)


def _sweep_bounds(tap: TAP, args) -> tuple:
    """(exhaustive awake optimum, TRT lower bound) of one instance; None
    where ``--oracle`` leaves it out, the instance exceeds the bound or
    has dependencies (both oracles need a plain TAP)."""
    opt = lb = None
    if tap.has_deps:
        return opt, lb
    if args.oracle in ("exhaustive", "both"):
        try:
            opt, _ = opt_awake_exhaustive(tap, bound=SWEEP_ORACLE_BOUND)
        except InstanceTooLargeError:
            pass
    if args.oracle in ("lb", "both"):
        lb = opt_trt_lower(tap)
    return opt, lb


def _sweep_row(label: str, tap: TAP, name: str, done, metrics, bounds) -> dict:
    row = {
        "instance": label, "scheduler": name, "p": tap.p, "n": tap.n,
        "awake": rat_str(metrics.awake), "trt": rat_str(metrics.trt),
        "violations": " / ".join(done.violations),
    }
    opt, lb = bounds
    if opt is not None:
        row["opt_awake"] = rat_str(opt)
        if opt > 0:
            row["ratio_awake"] = rat_str(metrics.awake / opt)
    if lb is not None:
        row["trt_lb"] = rat_str(lb)
        if lb > 0:
            row["ratio_trt_lb"] = rat_str(metrics.trt / lb)
    ends = done.trace.completions  # a ballistic episode ends at completion
    ratios = [
        (ends[r.task_id] - r.entered) / (2 * tap.task(r.task_id).sigma)
        for r in getattr(done.scheduler, "mode_records", ())
        if r.mode == "ballistic" and r.task_id in ends
    ]
    if ratios:
        row["max_ballistic_over_2sigma"] = rat_str(max(ratios))
    return row


def cmd_sweep(args) -> int:
    """The rows of each instance in turn.  An instance's bounds are
    computed once, when its first scheduler run succeeds, so an instance
    on which every run fails never reaches the oracles."""
    instances = list(_sweep_instances(args))
    out = open(args.output, "w") if args.output else nullcontext(sys.stdout)
    with out as fh:
        writer = csv.DictWriter(fh, SWEEP_COLUMNS, restval="", lineterminator="\n")
        writer.writeheader()
        for label, tap in instances:
            bounds = None
            for name in args.schedulers:
                try:
                    done = run(name, tap, args.budget_factor, args.speed)
                    metrics = done.metrics()
                except TapError as exc:
                    writer.writerow({"instance": label, "scheduler": name, "p": tap.p,
                                     "n": tap.n, "violations": str(exc)})
                    print(f"warning: {label}/{name}: {exc}", file=sys.stderr)
                    continue
                if bounds is None:
                    bounds = _sweep_bounds(tap, args)
                writer.writerow(_sweep_row(label, tap, name, done, metrics, bounds))
            if tap.has_deps and args.oracle != "none":
                print(f"warning: {label}: dependencies, no oracle columns", file=sys.stderr)
    return 0


# --- duel --------------------------------------------------------------------

def cmd_duel(args) -> int:
    if args.adversary == "golden":
        base = golden_probe(args.p)
        adv = GoldenAdversary(args.p)
    else:
        base = _load_tap(args.probe) if args.probe else flood_probe(args.p)
        adv = NonPreemptiveAdversary(args.R, base)
    done = run(args.scheduler, base, args.budget_factor, args.speed, adversary=adv)
    metrics = done.metrics()
    if args.adversary == "golden":
        opt = opt_awake_given_decisions(done.tap, adv.witness_decisions())
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
        lb = opt_trt_lower(done.tap)
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
    _print_record(report)
    return 0


# --- oracle ------------------------------------------------------------------

def cmd_oracle(args) -> int:
    tap = _load_tap(args.instance)
    if args.method == "exhaustive":
        if args.objective != "awake":
            raise InvalidArgumentError(
                "exhaustive oracle supports only the awake objective")
        value, decisions = opt_awake_exhaustive(tap)
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
    else:
        if args.objective != "trt":
            raise InvalidArgumentError(
                "the lower-bound oracle supports only the trt objective")
        record = {
            "method": "lb",
            "objective": "trt",
            "value": rat_str(opt_trt_lower(tap)),
        }
    record["instance_hash"] = instance_hash(tap)
    _print_record(record)
    return 0


def cmd_verify(args) -> int:
    results = run_battery(seed=args.seed, only=args.only)
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
_scheduler_list = _flag_type(lambda text: text.split(","),
                             lambda names: all(name in SCHEDULERS for name in names),
                             "comma-separated schedulers from "
                             + ",".join(sorted(SCHEDULERS)))


def _add_run_flags(sub):
    sub.add_argument("--speed", type=_positive_rational, default="1",
                     help="speed augmentation factor")
    sub.add_argument("--budget-factor", type=int, default=None,
                     help="processor budget as a multiple of p")


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
    p_gen.add_argument("generator", choices=GENERATORS)
    p_gen.add_argument("--p", type=int, default=8)
    p_gen.add_argument("--n", type=_count, default=8)
    p_gen.add_argument("--seed", type=int, default=0)
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
    p_sweep.add_argument("--count", type=_count, default=100)
    p_sweep.add_argument("--p-list", type=_int_list, default="4,8,16")
    p_sweep.add_argument("--n", type=_count, default=8)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--ratio-dist", default="uniform",
                         choices=["uniform", "extremes", "pow2"])
    p_sweep.add_argument("--arrival", default="batch",
                         choices=["batch", "poisson", "bursty"])
    p_sweep.add_argument("--schedulers", type=_scheduler_list, default="bal,unk")
    p_sweep.add_argument("--oracle", default="both",
                         choices=["exhaustive", "lb", "both", "none"])
    p_sweep.add_argument("--jobs", type=int,
                         help="ignored: the sweep runs in one thread")
    p_sweep.add_argument("-o", "--output")
    _add_run_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_duel = subs.add_parser("duel", help="scheduler versus adaptive adversary")
    p_duel.add_argument("scheduler")
    p_duel.add_argument("adversary", choices=["golden", "flood"])
    p_duel.add_argument("--p", type=int, default=100)
    p_duel.add_argument("--R", type=_count, default=10)
    p_duel.add_argument("--probe", help="probe instance file for the flood")
    _add_run_flags(p_duel)
    p_duel.set_defaults(func=cmd_duel)

    p_oracle = subs.add_parser("oracle", help="offline optimum and bounds")
    p_oracle.add_argument("instance")
    p_oracle.add_argument("--objective", default="awake", choices=["awake", "trt"])
    p_oracle.add_argument("--method", default="exhaustive",
                          choices=["exhaustive", "grid", "lb"])
    p_oracle.add_argument("--grid", type=_positive_rational, default="1/4")
    p_oracle.set_defaults(func=cmd_oracle)

    p_verify = subs.add_parser("verify", help="run the acceptance battery")
    p_verify.add_argument("--only", help="run a single criterion, e.g. A3")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    """Run one command.  Every taplab error and every file error ends in
    one ``error:`` line and exit status 2, whichever command raised it."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (TapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
