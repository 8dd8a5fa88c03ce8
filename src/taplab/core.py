"""Domain types: tasks, TAPs, decisions, metrics, and TAP normalization.

Every task has a serial implementation (work ``sigma``) and a parallel
implementation (work ``pi``, perfectly scalable).  A TAP is an instance:
a processor count plus a task list; a DTAP additionally carries an acyclic
dependency set per task.  All quantities are exact rationals.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, replace
from graphlib import CycleError, TopologicalSorter

from .rationals import (
    Rat,
    ZERO,
    pow2_ceil,
    rat_str,
    rat_sum,
    parse_rat,
)


class TapError(Exception):
    """Base class for all taplab errors."""


class InvalidInstanceError(TapError):
    """The instance violates a TAP/DTAP invariant."""


class InvalidArgumentError(TapError):
    """A parameter is out of its documented range."""


class InstanceTooLargeError(TapError):
    """The instance exceeds a size bound (an oracle's, or one a scheduler declares)."""


class IncompleteTraceError(TapError):
    """Metrics were requested from a trace with unfinished tasks."""


class Decision(enum.Enum):
    SERIAL = "serial"
    PARALLEL = "parallel"

    def __repr__(self) -> str:  # terse in test output
        return self.value


@dataclass(frozen=True)
class Task:
    """One unit of computation: (sigma, pi, arrival) plus optional deps."""

    id: int
    sigma: Rat
    pi: Rat
    arrival: Rat
    deps: frozenset[int] = frozenset()

    def work(self, decision: Decision) -> Rat:
        return self.sigma if decision is Decision.SERIAL else self.pi


@dataclass(frozen=True)
class TAP:
    """A task arrival process: processor count plus tasks ordered by arrival."""

    p: int
    tasks: tuple[Task, ...]

    def __post_init__(self):
        object.__setattr__(self, "tasks", tuple(self.tasks))

    @property
    def n(self) -> int:
        return len(self.tasks)

    @property
    def has_deps(self) -> bool:
        return any(t.deps for t in self.tasks)

    def task(self, tid: int) -> Task:
        for t in self.tasks:
            if t.id == tid:
                return t
        raise KeyError(tid)

    def validate(self) -> None:
        if self.p < 2:
            raise InvalidInstanceError(f"p must be >= 2, got {self.p}")
        ids = [t.id for t in self.tasks]
        if len(set(ids)) != len(ids):
            raise InvalidInstanceError("duplicate task ids")
        prev = None
        for t in self.tasks:
            if t.sigma <= 0 or t.pi <= 0:
                raise InvalidInstanceError(f"task {t.id}: non-positive work")
            if t.pi < t.sigma:
                raise InvalidInstanceError(f"task {t.id}: pi < sigma")
            if t.pi > self.p * t.sigma:
                raise InvalidInstanceError(f"task {t.id}: pi > p*sigma")
            if t.arrival < 0:
                raise InvalidInstanceError(f"task {t.id}: negative arrival")
            if prev is not None and t.arrival < prev:
                raise InvalidInstanceError("arrivals not non-decreasing")
            prev = t.arrival
        id_set = set(ids)
        for t in self.tasks:
            for d in t.deps:
                if d not in id_set:
                    raise InvalidInstanceError(f"task {t.id}: unknown dep {d}")
                if d == t.id:
                    raise InvalidInstanceError(f"task {t.id}: self-dependency")
        if self.has_deps:
            self._check_acyclic()

    def _check_acyclic(self) -> None:
        try:
            TopologicalSorter({t.id: t.deps for t in self.tasks}).prepare()
        except CycleError:
            raise InvalidInstanceError("cyclic dependencies") from None


@dataclass
class Metrics:
    """Awake time and total/mean response time."""

    awake: Rat
    trt: Rat
    mrt: Rat


def normalize_task(task: Task, p: int) -> Task:
    """Clamp the cost ratio pi/sigma into [1, p].

    A task with pi < sigma should never run in serial, so its serial
    implementation is replaced by the parallel one; a task with
    pi > p*sigma should never run in parallel, so pi is clamped to
    p*sigma (full-parallel execution then takes exactly sigma).
    """
    if task.sigma <= 0 or task.pi <= 0:
        raise InvalidInstanceError(f"task {task.id}: non-positive work")
    sigma = min(task.sigma, task.pi)
    pi = min(task.pi, p * sigma)
    if sigma == task.sigma and pi == task.pi:
        return task
    return replace(task, sigma=sigma, pi=pi)


def normalize_tap(tap: TAP) -> TAP:
    return TAP(tap.p, tuple(normalize_task(t, tap.p) for t in tap.tasks))


def scale_tap(tap: TAP, c) -> TAP:
    """Multiply every job's work by c >= 1; arrivals and p are unchanged."""
    c = Rat(c)
    if c < 1:
        raise InvalidArgumentError(f"scale factor must be >= 1, got {c}")
    if c == 1:
        return tap
    return TAP(
        tap.p,
        tuple(replace(t, sigma=t.sigma * c, pi=t.pi * c) for t in tap.tasks),
    )


def round_pow2(tap: TAP) -> TAP:
    """Round every work up to a power of two (never more than doubling).

    The resulting ratio pi/sigma is re-clamped into [1, q] where q is p
    rounded down to a power of two, so the rounded instance stays a valid
    TAP for the same p.
    """
    q = Rat(1 << (tap.p.bit_length() - 1))  # p rounded down to a power of two
    out = []
    for t in tap.tasks:
        sigma = pow2_ceil(t.sigma)
        pi = pow2_ceil(t.pi)
        pi = min(max(pi, sigma), q * sigma)
        out.append(replace(t, sigma=sigma, pi=pi))
    return TAP(tap.p, tuple(out))


def interval_union_measure(intervals) -> Rat:
    """Total measure of a union of closed intervals."""
    spans = sorted((Rat(a), Rat(b)) for a, b in intervals if b > a)
    total = ZERO
    cur_a = cur_b = None
    for a, b in spans:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def awake_time(trace, now=None) -> Rat:
    """Awake time of a run up to ``now`` (default: its end): the measure of
    the union of [availability, completion or ``now``) over the arrived
    tasks.  Availability is ``trace.arrivals``: on a DTAP, when the release
    time has passed and the last dependency finished."""
    completions = trace.completions
    return interval_union_measure(
        (at, completions.get(tid, now)) for tid, at in trace.arrivals.items())


def metrics_from_trace(trace, tap: TAP) -> Metrics:
    """Awake time (:func:`awake_time`), TRT and MRT of a completed trace;
    TRT counts from the release times, ``Task.arrival``."""
    completions = trace.completions
    missing = {t.id for t in tap.tasks}.union(trace.arrivals).difference(completions)
    if missing:
        raise IncompleteTraceError(f"unfinished tasks: {sorted(missing)}")
    trt = rat_sum(completions[t.id] for t in tap.tasks) - rat_sum(t.arrival for t in tap.tasks)
    n = len(tap.tasks)
    return Metrics(
        awake=awake_time(trace),
        trt=trt,
        mrt=trt / n if n else ZERO,
    )


# --- TAP JSON format (bit-exact) -------------------------------------------

def tap_to_dict(tap: TAP) -> dict:
    tasks = []
    for t in tap.tasks:
        rec = {
            "id": t.id,
            "sigma": rat_str(t.sigma),
            "pi": rat_str(t.pi),
            "arrival": rat_str(t.arrival),
        }
        if t.deps:
            rec["deps"] = sorted(t.deps)
        tasks.append(rec)
    return {"version": 1, "p": tap.p, "tasks": tasks}


def _json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer; a float, bool or string is an
    error rather than a number to truncate or parse."""
    if type(value) is not int:
        raise InvalidInstanceError(f"malformed TAP: {what} must be an integer, got {value!r}")
    return value


def _json_rat(value, what: str) -> Rat:
    """``value`` if it is ``"a"`` or ``"a/b"`` (a JSON integer reads as
    ``"a"``); a float, ``"1e5"``, ``"inf"`` or ``"nan"`` is an error."""
    if type(value) is int or type(value) is str:
        try:
            return parse_rat(str(value))
        except ValueError:
            pass
    raise InvalidInstanceError(
        f"malformed TAP: {what} must be \"a\" or \"a/b\" (integers, b > 0), got {value!r}")


def _json_list(value, what: str) -> list:
    if type(value) is not list:
        raise InvalidInstanceError(
            f"malformed TAP: {what} must be a JSON list, got {type(value).__name__}")
    return value


def _task_from_dict(rec, index: int) -> Task:
    if not isinstance(rec, dict):
        raise InvalidInstanceError(
            f"malformed TAP: tasks[{index}] must be a JSON object, got {type(rec).__name__}")
    for key in ("id", "sigma", "pi", "arrival"):
        if key not in rec:
            raise InvalidInstanceError(f"malformed TAP: tasks[{index}] has no {key!r}")
    tid = _json_int(rec["id"], f"tasks[{index}]: id")
    return Task(
        id=tid,
        sigma=_json_rat(rec["sigma"], f"task {tid}: sigma"),
        pi=_json_rat(rec["pi"], f"task {tid}: pi"),
        arrival=_json_rat(rec["arrival"], f"task {tid}: arrival"),
        deps=frozenset(_json_int(d, f"task {tid}: dependency")
                       for d in _json_list(rec.get("deps", []), f"task {tid}: deps")),
    )


def tap_from_dict(data: dict) -> TAP:
    if not isinstance(data, dict):
        raise InvalidInstanceError(
            f"malformed TAP: expected a JSON object, got {type(data).__name__}")
    if type(data.get("version")) is not int or data["version"] != 1:  # not true or 1.0
        raise InvalidInstanceError(f"unsupported TAP version {data.get('version')!r}")
    try:
        tasks = tuple(_task_from_dict(rec, i)
                      for i, rec in enumerate(_json_list(data["tasks"], "tasks")))
        tap = TAP(_json_int(data["p"], "p"), tasks)
    except KeyError as exc:
        raise InvalidInstanceError(f"malformed TAP: the TAP has no {exc}") from exc
    tap.validate()
    return tap


def tap_to_json(tap: TAP) -> str:
    return json.dumps(tap_to_dict(tap), separators=(",", ":"), sort_keys=True)


def tap_from_json(text: str) -> TAP:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInstanceError(f"malformed JSON: {exc}") from exc
    return tap_from_dict(data)


def instance_hash(tap: TAP) -> str:
    """64-bit FNV-1a hash of the canonical JSON bytes, for provenance."""
    data = tap_to_json(tap).encode()
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"
