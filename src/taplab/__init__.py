"""taplab: a simulation laboratory for the serial-parallel decision problem."""

from .rationals import BACKEND, Rat, parse_rat, rat_str
from .core import (
    TAP,
    Task,
    Decision,
    Metrics,
    TapError,
    InvalidInstanceError,
    InvalidArgumentError,
    normalize_tap,
    normalize_task,
    scale_tap,
    round_pow2,
    metrics_from_trace,
    tap_from_json,
    tap_to_json,
    instance_hash,
)
from .engine import Engine, EngineConfig, Scheduler, Trace, simulate, validate_trace

__all__ = [
    "BACKEND",
    "Rat",
    "parse_rat",
    "rat_str",
    "TAP",
    "Task",
    "Decision",
    "Metrics",
    "TapError",
    "InvalidInstanceError",
    "InvalidArgumentError",
    "normalize_tap",
    "normalize_task",
    "scale_tap",
    "round_pow2",
    "metrics_from_trace",
    "tap_from_json",
    "tap_to_json",
    "instance_hash",
    "Engine",
    "EngineConfig",
    "Scheduler",
    "Trace",
    "simulate",
    "validate_trace",
]

__version__ = "0.1.0"
