"""Experiment harness shared by the ``benchmarks/`` suite and the CLI."""

from .experiments import Experiment, experiment_command, EXPERIMENTS
from .reporting import format_series, format_table, print_banner
from .runner import (
    AlgorithmRun,
    calib_ms,
    evaluate_spread,
    pick_seeds,
    prepare_graph,
    run_and_evaluate,
)

__all__ = [
    "calib_ms",
    "prepare_graph",
    "pick_seeds",
    "AlgorithmRun",
    "run_and_evaluate",
    "evaluate_spread",
    "format_table",
    "format_series",
    "print_banner",
    "EXPERIMENTS",
    "Experiment",
    "experiment_command",
]
