"""Small grid search for algorithm hyperparameters.

Every grid point is a set of config overrides.  A point's score is the
mean number of rounds to reach the target optimality error over a few
seeds (infinity when any seed never reaches it); ties break toward the
smaller mean final error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..errors import DivergenceError, ParameterError
from .experiment import ExperimentConfig, run_experiment

__all__ = ["TunePoint", "TuneResult", "tune_baseline", "parse_grid_file"]


@dataclass
class TunePoint:
    overrides: dict
    mean_rounds: float
    mean_final_err: float


@dataclass
class TuneResult:
    best: TunePoint
    table: list[TunePoint]


def tune_baseline(config: ExperimentConfig, grid) -> TuneResult:
    """Evaluate each grid point and return the fastest-to-target one.

    The target is ``config.target_error``; each point runs
    ``min(config.seeds, 3)`` seeds.
    """
    grid = list(grid)
    if not grid:
        raise ParameterError("empty tuning grid")
    target = config.target_error
    if target is None:
        raise ParameterError("no target error given (config.target_error is unset)")
    seeds = min(config.seeds, 3)

    table = []
    for overrides in grid:
        trial = replace(
            config.with_overrides(overrides), out=None, seeds=seeds
        )
        try:
            result = run_experiment(trial)
        except DivergenceError:
            table.append(TunePoint(overrides, math.inf, math.inf))
            continue
        rounds = []
        finals = []
        for trace in result.traces:
            hit = trace.rounds_to(target)
            rounds.append(math.inf if hit is None else float(hit))
            final = trace.opt_errors()[-1]
            finals.append(math.inf if not np.isfinite(final) else float(final))
        table.append(
            TunePoint(
                overrides=dict(overrides),
                mean_rounds=float(np.mean(rounds)),
                mean_final_err=float(np.mean(finals)),
            )
        )
    best = min(table, key=lambda p: (p.mean_rounds, p.mean_final_err))
    return TuneResult(best=best, table=table)


def parse_grid_file(path) -> list[dict]:
    """One grid point per line: space-separated ``key=value`` pairs."""
    points = []
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            ln = raw.split("#", 1)[0].strip()
            if not ln:
                continue
            point = {}
            for tok in ln.split():
                if "=" not in tok:
                    raise ParameterError(
                        f"grid line {lineno}: expected key=value, got {tok!r}"
                    )
                k, _, v = tok.partition("=")
                point[k.strip()] = v.strip()
            points.append(point)
    if not points:
        raise ParameterError("empty tuning grid file")
    return points
