"""Small grid search for algorithm hyperparameters.

Every grid point is a set of config overrides.  The points that agree on
the keys :func:`~soprolab.harness.experiment.build_problem` reads
(``PROBLEM_KEYS``) share one problem, built once.  A point's score is the
mean number of rounds to reach the target optimality error over a few
seeds (infinity when any seed never reaches it, or when a seed diverges:
:func:`~soprolab.harness.experiment.run_experiment` raises); ties break
toward the smaller mean final error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..errors import DivergenceError, ParameterError, read_utf8
from . import experiment
from .experiment import ExperimentConfig

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

    table, problems = [], {}
    for overrides in grid:
        # The table keeps a copy: a caller's later edit of its grid leaves it.
        overrides = dict(overrides)
        trial = replace(config.with_overrides(overrides), out=None, seeds=seeds)
        trial.check()  # before any set-up, as run_experiment checks
        key = tuple(getattr(trial, name) for name in experiment.PROBLEM_KEYS)
        if key not in problems:
            problems[key] = experiment.build_problem(trial)
        try:
            result = experiment.run_experiment(trial, problems[key])
        except DivergenceError:
            table.append(TunePoint(overrides, math.inf, math.inf))
            continue
        # A run that diverged raised, so every final error here is finite.
        hits = [trace.rounds_to(target) for trace in result.traces]
        rounds = [math.inf if hit is None else float(hit) for hit in hits]
        finals = [float(trace.opt_errors()[-1]) for trace in result.traces]
        table.append(TunePoint(overrides, float(np.mean(rounds)), float(np.mean(finals))))
    best = min(table, key=lambda p: (p.mean_rounds, p.mean_final_err))
    return TuneResult(best=best, table=table)


def parse_grid_file(path) -> list[dict]:
    """One grid point per line of UTF-8 text
    (:func:`~soprolab.errors.read_utf8`): space-separated ``key=value``
    pairs; '#' starts a comment."""
    points = []
    for lineno, raw in enumerate(read_utf8(path).splitlines(), start=1):
        ln = raw.split("#", 1)[0].strip()
        if not ln:
            continue
        point = {}
        for tok in ln.split():
            if "=" not in tok:
                raise ParameterError(f"grid line {lineno}: expected key=value, got {tok!r}")
            k, _, v = tok.partition("=")
            point[k.strip()] = v.strip()
        points.append(point)
    if not points:
        raise ParameterError("empty tuning grid file")
    return points
