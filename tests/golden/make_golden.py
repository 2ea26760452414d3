"""Golden traces: small experiments whose numbers a behaviour-keeping
change must reproduce.

Six cases are each one :func:`~soprolab.harness.experiment.run_experiment`
on synthetic data (d <= 40, 30 rounds): St-SoPro with ``S >= d``, with
``S < d < C`` and with ``S < C <= d``; full-batch SoPro, DSGD and DSGT.
Every proximal one runs at certified alphas, so it takes the row step
with the Neumann series.  One more reads a small one-hot LIBSVM file, which
:func:`record` writes to a temporary directory first.  Every case reads
the local sets through their CSR operator.  A golden file holds, per
round, ``opt_err``, ``q_err``, ``comm_bits`` and ``test_acc``; and per run
the path the proximal step took, the alphas and every certificate field.

Two more St-SoPro cases (:data:`AT_RHO_2`) take the solves that the series
leaves out.  Each runs :func:`~soprolab.optimizer.run` on the problem that
:func:`~soprolab.harness.experiment.build_problem` builds, at alphas set
directly so that the engine's bound is ``rho = 2``, and at ``beta =
0.05``, where both runs converge.  With ``S < d < C`` the row step solves
by CG; with ``S < C <= d`` the Gram step factors.  Their files hold, per
round, ``opt_err`` against the reference ``x*``; and per run the path the
step took, the engine and the alphas.

``test_golden.py`` compares a fresh run with the file at a relative
tolerance of 1e-9.

A change that moves these numbers on purpose writes the files again::

    PYTHONPATH=src python tests/golden/make_golden.py

and states in CHANGES.md that it did, with the largest relative change.
Named cases write only their own files, so a new case leaves the others'
last digits as they are::

    PYTHONPATH=src python tests/golden/make_golden.py st_sopro_cg sopro

An unknown name exits with status 1 before any file is written.
"""

from __future__ import annotations

import json
import sys
import tempfile
from dataclasses import asdict, replace
from pathlib import Path
from unittest import mock

import numpy as np

from soprolab import optimizer
from soprolab.harness.experiment import (
    ExperimentConfig,
    build_certificate,
    build_problem,
    run_experiment,
)
from soprolab.harness.metrics import optimality_error

HERE = Path(__file__).resolve().parent

COMMON = dict(
    n_agents=6, avg_degree=2.0, test_size=60, lambda_reg=0.05, max_iters=30, master_seed=3,
)

# A case whose dataset is ONE_HOT reads a file of 220 rows, each one-hot
# encoding 3 attributes over 12 columns (density 1/4), from write_one_hot.
ONE_HOT = "one_hot.svm"

# name: (the proximal step every round must take, config).  The names
# give the shape: S >= d
# ("dense"), S < d < C ("woodbury") and S < C <= d ("gram"), where the
# engine factors the Woodbury systems from the Gram stack at rho >= 1.
# At the certified alphas every case takes the series on the row step; the
# AT_RHO_2 cases take CG on the row step ("cg") and the Gram step
# ("cholesky").
CASES = {
    "st_sopro_dense": ("row_step", dict(algorithm="st_sopro", dim=8, per_agent=30,
                                        batch_g=10, batch_s=10)),
    "st_sopro_gram": ("row_step", dict(algorithm="st_sopro", dim=40, per_agent=30,
                                       batch_g=10, batch_s=10)),
    "st_sopro_woodbury": ("row_step", dict(algorithm="st_sopro", dim=20, per_agent=40,
                                           batch_g=10, batch_s=8)),
    "sopro": ("row_step", dict(algorithm="sopro", dim=10, per_agent=30)),
    "dsgd": (None, dict(algorithm="dsgd", dim=10, per_agent=30, batch_g=10, step_size=0.5)),
    "dsgt": (None, dict(algorithm="dsgt", dim=10, per_agent=30, batch_g=10, step_size=0.5)),
    "st_sopro_one_hot": ("row_step", dict(algorithm="st_sopro", dataset=ONE_HOT, dim=12,
                                          per_agent=30, batch_g=10, batch_s=8)),
    "st_sopro_cg": ("row_step", dict(algorithm="st_sopro", dim=20, per_agent=40, batch_g=10,
                                     batch_s=8, beta=0.05)),
    "st_sopro_cholesky": ("gram_step", dict(algorithm="st_sopro", dim=40, per_agent=30,
                                            batch_g=10, batch_s=10, beta=0.05)),
}

# The cases run at rho = 2 through optimizer.run rather than run_experiment.
AT_RHO_2 = ("st_sopro_cg", "st_sopro_cholesky")

# The proximal step functions; a case's runs must call exactly one.
STEPS = ("row_step", "gram_step")


def write_one_hot(path: Path) -> None:
    """The ONE_HOT file: 220 rows, each with one of four columns set in
    each of three column groups, and +-1 labels."""
    rng = np.random.default_rng(5)
    cols = 1 + 4 * np.arange(3) + rng.integers(0, 4, (220, 3))
    labels = rng.choice(["+1", "-1"], 220)
    path.write_text("".join(f"{b} " + " ".join(f"{c}:1" for c in row) + "\n"
                            for b, row in zip(labels, cols.tolist())))


def config(name: str) -> ExperimentConfig:
    return ExperimentConfig(**COMMON, **CASES[name][1])


def experiment_record(cfg: ExperimentConfig, tmp: Path) -> dict:
    """One :func:`run_experiment` of ``cfg``: its alphas, certificate and
    per-round metrics."""
    if cfg.dataset == ONE_HOT:
        write_one_hot(tmp / ONE_HOT)
        cfg = cfg.with_overrides({"dataset": str(tmp / ONE_HOT)})
    result = run_experiment(cfg)
    _, alphas, _, _ = build_certificate(cfg, result.problem)
    return {
        "alphas": None if alphas is None else np.asarray(alphas).tolist(),
        "certificate": None if result.certificate is None else result.certificate.to_dict(),
        "rows": [
            {"round": r.round, "opt_err": r.opt_err, "q_err": r.q_err,
             "comm_bits": r.comm_bits, "test_acc": r.test_acc}
            for r in result.traces[0].rows
        ],
    }


def record_at_rho_2(cfg: ExperimentConfig) -> dict:
    """One :func:`~soprolab.optimizer.run` of ``cfg`` at alphas whose
    shifts put the engine's bound at ``rho = 2``: its engine, alphas and
    per-round ``opt_err``."""
    problem = build_problem(cfg)
    local = problem.local
    alphas = np.full(len(local.lam), 0.125 * local.row_sq.max()) - local.lam
    rows = []

    def on_round(k, state):
        rows.append({"round": k, "opt_err": optimality_error(state.x, problem.reference.x)})

    state = optimizer.run(problem.P, local, replace(cfg, seed=cfg.master_seed), alphas,
                          [on_round])
    return {"engine": asdict(state.engine), "alphas": alphas.tolist(), "rows": rows}


def record(name: str) -> dict:
    """The golden record of case ``name``, computed now."""
    cfg = config(name)
    calls = dict.fromkeys(STEPS, 0)

    def counted(step):
        fn = getattr(optimizer, step)

        def wrapper(*args, **kwargs):
            calls[step] += 1
            return fn(*args, **kwargs)

        return wrapper

    patches = {step: counted(step) for step in STEPS}
    with tempfile.TemporaryDirectory() as tmp, mock.patch.multiple(optimizer, **patches):
        rec = record_at_rho_2(cfg) if name in AT_RHO_2 else experiment_record(cfg, Path(tmp))
    taken = [step for step, n in calls.items() if n]
    return {"config": cfg.to_dict(), "path": taken[0] if len(taken) == 1 else taken or None,
            **rec}


def golden_path(name: str) -> Path:
    return HERE / f"{name}.json"


def main(names: list[str]) -> int:
    """Write the golden files of the cases ``names``, or of every case."""
    unknown = [name for name in names if name not in CASES]
    if unknown:
        print(f"unknown cases {unknown}; the cases are {list(CASES)}", file=sys.stderr)
        return 1
    for name in names or CASES:
        path = CASES[name][0]
        rec = record(name)
        if rec["path"] != path:
            print(f"{name}: the run took {rec['path']}, not {path}", file=sys.stderr)
            return 1
        golden_path(name).write_text(json.dumps(rec, indent=1) + "\n")
        print(f"wrote {golden_path(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
