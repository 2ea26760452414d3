"""Golden traces: small experiments whose numbers a behaviour-keeping
change must reproduce.

Each case is one :func:`~soprolab.harness.experiment.run_experiment` on
synthetic data (d <= 40, 30 rounds): St-SoPro with ``S >= d``, with
``S < d < C`` and with ``S < C <= d``; full-batch SoPro, DSGD and DSGT.
Every proximal case runs at certified alphas, so it takes the row step
with the Neumann series.  One more reads a small one-hot LIBSVM file, which
:func:`record` writes to a temporary directory first.  Every case reads
the local sets through their CSR operator.  A golden file holds, per
round, ``opt_err``, ``q_err``, ``comm_bits`` and ``test_acc``; and per run
the path the proximal step took, the alphas and every certificate field.
``test_golden.py`` compares a fresh run with the file at a relative
tolerance of 1e-9.

A change that moves these numbers on purpose writes the files again::

    PYTHONPATH=src python tests/golden/make_golden.py

and states in CHANGES.md that it did, with the largest relative change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

from soprolab import optimizer
from soprolab.harness.experiment import ExperimentConfig, build_certificate, run_experiment

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
# At the certified alphas every case takes the series on the row step.
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
}

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
        run_cfg = cfg
        if cfg.dataset == ONE_HOT:
            write_one_hot(Path(tmp) / ONE_HOT)
            run_cfg = cfg.with_overrides({"dataset": str(Path(tmp) / ONE_HOT)})
        result = run_experiment(run_cfg)
        _, alphas, _, _ = build_certificate(run_cfg, result.problem)
    taken = [step for step, n in calls.items() if n]
    return {
        "config": cfg.to_dict(),
        "path": taken[0] if len(taken) == 1 else taken or None,
        "alphas": None if alphas is None else np.asarray(alphas).tolist(),
        "certificate": None if result.certificate is None else result.certificate.to_dict(),
        "rows": [
            {"round": r.round, "opt_err": r.opt_err, "q_err": r.q_err,
             "comm_bits": r.comm_bits, "test_acc": r.test_acc}
            for r in result.traces[0].rows
        ],
    }


def golden_path(name: str) -> Path:
    return HERE / f"{name}.json"


def main() -> int:
    for name, (path, _) in CASES.items():
        rec = record(name)
        if rec["path"] != path:
            print(f"{name}: the run took {rec['path']}, not {path}", file=sys.stderr)
            return 1
        golden_path(name).write_text(json.dumps(rec, indent=1) + "\n")
        print(f"wrote {golden_path(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
