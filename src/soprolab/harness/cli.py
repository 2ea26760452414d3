"""Command-line entry point.

Subcommands: ``run`` (execute an experiment and write traces), ``certify``
(print the rate certificate), ``reference`` (print the centralized optimum
diagnostics), and ``tune`` (grid-search hyperparameters).  Every config key
is mirrored as a flag; flags override the config file.  The only
environment variable honored is ``SOPROLAB_OUT`` for the default output
directory; an empty value is unset, as an empty ``--out`` is.  A refused
input prints one line and exits 1; a bad file, ``error: <path>: line N: ...``.

The linear algebra runs on numpy's BLAS.  OpenBLAS takes its thread count
from ``OPENBLAS_NUM_THREADS``; set it to 1 when several runs share the
machine: on a 2-vCPU VM two runs side by side at two threads each ran up
to 10 times slower than at one.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from ..errors import ConfigurationError, ParseError, SoprolabError
from ..optimizer import PROXIMAL
from .experiment import (
    CONFIG_SCHEMA,
    build_certificate,
    build_problem,
    config_from_mapping,
    parse_config_file,
    run_experiment,
)
from .tuning import parse_grid_file, tune_baseline

OUT_ENV_VAR = "SOPROLAB_OUT"

BLAS_NOTE = (
    "OpenBLAS reads its thread count from OPENBLAS_NUM_THREADS; set"
    " OPENBLAS_NUM_THREADS=1 when several runs share the machine."
)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    for key in CONFIG_SCHEMA:
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None)


def _build_config(args: argparse.Namespace):
    mapping = {}
    if args.config:
        mapping.update(parse_config_file(args.config))
    for key in CONFIG_SCHEMA:
        v = getattr(args, key, None)
        if v is not None:
            mapping[key] = v
    config = config_from_mapping(mapping)
    if config.out is None:
        config.out = os.environ.get(OUT_ENV_VAR) or None
    return config


def _cmd_run(args) -> int:
    config = _build_config(args)
    if config.out is None:
        config.out = "runs"
    result = run_experiment(config)
    for path in result.trace_paths:
        print(f"wrote {path}")
    if result.aggregate_path is not None:
        print(f"wrote {result.aggregate_path}")
    final = result.aggregate["opt_err"][-1]
    print(f"final mean optimality error over {config.seeds} seed(s): {final:.6e}")
    return 0


def _cmd_certify(args) -> int:
    config = _build_config(args)
    if config.algorithm not in PROXIMAL:
        raise ConfigurationError(f"algorithm {config.algorithm!r} has no certificate")
    # The run parameters are checked before the set-up, as run_experiment does.
    config.check()
    problem = build_problem(config)
    rate = build_certificate(config, problem)[0]
    for key, value in rate.to_dict().items():
        if isinstance(value, list):
            value = np.array(value)
        print(f"{key} = {value}")
    return 0


def _cmd_reference(args) -> int:
    config = _build_config(args)
    problem = build_problem(config)
    ref = problem.reference
    print(f"dim = {ref.x.shape[0]}")
    print(f"newton_iterations = {ref.iterations}")
    print(f"hessians_formed = {ref.hessians}")
    print(f"grad_norm = {ref.grad_norm:.3e}")
    print(f"x_star_norm = {np.linalg.norm(ref.x):.12e}")
    print(f"x_star_head = {ref.x[: min(5, ref.x.shape[0])]}")
    return 0


def _cmd_tune(args) -> int:
    config = _build_config(args)
    grid = parse_grid_file(args.grid)
    result = tune_baseline(config, grid)
    print("overrides | mean_rounds_to_target | mean_final_err")
    for point in result.table:
        print(f"{point.overrides} | {point.mean_rounds} | {point.mean_final_err:.6e}")
    print(f"best: {result.best.overrides}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="soprolab",
        description="Decentralized stochastic optimization experiments",
        epilog=BLAS_NOTE,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment and write traces", epilog=BLAS_NOTE)
    _add_config_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_cert = sub.add_parser("certify", help="print the rate certificate", epilog=BLAS_NOTE)
    _add_config_flags(p_cert)
    p_cert.set_defaults(func=_cmd_certify)

    p_ref = sub.add_parser("reference", help="print reference-solution diagnostics",
                           epilog=BLAS_NOTE)
    _add_config_flags(p_ref)
    p_ref.set_defaults(func=_cmd_reference)

    tune_help = (
        "grid-search hyperparameters: each point runs min(--seeds, 3) seeds"
        " and is scored by its rounds to reach --target-error"
    )
    p_tune = sub.add_parser("tune", help=tune_help, description=tune_help, epilog=BLAS_NOTE)
    _add_config_flags(p_tune)
    p_tune.add_argument("--grid", required=True, help="grid file: key=value pairs per line")
    p_tune.set_defaults(func=_cmd_tune)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SoprolabError, OSError) as exc:
        # OSError: a config, grid, dataset or topology file that cannot be read.
        where = f"{exc.path}: " if isinstance(exc, ParseError) else ""
        print(f"error: {where}{exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
