"""Experiment orchestration, one submodule each: ``experiment`` (set-up
and runs), ``reference`` (the centralized oracle and the noise probes),
``metrics``, ``tuning``, ``synthetic`` (generated data) and ``cli``.

The package re-exports nothing, so each name has one import path: import
the submodule, as in ``from soprolab.harness import experiment``.
"""
