"""Run with ``python -m pytest bench``."""

import time

import pytest

import run


def build_problem(seconds):
    # Named like the program's set-up step, which time_limit looks for.
    time.sleep(seconds)


def test_set_up_that_outlasts_its_limit_fails():
    with pytest.raises(run.OperationTimeout, match="set-up"):
        with run.time_limit(0.05, 5.0):
            build_problem(1.0)


def test_rounds_may_outlast_the_set_up_limit_but_not_the_call_limit():
    with run.time_limit(0.05, 5.0):
        time.sleep(0.2)
    with pytest.raises(run.OperationTimeout, match="operation limit"):
        with run.time_limit(0.05, 0.2):
            time.sleep(1.0)


def test_planned_operations_depend_on_the_arguments_only():
    bench = run.Bench.__new__(run.Bench)
    bench.wl, bench.trace = run.WORKLOADS["a4a-dsgt"], False
    assert bench.planned(20) == bench.planned(20) == 27
    bench.trace = True
    assert bench.planned(20) == 11


def test_scale_maps_probe_times_to_an_undisturbed_host():
    op = run.Operation(index=1, seed=0, probes=[2e-3, 6e-3])
    assert op.scale(2e-3) == pytest.approx(0.5)
