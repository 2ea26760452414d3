"""Run with ``python -m pytest bench``."""

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from soprolab import loss, optimizer  # noqa: E402
from spans import TARGETS, Target, Tracer, _grad_rows  # noqa: E402


def _dataset():
    rng = np.random.default_rng(0)
    return loss.LocalDataset(
        features=rng.standard_normal((30, 4)), labels=rng.choice((-1, 1), 30), lambda_reg=0.1
    )


def test_every_target_exists_today():
    with Tracer() as tracer:
        assert tracer.absent == {}
        assert len(tracer._patches) >= len(TARGETS)


def test_wrappers_trace_aliases_and_are_removed():
    ds, x = _dataset(), np.ones(4)
    original = loss.batch_grad
    expected = original(x, ds, np.arange(10))
    with Tracer() as tracer:
        # The engine calls batch_grad through its own imported name.
        assert optimizer.batch_grad is not original
        got = optimizer.batch_grad(x, ds, np.arange(10))
        loss.full_grad(x, ds)
    assert loss.batch_grad is original and optimizer.batch_grad is original
    assert np.array_equal(got, expected)
    assert tracer.totals["loss.grad_rows"] == 10 + 30
    assert tracer.totals["loss.grad_s"] > 0


def test_missing_target_is_absent_not_fatal():
    targets = (
        Target("soprolab.optimizer:no_such_step", "optimizer.gone_s", "optimizer.gone_calls", _grad_rows),
        Target("soprolab.no_such_module:f", "nowhere.f_s"),
        Target("soprolab.loss:batch_grad", "loss.grad_s", "loss.grad_rows", _grad_rows),
    )
    with Tracer(targets) as tracer:
        loss.batch_grad(np.ones(4), _dataset(), np.arange(5))
    assert set(tracer.absent) == {"optimizer.gone_s", "optimizer.gone_calls", "nowhere.f_s"}
    assert tracer.totals["loss.grad_rows"] == 5


def test_self_times_do_not_double_count():
    ds, x = _dataset(), np.ones(4)
    with Tracer() as tracer:
        start = time.perf_counter()
        # local_step encloses dense(), cho_factor and cho_solve.
        optimizer.local_step(x, x, x, loss.batch_hess(x, ds, np.arange(30)), x, 2.0, 1.0)
        elapsed = time.perf_counter() - start
    seconds = {k: v for k, v in tracer.totals.items() if k.endswith("_s")}
    assert all(seconds[k] > 0 for k in ("loss.hess_s", "optimizer.factor_s",
                                        "optimizer.solve_s", "optimizer.step_self_s"))
    assert sum(seconds.values()) <= elapsed
    assert tracer.totals["loss.hess_flops"] == 30 * 4 * 4
    assert tracer.totals["optimizer.factor_flops"] == 4**3 / 3
