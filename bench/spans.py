"""Outside-in layer tracing for soprolab.

While a :class:`Tracer` is installed, the public functions of each layer
are replaced by wrappers that open a span per call.  A span's self time
(its duration minus the time of the spans it encloses) is added to the
metric of its layer and phase, and a counter may read the work done from
the call's arguments or result.  Nothing under ``src/`` is edited: the
wrappers are set on the module and class attributes the program looks up
at call time, and removed again on exit.

Metrics are named ``<layer>.<phase>_<unit>`` rather than after the
function that does the work, so a refactor that renames or batches a
function only has to change the target list here.  A target that no
longer exists is reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _one(args, kwargs, result):
    return 1


def _grad_rows(args, kwargs, result):
    # batch_grad(x, ds, indices)
    indices = args[2] if len(args) > 2 else kwargs["indices"]
    return np.size(indices)


def _hess_flops(args, kwargs, result):
    # LowRankHessian.dense(self): feats^T diag(w) feats costs S * d^2.
    k, d = args[0].feats.shape
    return k * d * d


def _factor_flops(args, kwargs, result):
    # Cholesky of an n x n matrix: n^3 / 3.
    n = np.shape(args[0])[0]
    return n**3 / 3.0


def _newton_iters(args, kwargs, result):
    return result.iterations


@dataclass(frozen=True)
class Target:
    """One traced callable: ``module:attr`` or ``module:Class.method``."""

    where: str
    time_metric: str
    count_metric: str | None = None
    count: Callable | None = None


TARGETS = (
    Target("soprolab.topology:build_random_connected_graph", "topology.build_s"),
    Target("soprolab.topology:laplacian_weights", "topology.build_s"),
    Target("soprolab.topology:read_edge_list", "topology.build_s"),
    Target("soprolab.topology:spectral_summary", "topology.spectral_s", "topology.spectral_calls", _one),
    Target("soprolab.topology:MatrixP.disagreement", "topology.exchange_s", "topology.exchange_calls", _one),
    Target("soprolab.loss:parse_libsvm", "loss.parse_s"),
    Target("soprolab.loss:partition", "loss.partition_s"),
    Target("soprolab.loss:batch_grad", "loss.grad_s", "loss.grad_rows", _grad_rows),
    Target("soprolab.loss:batch_hess", "loss.hess_s"),
    Target("soprolab.loss:LowRankHessian.dense", "loss.hess_s", "loss.hess_flops", _hess_flops),
    Target("soprolab.optimizer:sample_batches", "optimizer.sample_s", "optimizer.sample_calls", _one),
    Target("soprolab.optimizer:cho_factor", "optimizer.factor_s", "optimizer.factor_flops", _factor_flops),
    Target("soprolab.optimizer:cho_solve", "optimizer.solve_s"),
    Target("soprolab.optimizer:local_step", "optimizer.step_self_s"),
    Target("soprolab.baselines:dsgd_round", "baselines.round_self_s"),
    Target("soprolab.baselines:dsgt_round", "baselines.round_self_s"),
    Target("soprolab.certificate:certify", "certificate.certify_s"),
    Target("soprolab.certificate:QNormError.__call__", "certificate.q_err_s"),
    Target("soprolab.harness.reference:solve_reference", "harness.reference.solve_s",
           "harness.reference.newton_iters", _newton_iters),
    Target("soprolab.harness.reference:estimate_sigma_sq", "harness.reference.sigma_sq_s"),
    Target("soprolab.harness.metrics:optimality_error", "harness.metrics.opt_err_s"),
    Target("soprolab.harness.metrics:accuracy", "harness.metrics.accuracy_s"),
)


def metric_names(targets=TARGETS) -> list[str]:
    names = []
    for t in targets:
        for m in (t.time_metric, t.count_metric):
            if m is not None and m not in names:
                names.append(m)
    return names


def _resolve(where: str):
    """``(owner, attr, obj)`` for a target, or ``None`` if it does not exist."""
    module_name, _, path = where.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            return None
    # Only attributes the owner itself defines: patching an inherited or
    # instance-level name would not be undone cleanly.
    if attr not in vars(owner):
        return None
    return owner, attr, vars(owner)[attr]


class Tracer:
    """Context manager that installs the wrappers for ``targets``.

    ``totals`` maps each metric to the self seconds or counts accumulated
    while installed; ``absent`` lists the metrics none of whose targets
    exist, with the reason.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.totals = {m: 0.0 for m in metric_names(targets)}
        self.absent: dict[str, str] = {}
        self._stack: list[list[float]] = []  # [start, time of enclosed spans]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, target: Target):
        stack, totals, absent = self._stack, self.totals, self.absent
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                elapsed = clock() - frame[0]
                totals[target.time_metric] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if target.count_metric is not None and target.count_metric not in absent:
                try:
                    totals[target.count_metric] += target.count(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError) as e:
                    absent[target.count_metric] = f"{target.where}: cannot count ({e!r})"
            return result

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        missing = []
        for target in self.targets:
            hit = _resolve(target.where)
            if hit is None:
                missing.append(target)
                continue
            owner, attr, fn = hit
            wrapped = self._wrap(fn, target)
            self._set(owner, attr, wrapped)
            if isinstance(owner, type) or not getattr(fn, "__module__", "").startswith("soprolab"):
                # Methods are looked up on the class; foreign functions
                # (scipy) are traced only where the named layer uses them.
                continue
            # A soprolab function is also traced under every name another
            # soprolab module imported it as.
            for name, mod in list(sys.modules.items()):
                if mod is owner or not name.startswith("soprolab"):
                    continue
                for alias, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, alias, wrapped)
        found = set(metric_names([t for t in self.targets if t not in missing]))
        for m in metric_names(missing):
            if m not in found:
                where = ", ".join(t.where for t in missing if m in (t.time_metric, t.count_metric))
                self.absent[m] = f"not found: {where}"
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False
