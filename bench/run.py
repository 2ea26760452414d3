"""soprolab benchmark: one workload, run from outside the program.

Run from the repository root::

    python3 bench/run.py --workload a4a-stsopro --seed 1 --seconds 10 --trace 0

One *operation* is one ``soprolab.harness.experiment.run_experiment`` call
on a LIBSVM file generated from the workload seed and the operation's
index; the program sees only that file and the config.  Operations run one
after another in this process (a closed loop with one client), after one
warm-up operation whose times are not counted.  The number of operations
is fixed by ``--seconds`` and the workload's nominal operation time, so
a seed always gives the same operations, and the same ones fail.

``--trace 0`` reports the end-to-end metrics of untraced operations.
``--trace 1`` runs every operation twice on the same input, untraced and
then with the layer wrappers of ``spans.py`` installed, and reports the
per-layer self times and counts plus the tracing overhead.

Every completed operation passes a correctness gate (finite rows,
closed-form ``comm_bits``, progress towards the optimum, and in trace mode
traced rows bitwise equal to the untraced ones).  An operation that raises
is a failed operation: it is reported with its message and neither retried
nor skipped.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One BLAS thread for every workload, so that results, including which
# reference solves fail, do not depend on the core count.  OpenBLAS reads
# this when numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import signal
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spans import Tracer, metric_names
from synth import SHAPES, write_libsvm

ROOT = Path(__file__).resolve().parent.parent
BITS_PER_SCALAR = 32


@dataclass(frozen=True)
class Workload:
    shape: str
    rows: int  # training rows N * C plus held-out test rows
    rounds: int  # rounds per operation
    op_s: float  # nominal seconds per attempted operation, failures included
    probe_ref_s: float  # the probe's time on an undisturbed vCPU (see Probe)
    config: dict


# Why each workload exists is in BENCHMARK.json.  lambda_reg = 0.01
# everywhere and mu is left to the certified default.  Each workload keeps
# one network (topology seed 0), as the paper does; data, split and run
# seed change with every operation.  Operations are short, so the probes
# around each one follow the host's changes of speed.  op_s and
# probe_ref_s were measured on a 2-vCPU x86 VM.
WORKLOADS = {
    "a4a-stsopro": Workload(
        "a4a", 4781, 50, 0.9, 2.8e-3,
        dict(n_agents=20, avg_degree=5.0, per_agent=239, batch_g=80, batch_s=80,
             algorithm="st_sopro"),
    ),
    "mushrooms-sopro": Workload(
        "mushrooms", 8124, 50, 1.2, 4.05e-3,
        dict(n_agents=10, avg_degree=4.0, per_agent=600, algorithm="sopro"),
    ),
    "scale200-stsopro": Workload(
        "a4a", 9000, 25, 2.2, 18.7e-3,
        dict(n_agents=200, avg_degree=5.0, per_agent=40, batch_g=20, batch_s=20,
             algorithm="st_sopro"),
    ),
    "a4a-dsgt": Workload(
        "a4a", 4781, 250, 0.75, 2.8e-3,
        dict(n_agents=20, avg_degree=5.0, per_agent=239, batch_g=80, batch_s=80,
             algorithm="dsgt", step_size=0.5),
    ),
}

END_TO_END = {
    "setup_s": "s",
    "round_ms_p50": "ms",
    "round_ms_p90": "ms",
    "agent_rounds_per_s": "1/s",
    "peak_rss_mb": "MB",
    "opt_err_final": "1",
}
PER_LAYER_UNITS = {"_s": "s", "_calls": "count", "_rows": "count", "_iters": "count", "_flops": "flop"}
MIN_POOLED_ROUNDS = 100  # the p90 needs at least ten rounds beyond it
MIN_COMPLETED = 3  # setup_s is a median over at least this many set-ups
TRACE_COST = 2.5  # a traced operation runs untraced, then traced
# A successful set-up takes under 1 s on every workload, even on a slow
# vCPU.  A reference solve that stalls runs 4-8 s at N <= 20 before it
# raises, and 20-50 s at N = 200, so a set-up still running after
# SETUP_LIMIT_S fails the operation.  The rounds are bounded by CALL_LIMIT_S.
SETUP_LIMIT_S = 3.0
SETUP_FUNCTION = "build_problem"  # soprolab.harness.experiment's set-up step
CALL_LIMIT_S = 30.0
HARD_STOP_S = 120.0  # no operation starts later than this


def layer_unit(name: str) -> str:
    return next(u for suffix, u in PER_LAYER_UNITS.items() if name.endswith(suffix))


PER_LAYER = {name: layer_unit(name) for name in [*metric_names(), "trace.overhead_s"]}


class OperationTimeout(Exception):
    pass


def in_setup(frame) -> bool:
    return any(f.f_code.co_name == SETUP_FUNCTION for f, _ in traceback.walk_stack(frame))


@contextmanager
def time_limit(setup_s: float, call_s: float):
    """Fail a call whose set-up outlasts ``setup_s`` or that outlasts ``call_s``."""

    fired = []

    def expire(signum, frame):
        if in_setup(frame):
            raise OperationTimeout(f"set-up exceeded the {setup_s:g} s limit")
        if fired:
            raise OperationTimeout(f"exceeded the {call_s:g} s operation limit")
        fired.append(signum)

    previous = signal.signal(signal.SIGALRM, expire)
    # Fires at setup_s, then again at call_s.
    signal.setitimer(signal.ITIMER_REAL, setup_s, call_s - setup_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# On a shared host, other tenants slow each vCPU by up to 2x, in spells
# from under a second to minutes, and often both vCPUs stay slow for a
# whole run.  Raw round times then have a two-peaked distribution whose
# median jumps between the peaks from run to run.  So a probe times the
# host just before and just after each operation, and every time metric
# of the operation is scaled by the workload's probe_ref_s over the mean
# of the two probe times.  The probe is one pass of the arithmetic a
# proximal round does, in the workload's shape: for each of N agents, the
# Gram matrix of an S x d 0/1 batch and its Cholesky factor.  It is the
# benchmark's own code, so no change to the program moves it.  Before each
# operation the process is also pinned to the allowed CPU on which the
# probe runs fastest, because the scheduler may keep it on a slow vCPU for
# minutes.
PROBE_PASSES = 3


class Probe:
    """Times the host on the workload's kind of arithmetic (see above)."""

    def __init__(self, wl: Workload):
        cfg = wl.config
        shape = SHAPES[wl.shape]
        rows = cfg.get("batch_s", cfg["per_agent"])
        rng = np.random.default_rng(0)
        density = shape.attributes / shape.columns
        self.batches = [(rng.random((rows, shape.columns)) < density).astype(float)
                        for _ in range(cfg["n_agents"])]
        self.weights = rng.random(rows)[:, None]
        self.ridge = np.eye(shape.columns)

    def seconds(self) -> float:
        """Best time of one pass over PROBE_PASSES passes."""
        best = math.inf
        for _ in range(PROBE_PASSES):
            t0 = time.perf_counter()
            for a in self.batches:
                np.linalg.cholesky(a.T @ (self.weights * a) + self.ridge)
            best = min(best, time.perf_counter() - t0)
        return best

    def pin_to_fastest_cpu(self, cpus: list[int]) -> tuple[int, float]:
        """Pin this process to the CPU in ``cpus`` where the probe runs
        fastest; return that CPU and its probe time."""
        times = {}
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times[cpu] = self.seconds()
        cpu = min(times, key=times.get)
        os.sched_setaffinity(0, {cpu})
        return cpu, times[cpu]


def describe_failure(exc: BaseException) -> str:
    """Exception text plus the soprolab call path it was raised in."""
    path = [f.name for f in traceback.extract_tb(exc.__traceback__) if "soprolab" in f.filename]
    return f"{type(exc).__name__}: {exc} [in {' > '.join(path) or '?'}]"


def load_soprolab():
    """Import soprolab from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "soprolab" / "__init__.py").is_file():
        raise SystemExit(f"bench: no soprolab package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import soprolab
    from soprolab.harness import experiment, reference

    if not Path(soprolab.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"bench: imported soprolab from {soprolab.__file__}, not {src}")
    return experiment, reference


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(v, 2) for v in os.getloadavg()],
        "git_sha": git_sha(),
    }


@dataclass
class Run:
    """One ``run_experiment`` call and what the benchmark read from it."""

    total_s: float
    rows: list
    layers: dict = field(default_factory=dict)

    @property
    def wall(self) -> np.ndarray:
        return np.array([r.wall_s for r in self.rows])

    @property
    def loop_s(self) -> float:
        # wall_s counts from just before the engine's initialisation, and
        # row 0 is written after it, so the loop is rows 1.. and set-up is
        # everything else.
        return float(self.wall[-1] - self.wall[0])

    @property
    def setup_s(self) -> float:
        return self.total_s - self.loop_s

    @property
    def round_s(self) -> np.ndarray:
        return np.diff(self.wall)

    def comparable(self) -> str:
        return repr([(r.round, r.opt_err, r.comm_bits, r.q_err, r.test_acc) for r in self.rows])


@dataclass
class Operation:
    index: int
    seed: int
    error: str | None = None
    runs: list = field(default_factory=list)  # untraced, then traced in trace mode
    problems: list = field(default_factory=list)
    cpu: int = -1
    probes: list = field(default_factory=list)  # probe seconds before and after the untraced call

    def scale(self, probe_ref_s: float) -> float:
        """Factor that turns this operation's times into undisturbed-host times."""
        return probe_ref_s / float(np.mean(self.probes))


def op_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def gate(run: Run, wl: Workload, rounds: int) -> list[str]:
    """Problems found in one completed run's trace rows."""
    cfg = wl.config
    n_edges = math.ceil(cfg["n_agents"] * cfg["avg_degree"] / 2)
    d = SHAPES[wl.shape].columns
    # Scalars per edge and coordinate in one round; the proximal engine
    # also charges its initial exchange.
    per_edge, extra = (4, 0) if cfg["algorithm"] == "dsgt" else (2, 1)
    problems = []
    if [r.round for r in run.rows] != list(range(rounds + 1)):
        problems.append(f"rows cover rounds {run.rows[0].round}..{run.rows[-1].round}, not 0..{rounds}")
    for r in run.rows:
        values = [r.opt_err] + [v for v in (r.q_err, r.test_acc) if v is not None]
        if not all(math.isfinite(v) for v in values):
            problems.append(f"round {r.round}: non-finite row {r}")
        expected = BITS_PER_SCALAR * per_edge * n_edges * d * (r.round + extra)
        if r.comm_bits != expected:
            problems.append(f"round {r.round}: comm_bits {r.comm_bits} != closed form {expected}")
    if not run.rows[-1].opt_err < run.rows[0].opt_err:
        problems.append(f"no progress: opt_err {run.rows[0].opt_err} -> {run.rows[-1].opt_err}")
    return problems[:5]


class Bench:
    def __init__(self, name: str, seed: int, trace: bool):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.trace = trace
        self.absent: dict[str, str] = {}  # layer metrics whose targets are gone
        self.experiment, self.reference = load_soprolab()
        self.work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
        self.cpus = sorted(os.sched_getaffinity(0))
        self.probe = Probe(self.wl)

    def forget_reference(self) -> None:
        # solve_reference caches by dataset content.  Operations use distinct
        # data, but the traced rerun of an input must pay for its own solve.
        cache = getattr(self.reference, "_cache", None)
        if isinstance(cache, dict):
            cache.clear()

    def call(self, data: Path, seed: int, rounds: int, tracer: Tracer | None) -> Run:
        cfg = self.experiment.ExperimentConfig(
            dataset=str(data), dim=SHAPES[self.wl.shape].columns, lambda_reg=0.01,
            max_iters=rounds, master_seed=seed, topology_seed=0, **self.wl.config,
        )
        self.forget_reference()
        with time_limit(SETUP_LIMIT_S, CALL_LIMIT_S):
            if tracer is None:
                t0 = time.perf_counter()
                result = self.experiment.run_experiment(cfg)
                total = time.perf_counter() - t0
            else:
                with tracer:
                    t0 = time.perf_counter()
                    result = self.experiment.run_experiment(cfg)
                    total = time.perf_counter() - t0
        run = Run(total_s=total, rows=list(result.traces[0].rows))
        if tracer is not None:
            run.layers = dict(tracer.totals)
        return run

    def operation(self, index: int, rounds: int) -> Operation:
        op = Operation(index=index, seed=op_seed(self.seed, index))
        data = self.work / f"op{index}.svm"
        write_libsvm(data, SHAPES[self.wl.shape], self.wl.rows, op.seed)
        op.cpu, before = self.probe.pin_to_fastest_cpu(self.cpus)
        op.probes.append(before)
        start = time.perf_counter()
        try:
            op.runs.append(self.call(data, op.seed, rounds, None))
            op.probes.append(self.probe.seconds())
            if self.trace:
                tracer = Tracer()
                op.runs.append(self.call(data, op.seed, rounds, tracer))
                self.absent = tracer.absent
        except Exception as exc:  # the operation fails; the benchmark goes on
            op.error = f"after {time.perf_counter() - start:.1f} s: {describe_failure(exc)}"
            return op
        finally:
            data.unlink()
        for run in op.runs:
            op.problems += gate(run, self.wl, rounds)
        if self.trace and op.runs[0].comparable() != op.runs[1].comparable():
            op.problems.append("traced rows differ from untraced rows")
        return op

    def report(self, op: Operation, label: str) -> None:
        if op.error:
            status = f"FAILED {op.error}"
        else:
            run = op.runs[-1]
            status = (f"ok setup {op.runs[0].setup_s:.3f} s, {len(run.round_s)} rounds, "
                      f"median {np.median(run.round_s) * 1e3:.2f} ms/round, "
                      f"final opt_err {run.rows[-1].opt_err:.4g}")
            if op.problems:
                status += " INCORRECT: " + "; ".join(op.problems)
        probes = "/".join(f"{t * 1e3:.2f}" for t in op.probes)
        print(f"  op {op.index} ({label}, data seed {op.seed}, cpu {op.cpu}, probe ms {probes}): "
              f"{status}", flush=True)

    def planned(self, seconds: float) -> int:
        """Timed operations to attempt: a function of the arguments only."""
        return math.ceil(seconds / (self.wl.op_s * (TRACE_COST if self.trace else 1.0)))

    def measure(self, seconds: float) -> list[Operation]:
        """Warm-up, then the planned operations, and more until enough have
        completed for the metrics.  Failures depend on the data alone, so
        the operations run depend only on the seed and ``seconds``."""
        self.work.mkdir(parents=True, exist_ok=True)
        try:
            ops = [self.operation(0, rounds=2)]
            self.report(ops[0], "warm-up, not timed")
            planned = self.planned(seconds)
            min_completed = max(MIN_COMPLETED, math.ceil(MIN_POOLED_ROUNDS / self.wl.rounds))
            start = time.perf_counter()
            while True:
                completed = sum(op.error is None for op in ops[1:])
                if len(ops) > planned and completed >= min_completed:
                    break
                if time.perf_counter() - start >= HARD_STOP_S:
                    print(f"bench: stopped after {HARD_STOP_S:g} s with {len(ops) - 1} of "
                          f"{planned} planned operations attempted", file=sys.stderr)
                    break
                ops.append(self.operation(len(ops), self.wl.rounds))
                self.report(ops[-1], "measured")
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
            try:
                self.work.parent.rmdir()
            except OSError:
                pass
        return ops

    def end_to_end(self, done: list[Operation]) -> dict:
        # Times are scaled to an undisturbed host; see Probe.
        runs = [(op.runs[0], op.scale(self.wl.probe_ref_s)) for op in done]
        rounds = np.concatenate([r.round_s * k for r, k in runs])
        n = self.wl.config["n_agents"]
        return {
            "setup_s": float(np.median([r.setup_s * k for r, k in runs])),
            "round_ms_p50": float(np.percentile(rounds, 50)) * 1e3,
            "round_ms_p90": float(np.percentile(rounds, 90)) * 1e3,
            "agent_rounds_per_s": n * len(rounds) / sum(r.loop_s * k for r, k in runs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "opt_err_final": float(np.median([r.rows[-1].opt_err for r, _ in runs])),
        }

    def per_layer(self, done: list[Operation]) -> dict:
        out = {}
        for name in PER_LAYER:
            if name == "trace.overhead_s":
                values = [op.runs[1].total_s - op.runs[0].total_s for op in done]
            else:
                values = [op.runs[1].layers[name] for op in done]
            out[name] = float(np.median(values))
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = Bench(args.workload, args.seed, bool(args.trace))
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}, "
          f"{bench.wl.rounds} rounds per operation, config {json.dumps(bench.wl.config)}")
    ops = bench.measure(args.seconds)

    failed = [op for op in ops if op.error]
    done = [op for op in ops[1:] if not op.error]
    correct = not any(op.problems for op in ops)
    print(f"attempted {len(ops)}, failed {len(failed)}, completed and timed {len(done)}"
          f" (operation 0 is the untimed warm-up)")
    for op in failed:
        print(f"  failure: op {op.index} (data seed {op.seed}): {op.error}")
    if not done:
        print("bench: no timed operation completed, so no metric can be reported", file=sys.stderr)
        return 1
    if args.trace:
        values, units = bench.per_layer(done), PER_LAYER
        for name, reason in sorted(bench.absent.items()):
            print(f"  absent: {name} reported as 0 ({reason})")
    else:
        values, units = bench.end_to_end(done), END_TO_END
        raw = np.concatenate([op.runs[0].round_s for op in done]) * 1e3
        scale = np.median([op.scale(bench.wl.probe_ref_s) for op in done])
        print(f"  unscaled round ms: p50 {np.percentile(raw, 50):.3f}, "
              f"p90 {np.percentile(raw, 90):.3f}; median host scale {scale:.3f}")
    for name, value in values.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
