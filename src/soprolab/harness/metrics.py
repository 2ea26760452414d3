"""Per-round metric records, trace files, and seed aggregation.

A trace is one JSONL file per run: a header line with the full
configuration (plus certificate when one exists), one row per round, and a
summary line.  Rows never contain wall-clock values so that reruns with
the same seed are byte-identical; timing lives in the summary.
Communication is counted in scalars and reported as ``32 *`` that count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..errors import InvariantViolation
from ..loss import TestSet, predict

__all__ = [
    "BITS_PER_SCALAR",
    "MetricRow",
    "MetricsTrace",
    "optimality_error",
    "accuracy",
    "aggregate_traces",
    "write_aggregate_csv",
]

BITS_PER_SCALAR = 32


@dataclass(frozen=True)
class MetricRow:
    round: int
    opt_err: float
    comm_bits: int
    q_err: float | None = None
    test_acc: float | None = None
    wall_s: float = 0.0


@dataclass
class MetricsTrace:
    rows: list[MetricRow] = field(default_factory=list)

    def append(self, row: MetricRow) -> None:
        if self.rows:
            last = self.rows[-1]
            if row.round <= last.round or row.comm_bits <= last.comm_bits:
                raise InvariantViolation(
                    f"trace must be strictly increasing: round {last.round}->{row.round}, "
                    f"bits {last.comm_bits}->{row.comm_bits}"
                )
        self.rows.append(row)

    def __len__(self) -> int:
        return len(self.rows)

    def opt_errors(self) -> np.ndarray:
        return np.array([r.opt_err for r in self.rows])

    def q_errors(self) -> np.ndarray:
        return np.array(
            [np.nan if r.q_err is None else r.q_err for r in self.rows]
        )

    def rounds_to(self, target: float) -> int | None:
        """First round whose optimality error is at or below the target."""
        for r in self.rows:
            if r.opt_err <= target:
                return r.round
        return None

    def write_jsonl(
        self, path, header: dict, wall_s_total: float, summary: dict | None = None
    ) -> None:
        """Write the header, one line per row and the summary as JSON lines
        to the file at ``path``.

        Wall-clock values go only in the summary: ``wall_s_total`` and the
        set-up phase seconds, which come with any other summary fields in
        ``summary``.  A non-finite value raises ``ValueError`` before
        anything is written: JSON has no ``NaN`` or ``Infinity``.
        """
        records = [{"type": "header", **header}]
        records += [
            {
                "type": "row",
                "round": r.round,
                "opt_err": r.opt_err,
                "q_err": r.q_err,
                "comm_bits": r.comm_bits,
                "test_acc": r.test_acc,
            }
            for r in self.rows
        ]
        lines = [json.dumps(rec, sort_keys=True, allow_nan=False) + "\n" for rec in records]
        lines.append(
            json.dumps(
                {"type": "summary", "wall_s_total": wall_s_total, **(summary or {})},
                allow_nan=False,
            )
            + "\n"
        )
        with open(path, "w") as f:
            f.writelines(lines)


def optimality_error(x: np.ndarray, x_star: np.ndarray) -> float:
    """Mean squared distance of the agent iterates to the reference optimum."""
    dx = x - x_star[None, :]
    return float(np.einsum("ij,ij->", dx, dx) / x.shape[0])


def accuracy(x: np.ndarray, test: TestSet) -> float:
    """Fraction of test samples classified correctly by ``sign(a^T x)``,
    read through the CSR test set's ``test.features @ x``, as a Python
    ``float``.  It is the count of correct samples over their number, one
    division: bitwise ``np.mean`` of the comparison, which sums the boolean
    array exactly in float64, without its reduction's overhead."""
    if len(test) == 0:
        raise InvariantViolation("accuracy needs a nonempty test set")
    correct = np.count_nonzero(predict(x, test.features) == test.labels)
    return float(correct / test.labels.size)


def aggregate_traces(traces) -> dict[str, np.ndarray]:
    """Per-round mean across seeds; traces must share their round grid."""
    rounds = np.array([r.round for r in traces[0].rows])
    for t in traces[1:]:
        if [r.round for r in t.rows] != list(rounds):
            raise InvariantViolation("traces disagree on the round grid")
    opt = np.mean([t.opt_errors() for t in traces], axis=0)
    q = np.mean([t.q_errors() for t in traces], axis=0)
    acc_rows = [
        [np.nan if r.test_acc is None else r.test_acc for r in t.rows] for t in traces
    ]
    acc = np.mean(acc_rows, axis=0)
    bits = np.array([r.comm_bits for r in traces[0].rows])
    return {"round": rounds, "opt_err": opt, "q_err": q, "comm_bits": bits, "test_acc": acc}


def write_aggregate_csv(path, agg: dict[str, np.ndarray]) -> None:
    with open(path, "w") as f:
        f.write("round,mean_opt_err,mean_q_err,comm_bits,mean_test_acc\n")
        for i in range(len(agg["round"])):
            # Python floats: numpy 2's repr of a float64 is np.float64(...).
            q = float(agg["q_err"][i])
            a = float(agg["test_acc"][i])
            f.write(
                f"{int(agg['round'][i])},{float(agg['opt_err'][i])!r},"
                f"{'' if np.isnan(q) else repr(q)},"
                f"{int(agg['comm_bits'][i])},"
                f"{'' if np.isnan(a) else repr(a)}\n"
            )
