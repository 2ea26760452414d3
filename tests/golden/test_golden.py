"""Fresh runs of the golden cases against the committed files (see
``make_golden.py``)."""

import json
import math

import pytest

from make_golden import CASES, golden_path, record

RTOL = 1e-9


def mismatches(got, want, where="") -> list[str]:
    """Where ``got`` differs from ``want``: floats by more than ``RTOL``
    relative, everything else exactly."""
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{where}[{i}]")]
    if isinstance(want, float) and isinstance(got, float):
        if got == want or abs(got - want) <= RTOL * max(abs(got), abs(want)):
            return []
        if math.isnan(got) and math.isnan(want):
            return []
    elif type(got) is type(want) and got == want:
        return []
    return [f"{where}: {got!r} != {want!r}"]


@pytest.mark.parametrize("name", list(CASES))
def test_run_reproduces_its_golden_trace(name):
    want = json.loads(golden_path(name).read_text())
    assert want["path"] == CASES[name][0]
    got = json.loads(json.dumps(record(name)))
    assert mismatches(got, want) == []
