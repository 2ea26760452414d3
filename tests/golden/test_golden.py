"""Fresh runs of the golden cases against the committed files (see
``make_golden.py``)."""

import json
import math

import pytest

import make_golden
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


def test_make_golden_writes_only_the_named_cases(tmp_path, monkeypatch, capsys):
    committed = golden_path("dsgd")
    monkeypatch.setattr(make_golden, "HERE", tmp_path)
    # An unknown name is refused before any case runs or any file is written.
    assert make_golden.main(["dsgd", "no_such_case"]) == 1
    assert "no_such_case" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert make_golden.main(["dsgd"]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["dsgd.json"]
    got = json.loads((tmp_path / "dsgd.json").read_text())
    assert mismatches(got, json.loads(committed.read_text())) == []
