"""Smoke test of the session benchmark at a tiny size (`--seconds 1`)."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(workload):
    for trace, declared in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
        proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in declared}
        for m in declared:
            assert result["metrics"][m["name"]]["unit"] == m["unit"], m["name"]


def test_invalid_decode_is_counted_as_failed(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(HERE))
    import run
    import session
    from nagc import model as mo

    real = mo.decode_beam

    def overfull_greedy(model, before, after, scope, width=5, max_steps=50):
        res = real(model, before, after, scope, width=width, max_steps=max_steps)
        if width == 1:  # two hypotheses from a width-1 beam, neither a probability
            res.hypotheses = [(res.hypotheses[0][0], 1.0)] * 2
        return res

    monkeypatch.setattr(mo, "decode_beam", overfull_greedy)
    for var in run.BLAS_ENV:  # main pins these; restore them afterwards
        monkeypatch.setenv(var, str(run.BLAS_THREADS))
    rc = run.main(["--workload", "graph-short", "--seed", "3", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    sz = session.sizes_for(session.WORKLOADS["graph-short"], 1)
    assert rc == 1
    assert result["correct"] is False
    assert result["failed"] == sz.holes


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
