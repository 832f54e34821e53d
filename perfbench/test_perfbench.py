"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

They run each workload in short mode, show that a wrong answer from the
program is counted as a failed operation, and that the command refuses to
run without the program's sources.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from hilbfold import foldring, hypercomplex, localmodel  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def short_run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--short"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_reports_every_metric(workload, trace):
    proc = short_run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 3 and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} \
        == {entry["name"]: entry["unit"] for entry in spec}
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    assert sorted(e["name"] for e in SPEC["per_layer"]) == \
        sorted(layertrace.Tracer().metrics())


@contextmanager
def replaced(original, fake):
    layertrace.rebind(original, fake)
    try:
        yield
    finally:
        layertrace.rebind(fake, original)


def _flip_smoothable(ideal, *args, **kwargs):
    return not ORIGINAL["smoothable"](ideal, *args, **kwargs)


def _bump_tangent(ideal, *args, **kwargs):
    verdict = ORIGINAL["singular"](ideal, *args, **kwargs)
    return dataclasses.replace(verdict, tangent=verdict.tangent + 1)


def _drop_a_cell(n, m):
    full = ORIGINAL["complex"](n, m)
    return hypercomplex.ComplexKnm(n, m, cells=full.cells[:-1])


def _accept_everything(*args, **kwargs):
    return True


ORIGINAL = {"smoothable": foldring.is_smoothable,
            "singular": foldring.is_singular_point,
            "complex": hypercomplex.build_complex,
            "decomposition": localmodel.verify_decomposition_ff}
FAULTS = {"classify": ("smoothable", _flip_smoothable),
          "tangent": ("singular", _bump_tangent),
          "complex": ("complex", _drop_a_cell),
          "sweep": ("decomposition", _accept_everything)}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_wrong_answer_counts_as_failed(workload, tmp_path):
    wl = workloads.WORKLOADS[workload](str(tmp_path))
    key, fake = FAULTS[workload]
    clean = run.run_rounds(wl, 5, 0, 0, True)
    with replaced(ORIGINAL[key], fake):
        broken = run.run_rounds(wl, 5, 0, 0, True)
    assert clean["failed"] == clean["wrong"] == 0
    assert broken["attempted"] == clean["attempted"]
    assert broken["failed"] >= 1 and broken["wrong"] == broken["failed"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = short_run("classify", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
