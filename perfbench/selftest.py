"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

The smoke runs truncate every round to a few items, so the whole file takes
about a minute.
"""

import copy
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
REF = json.loads((HERE / "reference.json").read_text())


def _run(*args):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=str(ROOT),
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--max-items", "3")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload,kind", [
    ("bounds", "cat"), ("scan", "gf2"), ("covers", "gf5"), ("replay", "c2"),
])
def test_wrong_reference_counts_the_item_as_failed(workload, kind, tmp_path):
    wl = workloads.WORKLOADS[workload](0, str(tmp_path))
    items = wl.items(0)
    target = next(it for it in items if it.kind == kind)
    items = [target] + [it for it in items if it.kind != kind][:2]
    good = run.run_items(wl, items)
    assert not run.check_records(wl, good, REF[workload])
    assert all(rec.error is None for rec in good)

    bad_ref = copy.deepcopy(REF[workload])
    if target.key in bad_ref:  # one digest per pool member
        bad_ref[target.key] = "0" * 16
    else:  # one fixed-width code per index, concatenated
        idx = int(target.key.split(":")[1])
        width = 6 if workload == "scan" else 2
        codes = bad_ref[kind]
        bad_ref[kind] = codes[:idx * width] + "9" * width + codes[(idx + 1) * width:]
    bad = run.run_items(wl, items)
    run.check_records(wl, bad, bad_ref)
    assert {rec.item.key for rec in bad if rec.error is not None} == {target.key}


def _bindings():
    """Every function bound to a tenrank module or class attribute."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "tenrank" or name.startswith("tenrank.")):
            continue
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj):
                out[(name, attr)] = obj
            elif inspect.isclass(obj) and obj.__module__ == name:
                for m_attr, m_obj in vars(obj).items():
                    out[(name, attr, m_attr)] = m_obj
    return out


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    wl = workloads.WORKLOADS["replay"](0, str(tmp_path))
    items = wl.items(0)[:6]
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert len(tracer.wrapped()) > 100
        during = _bindings()
        changed = [k for k in before if during[k] is not before[k]]
        assert ("tenrank.engine", "subrank_exact") in changed
        assert ("tenrank.spans", "rref") in changed  # imported by name from matrix
        assert ("tenrank.matrix", "Matrix", "mul") in changed
        records = run.run_items(wl, items, tracer)
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not run.check_records(wl, records, REF["replay"])
    assert all(rec.error is None for rec in records)
    assert tracer.metric("cli.main", "calls") == len(items)


def test_subspace_at_matches_enumeration_order():
    from tenrank import spans
    from tenrank.fields import GF

    for q, n, dim in ((2, 9, 1), (2, 9, 2), (3, 4, 2)):
        listed = list(spans.subspaces(GF(q), n, dim))
        for i in list(range(0, len(listed), 97)) + [len(listed) - 1]:
            assert workloads.subspace_at(GF(q), n, dim, i) == listed[i]


def test_without_the_library_the_run_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / HERE.name / "run.py"),
                           "--workload", "covers", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=str(tmp_path), capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
