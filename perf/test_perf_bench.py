"""Tier-1 smoke test of the benchmark in ``perf/`` (collected by the root pytest run).

Runs ``run.py --smoke`` (9 nodes, one pass, 0.05 s windows) and checks the
output schema, not the speeds.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
CONTRACT_KEYS = {"correct", "attempted", "failed", "metrics"}


def start(*extra: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--passes", "1", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def finish(process: subprocess.Popen) -> str:
    stdout, stderr = process.communicate(timeout=120)
    assert process.returncode == 0, stderr
    return stdout


@pytest.fixture(scope="module")
def declaration() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_smoke_runs_report_every_metric_and_repeat_exactly(tmp_path, declaration) -> None:
    outs = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    traced_workload = declaration["workloads"][-1]["name"]
    runs = [start("--trace", "0", "--out", out) for out in outs]
    traced = start("--trace", "1", "--workload", traced_workload, "--trace-out", str(tmp_path / "t.json"))
    stdouts = [finish(run) for run in runs]
    traced_stdout = finish(traced)

    documents = []
    for out in outs:
        with open(out, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    first, second = documents
    assert first["schema"] == "perf-bench-v1" and first["smoke"] is True
    assert first["gc_disabled_during_measurement"] is True
    assert sorted(first["workloads"]) == sorted(w["name"] for w in declaration["workloads"])

    end_to_end = [m["name"] for m in declaration["end_to_end"]]
    for name, result in first["workloads"].items():
        assert NAME.fullmatch(name)
        assert sorted(result["end_to_end"]) == sorted(end_to_end)
        for row in result["end_to_end"].values():
            assert {"value", "unit", "min", "median", "max", "passes"} <= set(row)
        assert result["correct"] is True and result["attempted"] >= 1
        # Simulated results are byte-deterministic at a fixed seed.
        other = second["workloads"][name]
        assert result["rungs"] == other["rungs"]
        for metric in end_to_end:
            if metric.startswith("sim_"):
                assert result["end_to_end"][metric] == other["end_to_end"][metric]

    # The last stdout line is the driver's contract object.
    last = json.loads(stdouts[0].strip().splitlines()[-1])
    assert set(last) == CONTRACT_KEYS and set(last["metrics"]) == set(end_to_end)
    last = json.loads(traced_stdout.strip().splitlines()[-1])
    assert set(last) == CONTRACT_KEYS and last["correct"] is True
    assert list(last["metrics"]) == [m["name"] for m in declaration["per_layer"]]
    with open(tmp_path / "t.json", encoding="utf-8") as handle:
        events = json.load(handle)["traceEvents"]
    assert {"run_until.measure", "build_system", "summarize"} <= {e["name"] for e in events}


def test_declared_names_are_well_formed(declaration) -> None:
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in declaration[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert "setup_s" in [m["name"] for m in declaration["end_to_end"]]
    for layer in layers.CODE_LAYERS:
        assert f"{layer}.self_share" in names


def test_compare_flags_a_regression_beyond_the_bound(tmp_path, declaration) -> None:
    row = {"value": 100.0, "min": 99.0, "median": 100.0, "max": 101.0, "passes": 3}
    base = {"workloads": {"w": {"end_to_end": {m["name"]: dict(row) for m in declaration["end_to_end"]}}}}
    worse = json.loads(json.dumps(base))
    worse["workloads"]["w"]["end_to_end"]["wall_us_per_op"].update(value=130.0, min=129.0, median=130.0, max=131.0)
    noisy = json.loads(json.dumps(base))
    noisy["workloads"]["w"]["end_to_end"]["wall_us_per_op"].update(min=70.0, max=130.0)
    paths = {}
    for label, document in (("base", base), ("worse", worse), ("noisy", noisy)):
        paths[label] = str(tmp_path / f"{label}.json")
        with open(paths[label], "w", encoding="utf-8") as handle:
            json.dump(document, handle)

    def compare(a: str, b: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--compare", paths[a], paths[b]],
            capture_output=True, text=True, timeout=60, check=False,
        )

    same = compare("base", "base")
    assert same.returncode == 0 and "REGRESSED" not in same.stdout and "unresolved" not in same.stdout
    regressed = compare("base", "worse")
    assert regressed.returncode == 1 and "REGRESSED" in regressed.stdout
    assert "unresolved" in compare("base", "noisy").stdout


def test_every_module_under_src_repro_has_a_layer() -> None:
    """A new module must be mapped in layers.py, not silently counted as python."""
    package = os.path.join(ROOT, "src", "repro")
    unmapped = []
    for directory, _subdirs, files in os.walk(package):
        for filename in files:
            if filename.endswith(".py"):
                path = os.path.join(directory, filename)
                if layers.layer_of(path) in (None, layers.PYTHON):
                    unmapped.append(os.path.relpath(path, package))
    assert not unmapped, f"perf/layers.py maps no layer for: {unmapped}"
    assert layers.layer_of(os.path.join(package, "newpkg", "mod.py")) is None
    assert layers.layer_of("~") == layers.PYTHON
    assert layers.layer_of(os.path.join(HERE, "run.py")) == layers.HARNESS
