"""Probe coverage of each workload, restoration of the originals, and
agreement between BENCHMARK.json and the metrics the runner prints."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench.probes import (
    LAYER_METRICS,
    PROBES,
    UNREACHED_PROBES,
    WORKLOAD_SPANS,
    entered_spans,
)
from perfbench.run import E2E_METRICS, ROOT, fresh_setup
from perfbench.spans import Tracer, _resolve
from perfbench.workloads import PASS_UNITS, WORKLOADS


def _targets():
    return {probe.key: _resolve(probe)[2] for probe in PROBES}


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """One short traced phase per workload: (tracers, originals, after)."""
    workdir = str(tmp_path_factory.mktemp("perfbench"))
    originals = _targets()
    tracers = {}
    for name, cls in WORKLOADS.items():
        workload = cls(7, workdir)
        tracer = Tracer()
        tracer.install(PROBES)
        try:
            fresh_setup(workload)
            for u in range(PASS_UNITS):
                workload.unit(u)
                workload.observe(u)
        finally:
            tracer.restore()
            workload.teardown()
        tracers[name] = tracer
    return tracers, originals, _targets()


def test_every_probe_target_resolves():
    tracer = Tracer()
    tracer.install(PROBES)
    tracer.restore()
    assert tracer.missing == []


@pytest.mark.parametrize("name", sorted(WORKLOAD_SPANS))
def test_workload_enters_every_named_span(traced_runs, name):
    tracers, _, _ = traced_runs
    assert WORKLOAD_SPANS[name] - entered_spans(tracers[name]) == set()


def test_every_reachable_probe_fires_somewhere(traced_runs):
    tracers, _, _ = traced_runs
    silent = {probe.key for probe in PROBES
              if all(t.counters[f"probe:{probe.key}"] == 0
                     for t in tracers.values())}
    assert silent == set(UNREACHED_PROBES)


def test_originals_restored_after_traced_runs(traced_runs):
    _, originals, after = traced_runs
    assert after.keys() == originals.keys()
    for key, raw in originals.items():
        assert after[key] is raw, key


def test_benchmark_json_matches_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as src:
        spec = json.load(src)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(E2E_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "map-stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
