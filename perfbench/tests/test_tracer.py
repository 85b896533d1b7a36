"""Tracing rebinds and restores, counts repeat exactly, metric names agree."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import rhoperp
import rhoperp.ortho
import rhoperp.stateface
from perfbench import tracer as tracing, workloads as W
from perfbench.run import call

ROOT = Path(__file__).resolve().parents[2]


def _traced_counts(requests):
    t = tracing.Tracer()
    t.install()
    try:
        for req in requests:
            t.active = True
            call(req)
            t.active = False
    finally:
        t.uninstall()
    return {k: (s.calls, s.matrices, s.flops) for k, s in t.stats.items()}


def test_two_traced_runs_give_identical_counts():
    wl = W.build("numrange-boundary", 5, warm=True)
    first = _traced_counts(wl.requests)
    assert first == _traced_counts(wl.requests)
    assert first["stateface.zero_in_numrange"][0] > 0
    assert first["lapack.eigvalsh"][1] > first["lapack.eigvalsh"][0]
    assert first["matcore.as_complex_matrix"][0] > 0


def test_uninstall_restores_every_binding():
    before = (rhoperp.ortho.is_bj, rhoperp.stateface.as_complex_matrix, np.linalg.svd,
              rhoperp.stateface.StateWitness.__init__, rhoperp.stateface.minimize)
    t = tracing.Tracer()
    t.install()
    assert rhoperp.ortho.is_bj is not before[0]
    assert np.linalg.svd is not before[2]
    t.uninstall()
    after = (rhoperp.ortho.is_bj, rhoperp.stateface.as_complex_matrix, np.linalg.svd,
             rhoperp.stateface.StateWitness.__init__, rhoperp.stateface.minimize)
    assert all(a is b for a, b in zip(before, after))


def test_inactive_tracer_records_nothing():
    t = tracing.Tracer()
    t.install()
    try:
        rhoperp.rho_pair(np.eye(2), np.eye(2))
    finally:
        t.uninstall()
    assert all(s.calls == 0 for s in t.stats.values())


def test_lapack_work_counts_stacked_matrices():
    assert tracing.lapack_work("eigvalsh", (np.zeros((720, 3, 3)),), {}) == (720, 720 * 4 * 36.0)
    mats, flops = tracing.lapack_work("svd", (np.zeros((5, 2)),), {"compute_uv": False})
    assert mats == 1 and flops == 4 * (4 * 5 * 4 - 4 * 8 / 3)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = tracing.per_layer_names(rhoperp.property_names())
    assert [m["name"] for m in spec["per_layer"]] == names
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)


def test_run_without_sources_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "small-pairs",
                           "--seed", "0", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_per_layer_metrics_cover_every_name():
    wl = W.build("small-pairs", 2, warm=True)
    t = tracing.Tracer()
    t.install()
    try:
        for req in wl.requests:
            t.active = True
            call(req)
            t.active = False
    finally:
        t.uninstall()
    props = rhoperp.property_names()
    metrics = tracing.per_layer_metrics(t.stats, len(wl.requests), {}, props)
    assert list(metrics) == tracing.per_layer_names(props)
    assert metrics["normderiv.rho_pair.self_ms"]["value"] > 0
    assert metrics["lapack.svd.matrices"]["value"] > 1
    assert metrics["ortho.is_norm_parallel.p50_ms"]["unit"] == "ms"
    assert metrics["verify.property.rho-p1.ms"]["value"] == 0.0
