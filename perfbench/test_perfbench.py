"""Tests of the benchmark's own code: span arithmetic, metric names, smoke runs."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import tracer as tr  # noqa: E402
from perfbench.run import END_TO_END_UNITS, WORKLOAD_NAMES  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _span(name, parent, start, end, **attrs):
    return tr.Span(name, parent, float(start), float(end), attrs)


def test_self_time_subtracts_nested_children():
    spans = [
        _span("root", None, 0, 10),
        _span("a", 0, 1, 4),
        _span("a.child", 1, 2, 3),
        _span("b", 0, 5, 6),
    ]
    assert tr.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert sum(tr.self_times(spans)) == spans[0].duration


def test_self_time_counts_overlapping_children_once():
    spans = [_span("root", None, 0, 10), _span("a", 0, 1, 5), _span("b", 0, 3, 7)]
    assert tr.self_times(spans)[0] == 4.0


def test_tracer_records_parents_and_rejects_out_of_order_close():
    ticks = iter(range(100))
    tracer = tr.Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    with pytest.raises(RuntimeError):
        tracer.close(outer)
    tracer.close(inner)
    tracer.close(outer, note=1)
    assert [(s.name, s.parent, s.start, s.end) for s in tracer.spans] == [
        ("outer", None, 0.0, 3.0), ("inner", 0, 1.0, 2.0)]
    assert tracer.spans[0].attrs == {"note": 1}


def test_applies_per_bidiagonalization():
    spans = [_span("marginal.objective", None, 0, 10),
             _span("gengk.bidiag", 0, 1, 9, k_used=2)]
    for i in range(6):
        name = "operators.forward" if i % 2 == 0 else "operators.adjoint"
        spans.append(_span(name, 1, 1 + i, 1.5 + i))
    spans.append(_span("covariance.q_apply", 1, 8, 8.5))
    assert tr.bidiag_applies(spans) == [(6, 2)]
    layers = tr.layer_metrics([], spans, 10.0)
    assert layers["operators.applies_per_bidiag"] == 6.0
    assert layers["gengk.steps_n"] == 2
    assert layers["trace.unaccounted_s"] == 0.0


def test_tracing_wraps_imported_names_and_restores_them():
    import gkhyper
    from gkhyper import cli, estimate, gengk, marginal, operators

    original = gengk.gengk_bidiag
    apply = operators.LinearOperatorHandle.apply
    tracer = tr.Tracer()
    with tr.traced(tracer):
        assert marginal.gengk_bidiag is not original
        assert estimate.gengk_bidiag is cli.gengk_bidiag is marginal.gengk_bidiag
        op = operators.IdentityOperator(3)
        op.apply([1.0, 2.0, 3.0])
        op.apply_adjoint([1.0, 2.0, 3.0])
    assert [s.name for s in tracer.spans] == ["operators.forward", "operators.adjoint"]
    assert gkhyper.gengk_bidiag is marginal.gengk_bidiag is original
    assert operators.LinearOperatorHandle.apply is apply


def test_metric_names_are_valid_and_match_the_spec():
    layer_names = set(tr.layer_metrics([], [], 1.0)) | {"trace.overhead_s"}
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    for name in e2e + per_layer + [w["name"] for w in SPEC["workloads"]]:
        assert NAME.fullmatch(name), name
    assert set(e2e) == set(END_TO_END_UNITS)
    assert set(per_layer) == layer_names
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOAD_NAMES)


def _run(*args):
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), *args,
                           "--seed", "1", "--seconds", "0", "--tiny"],
                          capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_traced_run_emits_every_layer_metric(workload):
    result = _run("--workload", workload, "--trace", "1")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 2          # one untraced solve plus the traced one
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name, entry in result["metrics"].items():
        assert entry["unit"] == units[name]
    assert result["metrics"]["gengk.bidiag_n"]["value"] >= 1


def test_tiny_run_of_all_workloads_emits_every_end_to_end_metric():
    result = _run("--workload", "all")
    expected = {f"{w}.{m['name']}" for w in WORKLOAD_NAMES for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == expected
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
