"""Tests of the benchmark's correctness gate, tracer and metric selection."""

import json
import math
import types

import numpy as np
import pytest

import gate
import run
from tracing import Tracer

ARGV = ["estimate", "--theory", "quantum", "--na", "2", "--nb", "2", "--p0", "1",
        "--samples", "100", "--seed", "1"]
PAGE_2X2 = gate.page_local_purity(2, 2)


def estimate_report(mean: float, stderr: float) -> str:
    """An estimate report as the CLI writes it (json.dumps allows NaN)."""
    return json.dumps({
        "command": "estimate",
        "config": {"argv": ARGV, "theory": "quantum", "na": 2, "nb": 2, "p0": 1.0,
                   "samples": 100, "seed": 1},
        "prediction": {"formula_id": "general", "inputs": {}, "value": PAGE_2X2},
        "result": {"mean": mean, "stderr": stderr, "n_samples": 100, "seed": 1,
                   "realized_global_purity": 1.0},
    })


def test_gate_accepts_a_report_within_five_sigma():
    v = gate.judge(ARGV, 0, estimate_report(PAGE_2X2 + 4 * 0.01, 0.01))
    assert v.ok, v.reasons
    assert v.z == pytest.approx(4.0)
    assert v.within_3sigma is False


def test_gate_flags_a_nan_report():
    v = gate.judge(ARGV, 0, estimate_report(PAGE_2X2, math.nan))
    assert not v.ok
    assert "strict JSON" in v.reasons[0]


def test_gate_flags_a_six_sigma_report():
    v = gate.judge(ARGV, 0, estimate_report(PAGE_2X2 - 6 * 0.01, 0.01))
    assert not v.ok
    assert v.z == pytest.approx(-6.0)


def test_gate_flags_a_nonzero_exit_and_a_wrong_prediction():
    assert not gate.judge(ARGV, 1, "").ok
    report = json.loads(estimate_report(0.5, 0.01))
    report["prediction"]["value"] = 0.5
    v = gate.judge(ARGV, 0, json.dumps(report))
    assert not v.ok
    assert "Page" in v.reasons[0]


LAYER_SOURCE = """
import functools
import numpy as np

def f(x):
    return x + 1

@functools.lru_cache(maxsize=None)
def cached(x):
    return f(x)

def fresh(a):
    return a, np.zeros(10)
"""


def make_layer():
    """A module ``pkg.lay`` whose function and cached function are also
    bound by name in ``pkg.other`` and reachable through a module alias."""
    lay = types.ModuleType("pkg.lay")
    exec(LAYER_SOURCE, vars(lay))
    other = types.ModuleType("pkg.other")
    other.f, other.cached, other.lay_alias = lay.f, lay.cached, lay
    return lay, other


def test_tracer_counts_a_function_reached_by_two_names_once():
    lay, other = make_layer()
    tracer = Tracer(measure_out_bytes=frozenset({"lay.fresh"}))
    tracer.install([lay], [lay, other])
    assert other.f is lay.f and other.cached is lay.cached
    other.f(1)
    other.lay_alias.f(1)
    lay.cached(2)
    other.cached(2)
    lay.fresh(np.ones(3))
    table = tracer.table()
    assert set(table) == {"lay.f", "lay.cached", "lay.fresh"}
    assert table["lay.f"]["calls"] == 3  # two direct calls and one cache miss
    assert table["lay.cached"]["calls"] == 2
    assert table["lay.fresh"]["out_bytes"] == 80  # the argument is not counted


def test_metrics_report_a_missing_name_as_zero():
    wanted = [{"name": "lay.f.calls", "unit": "count"}, {"name": "lay.gone.calls", "unit": "count"}]
    metrics = run.select_metrics(wanted, {"lay.f.calls": 3})
    assert metrics == {"lay.f.calls": {"value": 3, "unit": "count"},
                       "lay.gone.calls": {"value": 0, "unit": "count"}}


@pytest.mark.parametrize("n,percentile", [(11, 9), (24, 58), (35, 71), (45, 77)])
def test_tail_leaves_ten_values_beyond(n, percentile):
    p, value, beyond = run.tail([float(i) for i in range(n)])
    assert (p, beyond) == (percentile, 10)
    assert value == n - 11
