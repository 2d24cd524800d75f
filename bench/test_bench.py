"""Tests of the benchmark's tracer, correctness gate and metric names."""

import functools
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
from spans import Tracer, install, layer_totals  # noqa: E402
from workloads import (LAYERS, TRACE_METRICS, WORKLOADS, Layer,  # noqa: E402
                       all_jobs, jobs_for)

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_self_time_on_nested_calls_with_cache_hit():
    ticks = iter([0.0, 1.0, 2.0, 5.0, 6.0, 6.5, 8.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))

    @functools.lru_cache(maxsize=None)
    def leaf(n):
        return [0] * n

    cached = tracer.wrap("leaf", leaf, count=len)
    mid = tracer.wrap("mid", lambda: cached(2) + cached(2))
    top = tracer.wrap("top", lambda: mid())
    assert top() == [0] * 4
    totals = layer_totals(tracer.spans)
    assert leaf.cache_info().hits == 1
    assert totals["leaf"] == {"calls": 2, "self_s": 3.5, "count": 4,
                              "distinct": 0}
    assert totals["mid"]["self_s"] == 7.0 - 3.5
    assert totals["top"]["self_s"] == 10.0 - 7.0


def test_distinct_argument_tuples_are_counted():
    tracer = Tracer()
    fn = tracer.wrap("f", lambda a, b: a + b, keyed=True)
    for args in ((1, 2), (1, 2), (2, 1)):
        fn(*args)
    assert layer_totals(tracer.spans)["f"]["distinct"] == 2


def test_install_rebinds_every_module_name(tmp_path, monkeypatch):
    pkg = tmp_path / "toypkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text("def f(n):\n    return list(range(n))\n")
    (pkg / "cli.py").write_text(
        "from .a import f\n\n"
        "def direct():\n    return f(3)\n\n"
        "def late():\n    from .a import f as g\n    return g(2)\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        tracer = Tracer()
        install(tracer, [Layer("a.f", ("self_s", "vectors"), "wall_s", ())],
                package="toypkg")
        from toypkg import cli
        cli.direct()
        cli.late()
        totals = layer_totals(tracer.spans)
        assert totals["a.f"]["calls"] == 2
        assert totals["a.f"]["count"] == 5
    finally:
        for name in [m for m in sys.modules if m.startswith("toypkg")]:
            del sys.modules[name]


EXACT = ("diffop", "--k", "4", "--a", "2", "--b", "1", "--r", "2",
         "--T", "2,1,3")
TRIPLE = ("lvalue", "--h1", "11a", "--f1", "11a", "--f2", "11a")
SYM2 = ("lvalue", "--sym2", "11a")


@pytest.fixture(scope="module")
def references():
    return checks.load_references()


def test_gate_flags_one_altered_byte(references):
    good = references[" ".join(EXACT)]["stdout"].encode()
    assert checks.failure(EXACT, 0, good, references) is None
    for i in (0, len(good) // 2, len(good) - 1):
        bad = good[:i] + bytes([good[i] ^ 1]) + good[i + 1:]
        assert checks.failure(EXACT, 0, bad, references)
    assert checks.failure(EXACT, 3, good, references)


def test_gate_checks_lvalue_tolerance(references):
    ref = references[" ".join(TRIPLE)]

    def out(value, error):
        return json.dumps({"value": value, "error": error}).encode()

    assert checks.failure(TRIPLE, 0, out(ref["value"], ref["error"]),
                          references) is None
    near = ref["value"] + 0.5 * ref["error"]
    assert checks.failure(TRIPLE, 0, out(near, ref["error"]),
                          references) is None
    far = ref["value"] + 3 * ref["error"]
    assert checks.failure(TRIPLE, 0, out(far, ref["error"]), references)
    loose = ref["value"] * checks.LVALUE_ACCURACY * 2
    assert checks.failure(TRIPLE, 0, out(ref["value"], loose), references)


def test_gate_checks_only_finiteness_of_sym2(references):
    ok = json.dumps({"value": 0.7, "lambda": 0.4, "error": 1e-5}).encode()
    assert checks.failure(SYM2, 0, ok, references) is None
    nan = json.dumps({"value": math.nan, "lambda": 0.4,
                      "error": 1e-5}).encode()
    assert checks.failure(SYM2, 0, nan, references)


def test_every_job_has_a_reference(references):
    assert {" ".join(job) for job in all_jobs()} <= set(references)
    for job in all_jobs():
        assert references[" ".join(job)]["check"] == checks.check_kind(job)


def test_jobs_depend_only_on_the_seed():
    for name in WORKLOADS:
        assert jobs_for(name, 7) == jobs_for(name, 7)
        assert len(jobs_for(name, 7)) == len(WORKLOADS[name].slots)


def _result(wall, trace=None):
    return run.JobResult(("diffop",), wall, 50.0, None, trace)


def test_printed_metrics_match_benchmark_json():
    e2e = run.end_to_end_metrics([0.7, 0.8], [[_result(1.0)], [_result(2.0)]])
    spans = [["brandt.brandt_matrix", 0.0, 1.0, -1, None, None]]
    layers = run.layer_metrics(
        [_result(1.5, {"spans": spans,
                       "cache_hits": {"brandt.brandt_matrix": 3}})],
        [_result(1.0)])
    for printed, declared in ((e2e, SPEC["end_to_end"]),
                              (layers, SPEC["per_layer"])):
        assert {k: v["unit"] for k, v in printed.items()} == \
            {m["name"]: m["unit"] for m in declared}
    assert layers["brandt.brandt_matrix.cache_hits"]["value"] == 3
    assert layers["trace.overhead_s"]["value"] == 0.5


def test_benchmark_json_records_workloads_and_layer_mapping():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == \
        {name: w.why for name, w in WORKLOADS.items()}
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    mapping = {f"{layer.function}.{field}": (layer.moves, layer.on)
               for layer in LAYERS for field in layer.fields}
    mapping.update(TRACE_METRICS)
    assert set(mapping) == {m["name"] for m in SPEC["per_layer"]}
    for moves, on in mapping.values():
        assert moves in e2e and set(on) <= set(WORKLOADS)
