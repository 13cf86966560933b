"""The traced pass: wrappers restore what they replace, tolerate missing
functions, and record properly nested spans."""

import inspect
from importlib import import_module

import pytest

import dowker.cli
from dowker.relation import Relation
from fixtures import grid_triangles, toplex_text
from run import Runner, dominant_shares, layer_metrics, new_tracer
from tracing import WRAPPED, Tracer, layer_times
from workloads import Call, CheckFailed


def _static_attrs():
    out = {}
    for name, (module, cls, attr) in WRAPPED.items():
        owner = import_module(module)
        out[name] = inspect.getattr_static(getattr(owner, cls) if cls else owner, attr)
    return out


def test_install_restores_every_attribute_even_after_an_error():
    before = _static_attrs()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert dowker.cli.reduce is not before["reducer.reduce"]
            assert Relation.__dict__["from_text"] is not before["relation.from_text"]
            raise RuntimeError
    assert _static_attrs() == before
    assert tracer.missing == []


def test_missing_function_reports_no_calls():
    table = dict(WRAPPED, **{"reducer.gone": ("dowker.reducer", None, "no_such_function"),
                             "relation.gone": ("dowker.relation", "Relation", "no_such_method"),
                             "layer.gone": ("dowker.no_such_module", None, "f")})
    tracer = Tracer()
    with tracer.installed(table):
        Relation.from_toplexes(grid_triangles(3, 3))
    assert sorted(tracer.missing) == ["layer.gone", "reducer.gone", "relation.gone"]
    times = layer_times(tracer.spans)
    assert "reducer.gone" not in times
    assert times["relation.from_toplexes"]["calls"] == 1


def test_traced_cli_call_nests_spans_and_counts(tmp_path):
    src = tmp_path / "t.toplex"
    src.write_text(toplex_text(grid_triangles(4, 4)))
    argv = ["reduce", "--input", str(src), "--format", "toplex", "--check-betti",
            "--output", str(tmp_path / "t.rel"), "--json"]
    runner = Runner()
    tracer, counts = new_tracer()
    calls = [Call("t", argv, lambda out: {"steps": 0}, lambda s: s("reducer.reduce"))]
    wall, _, facts = runner.run_pass(calls, tracer)
    assert runner.failed == 0
    spans = tracer.spans
    assert spans[0][0] == "cli.main" and spans[0][3] is None
    for name, start, end, parent in spans:
        assert start <= end
        if parent is not None:
            assert spans[parent][1] <= start and end <= spans[parent][2]
    times = layer_times(spans)
    assert all(rec["self_s"] >= 0 for rec in times.values())
    assert times["cli.main"]["s"] <= wall
    assert times["homology.betti_gf2"]["calls"] == 2
    assert times["collapse.is_strong_collapsible"]["calls"] >= 1
    assert counts["simplices"] > 0 and counts["collapsible"] >= 1
    metrics = layer_metrics("reduce-torus", tracer, dominant_shares(calls, spans), facts, counts)
    assert metrics["collapse.is_strong_collapsible.calls"] == times["collapse.is_strong_collapsible"]["calls"]
    assert 0 < metrics["trace.dominant_frac"] < 1


def test_layer_times_counts_a_recursive_call_once():
    spans = [["f", 0, 100, None], ["f", 10, 60, 0], ["g", 20, 30, 1]]
    times = layer_times(spans)
    assert times["f"] == {"s": 100e-9, "self_s": 90e-9, "calls": 2}
    assert times["g"]["self_s"] == 10e-9


def test_a_wrong_output_is_a_failed_call(tmp_path):
    src = tmp_path / "t.toplex"
    src.write_text(toplex_text(grid_triangles(3, 3)))

    def wrong(out):
        raise CheckFailed("expected something else")

    runner = Runner()
    runner.run_pass([Call("t", ["betti", "--input", str(src)], wrong, None),
                     Call("t", ["betti", "--input", str(tmp_path / "none")], lambda out: {}, None)])
    assert (runner.attempted, runner.failed) == (2, 2)
