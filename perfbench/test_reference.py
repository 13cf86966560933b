"""The reference slice: fixed work, garbage collector state restored."""

import gc

import reference


def test_slice_does_fixed_work_and_restores_the_collector():
    assert reference.EXPECTED == reference._collapse_once()
    assert gc.isenabled()
    assert reference.slice_s() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        reference.slice_s()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_scaled_pass_scales_each_call_by_its_neighbouring_slices(monkeypatch):
    from run import Runner
    from workloads import Call

    slices = iter([0.02, 0.04, 0.06])
    monkeypatch.setattr(reference, "slice_s", lambda: next(slices))
    runner = Runner()
    walls = iter([(1.0, 1.0, {}), (2.0, 2.0, {})])
    monkeypatch.setattr(runner, "call", lambda call: next(walls))
    calls = [Call("a", [], None, None), Call("b", [], None, None)]
    wall, cpu, facts, scaled, seen = runner.run_scaled_pass(calls)
    assert (wall, cpu, seen) == (3.0, 3.0, [0.02, 0.04, 0.06])
    assert abs(scaled - reference.REF_S * (1.0 / 0.03 + 2.0 / 0.05)) < 1e-12
