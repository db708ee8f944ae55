import types

import numpy as np
import pytest

from spans import Patched, Tracer, self_times, summarize


def test_self_time_of_a_hand_built_tree():
    # op [0, 10]: parse [1, 2], execute [2, 9] which holds aggregate [3, 8]
    # with two payoff calls [4, 5] and [6, 7.5]
    start = [0.0, 1.0, 2.0, 3.0, 4.0, 6.0]
    end = [10.0, 2.0, 9.0, 8.0, 5.0, 7.5]
    parent = [-1, 0, 0, 2, 3, 3]
    got = self_times(start, end, parent)
    assert got.tolist() == pytest.approx([2.0, 1.0, 2.0, 2.5, 1.0, 1.5])
    assert got.sum() == pytest.approx(10.0)


def test_summary_splits_setup_from_ops_and_sums_to_op_time():
    names = ["load", "op", "execute"]
    name_id = [0, 1, 2, 1, 2]
    start = [0.0, 1.0, 1.5, 3.0, 3.1]
    end = [1.0, 2.0, 1.9, 4.0, 3.9]
    parent = [-1, -1, 1, -1, 3]
    op = [-1, 0, 0, 1, 1]
    s = summarize(names, name_id, start, end, parent, op)
    assert s["op_s"] == pytest.approx(2.0)
    assert sum(s["op_self_s"].values()) == pytest.approx(s["op_s"])
    assert s["self_s"]["load"] == pytest.approx(1.0)
    assert s["op_self_s"]["load"] == 0.0
    assert s["op_self_s"]["execute"] == pytest.approx(0.4 + 0.8)
    assert s["calls"] == {"load": 1, "op": 2, "execute": 2}


def test_tracer_records_nesting_through_wrappers():
    ticks = iter(float(t) for t in range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2,
                        on_result=lambda r: tracer.counts.update(out=r))
    assert outer(1) == 4
    arr = tracer.arrays()
    assert [tracer.names[i] for i in arr["name_id"]] == ["outer", "inner"]
    assert arr["parent"].tolist() == [-1, 0]
    assert np.all(arr["end"] > arr["start"])
    assert tracer.counts["out"] == 4


def test_patched_restores_the_original_functions():
    mod = types.SimpleNamespace(f=lambda: "orig")
    tracer = Tracer()
    with Patched([(mod, "f", tracer.wrap("f", mod.f))]):
        assert mod.f() == "orig"
        assert mod.f.__wrapped__ is not None
    assert not hasattr(mod.f, "__wrapped__")
    assert tracer.names == ["f"]
