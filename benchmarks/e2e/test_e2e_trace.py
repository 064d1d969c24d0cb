"""Unit tests for the span recorder and its wrapper install / remove."""

import json
import threading
import types

import pytest

from benchmarks.e2e import stats
from benchmarks.e2e.trace import OP, Tracer


class _Layer:
    def work(self, value):
        return value + 1

    def outer(self, value):
        return self.work(self.work(value))


class _Child(_Layer):
    pass


def test_spans_nest_and_self_time_excludes_children():
    tracer = Tracer()
    tracer.wrap(_Layer, "work", "layer.work")
    tracer.wrap(_Layer, "outer", "layer.outer")
    tracer.begin_op()
    assert _Layer().outer(1) == 3
    tracer.end_op()
    tracer.remove()
    names = [span[0] for span in tracer.spans]
    assert names == [OP, "layer.outer", "layer.work", "layer.work"]
    assert [span[3] for span in tracer.spans] == [-1, 0, 1, 1]
    assert all(span[4] == 0 for span in tracer.spans)
    own = stats.self_times(tracer.spans)
    durations = [span[2] - span[1] for span in tracer.spans]
    assert own[1] == pytest.approx(
        durations[1] - durations[2] - durations[3])
    assert own[0] == pytest.approx(durations[0] - durations[1])
    assert all(value >= 0 for value in own)


def test_operations_number_spans_and_set_up_stays_outside():
    tracer = Tracer()
    tracer.wrap(_Layer, "work", "layer.work", count=lambda *a, **k: 5)
    layer = _Layer()
    layer.work(0)                       # set-up: no operation open
    tracer.begin_op()
    layer.work(0)
    tracer.begin_op()                   # closes the first operation
    layer.work(0)
    tracer.end_op()
    layer.work(0)                       # teardown
    tracer.remove()
    ops = [span[4] for span in tracer.spans if span[0] == "layer.work"]
    assert ops == [-1, 0, 1, -1]
    assert tracer.counts == {"layer.work": 10}   # counted inside ops only
    assert all(span[2] is not None for span in tracer.spans)


def test_remove_restores_the_identical_attribute():
    module = types.ModuleType("fake_layer")
    module.function = lambda value: value * 2
    instance = _Layer()
    before = {
        "class": vars(_Layer)["work"],
        "module": vars(module)["function"],
    }
    tracer = Tracer()
    tracer.wrap(_Layer, "work", "class.work")
    tracer.wrap(_Child, "outer", "child.outer")      # inherited attribute
    tracer.wrap(module, "function", "module.function")
    tracer.wrap(instance, "outer", "instance.outer")  # bound method
    assert vars(_Layer)["work"] is not before["class"]
    assert "outer" in vars(_Child) and "outer" in vars(instance)
    assert module.function(4) == 8 and instance.outer(0) == 2
    tracer.remove()
    assert vars(_Layer)["work"] is before["class"]
    assert vars(module)["function"] is before["module"]
    assert "outer" not in vars(_Child)
    assert "outer" not in vars(instance)
    recorded = len(tracer.spans)
    assert _Child().outer(0) == 2 and module.function(1) == 2
    assert len(tracer.spans) == recorded       # nothing records any more


def test_kernel_wrappers_go_through_the_registry_and_come_back():
    class Registry:
        def __init__(self):
            self.kernels = {"spmm": lambda a, b: a * b}

        def kernel(self, name):
            return self.kernels[name]

        def register_kernel(self, name, fn):
            self.kernels[name] = fn

    registry = Registry()
    original = registry.kernel("spmm")
    tracer = Tracer()
    tracer.wrap_kernel(registry, "spmm", "kernel.spmm",
                       count=lambda a, b: a)
    tracer.begin_op()
    assert registry.kernel("spmm")(3, 4) == 12
    tracer.end_op()
    tracer.remove()
    assert registry.kernel("spmm") is original
    assert tracer.counts == {"kernel.spmm": 3}


def test_a_raising_call_still_closes_its_span():
    def boom():
        raise ValueError("no")

    module = types.ModuleType("fake")
    module.boom = boom
    tracer = Tracer()
    tracer.wrap(module, "boom", "boom")
    with pytest.raises(ValueError):
        module.boom()
    tracer.remove()
    assert tracer.spans[0][2] is not None
    tracer.begin("next")                      # the stack was left clean
    assert tracer.spans[-1][3] == -1


def test_threads_keep_their_own_stacks():
    tracer = Tracer()
    tracer.wrap(_Layer, "work", "layer.work")
    outer = tracer.begin("main.outer")
    worker = threading.Thread(target=_Layer().work, args=(0,))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    tracer.end(outer)
    tracer.remove()
    threaded = [span for span in tracer.spans if span[0] == "layer.work"]
    assert len(threaded) == 1 and threaded[0][3] == -1


def test_dump_writes_closed_spans_with_remapped_parents(tmp_path):
    tracer = Tracer()
    tracer.begin("left.open")                 # never closed: not written
    tracer.begin_op()
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end_op()
    path = tmp_path / "trace.json"
    tracer.dump(path, workload="w")
    payload = json.loads(path.read_text())
    assert payload["workload"] == "w"
    assert payload["columns"] == ["name", "start_s", "end_s", "parent", "op"]
    rows = [[payload["names"][row[0]], *row[1:]] for row in payload["spans"]]
    assert [row[0] for row in rows] == [OP, "inner"]
    assert rows[0][3] == -1 and rows[1][3] == 0 and rows[1][4] == 0
    assert rows[0][1] == 0.0 and rows[1][2] <= rows[0][2]
