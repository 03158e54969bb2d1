"""Span nesting, self-time arithmetic and the Chrome-trace export."""

import threading

from benchmarks.spine.tracing import Tracer


def test_self_time_subtracts_direct_children_only():
    tr = Tracer()
    root = tr.add("root", 0.0, 10.0, op=1)
    child = tr.add("child", 1.0, 5.0, parent=root, op=1)
    tr.add("grandchild", 2.0, 3.0, parent=child, op=1)
    tr.add("child", 6.0, 8.0, parent=root, op=1)
    assert tr.self_times() == [4.0, 3.0, 1.0, 2.0]
    assert tr.self_by_name() == {"root": [4.0], "child": [3.0, 2.0], "grandchild": [1.0]}


def test_context_manager_nests_and_inherits_the_operation_id():
    tr = Tracer()
    with tr.span("outer", op=7) as outer:
        with tr.span("inner") as inner:
            pass
    with tr.span("next", op=8):
        pass
    spans = tr.spans
    assert [s.name for s in spans] == ["outer", "inner", "next"]
    assert spans[inner].parent == outer and spans[outer].parent is None
    assert [s.op for s in spans] == [7, 7, 8]
    assert spans[outer].start <= spans[inner].start <= spans[inner].end <= spans[outer].end
    assert all(t >= 0.0 for t in tr.self_times())


def test_nesting_is_per_thread():
    tr = Tracer()

    def work():
        with tr.span("worker"):
            pass

    with tr.span("main"):
        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    by_name = {s.name: s for s in tr.spans}
    assert by_name["worker"].parent is None
    assert by_name["worker"].tid != by_name["main"].tid


def test_chrome_trace_is_complete_events_in_microseconds():
    tr = Tracer()
    root = tr.add("root", 100.0, 100.5, op=3)
    tr.add("leaf", 100.1, 100.2, parent=root, op=3)
    events = tr.chrome_trace()["traceEvents"]
    assert [e["ph"] for e in events] == ["X", "X"]
    assert events[0]["ts"] == 0.0 and abs(events[0]["dur"] - 500_000.0) < 1e-3
    assert abs(events[1]["ts"] - 100_000.0) < 1e-3
    assert events[1]["args"] == {"op": 3, "parent": root}
