"""Span recording, self time and wall-time coverage."""

import threading
import time

from perfbench.spans import Probe, Span, Tracer, self_times, uncovered_time


def test_self_time_subtracts_only_same_thread_children():
    # Thread 1: outer [0, 10] with child [2, 5].
    # Thread 2: outer [1, 9] with child [3, 8], overlapping thread 1's
    # outer in time but not its child.
    spans = [
        Span(1, "outer", 0.0, 10.0, 0, 1, 0),
        Span(2, "inner", 2.0, 5.0, 1, 1, 0),
        Span(3, "outer", 1.0, 9.0, 0, 2, 0),
        Span(4, "inner", 3.0, 8.0, 3, 2, 0),
    ]
    own = self_times(spans)
    assert own["outer"] == (10.0 - 3.0) + (8.0 - 5.0)
    assert own["inner"] == 3.0 + 5.0


def test_self_time_of_nested_chain():
    spans = [
        Span(1, "a", 0.0, 10.0, 0, 1, 0),
        Span(2, "b", 1.0, 9.0, 1, 1, 0),
        Span(3, "c", 2.0, 4.0, 2, 1, 0),
        Span(4, "c", 5.0, 6.0, 2, 1, 0),
    ]
    own = self_times(spans)
    assert own == {"a": 2.0, "b": 5.0, "c": 3.0}


def test_wrapped_calls_link_parents_per_thread():
    tracer = Tracer()
    inner = tracer.wrap(Probe("inner", "m", "inner"), lambda: time.sleep(0.01))

    def body():
        time.sleep(0.005)
        inner()

    outer = tracer.wrap(Probe("outer", "m", "outer"), body)
    barrier = threading.Barrier(2)

    def worker():
        barrier.wait()
        outer()

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    by_id = {span.sid: span for span in tracer.spans}
    inners = [span for span in tracer.spans if span.name == "inner"]
    assert len(inners) == 2
    for span in inners:
        parent = by_id[span.parent]
        assert parent.name == "outer"
        assert parent.thread == span.thread
        assert parent.start <= span.start and span.end <= parent.end
    assert tracer.counters["outer.calls"] == 2
    own = self_times(tracer.spans)
    outer_total = sum(s.end - s.start for s in tracer.spans if s.name == "outer")
    inner_total = sum(s.end - s.start for s in inners)
    assert abs(own["outer"] - (outer_total - inner_total)) < 1e-9


def test_uncovered_time_counts_gaps_across_threads():
    spans = [
        Span(1, "x", 1.0, 3.0, 0, 1, 0),
        Span(2, "y", 2.0, 4.0, 0, 2, 0),
        Span(3, "z", 6.0, 12.0, 0, 1, 0),
    ]
    # Window [0, 10]: covered [1, 4] and [6, 10].
    assert uncovered_time(spans, (0.0, 10.0)) == 10.0 - 3.0 - 4.0


def test_work_counters_and_uncounted_calls():
    tracer = Tracer()
    probe = Probe("k", "m", "f", calls=False,
                  work=lambda args, kwargs, result: {"k.items": result})
    wrapped = tracer.wrap(probe, lambda n: n)
    wrapped(3)
    wrapped(4)
    assert tracer.counters["k.items"] == 7
    assert tracer.counters["k.calls"] == 0
    assert tracer.counters["probe:m:f"] == 2
