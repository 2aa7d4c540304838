"""Critical path, self/total rollups, phase and straggler attribution."""

from repro.trace import analyze, critical_path, merge_trace
from repro.trace.analysis import attribute_phase, self_times
from repro.trace.merge import Span

from .helpers import begin, end, instant, write_spans


def _gang_trace(tmp_path):
    """A two-worker gang: w1 straggles, w0 waits at the barrier for it."""
    write_spans(
        tmp_path,
        "main",
        [
            begin("main", 1, 0.0, "fleet", cat="job"),
            begin("main", 2, 0.1, "task:u#s0", cat="task", parent="main:1"),
            begin("main", 3, 0.1, "task:u#s1", cat="task", parent="main:1"),
            end("main", 2, 9.0),
            end("main", 3, 9.5),
            end("main", 1, 10.0),
        ],
    )
    write_spans(
        tmp_path,
        "w0",
        [
            begin("w0", 1, 0.2, "task:u#s0", cat="task", parent="main:2"),
            # w0 reaches the barrier early and waits 3s for w1
            begin("w0", 2, 1.0, "barrier.collect", parent="w0:1",
                  cat="barrier"),
            end("w0", 2, 4.0),
            begin("w0", 3, 5.0, "checkpoint.save", parent="w0:1",
                  cat="checkpoint"),
            end("w0", 3, 5.5),
            end("w0", 1, 8.8),
        ],
    )
    write_spans(
        tmp_path,
        "w1",
        [
            begin("w1", 1, 0.2, "task:u#s1", cat="task", parent="main:3"),
            begin("w1", 2, 3.5, "barrier.collect", parent="w1:1",
                  cat="barrier"),
            end("w1", 2, 4.0),
            begin("w1", 3, 4.5, "salvage.load", parent="w1:1",
                  cat="salvage"),
            end("w1", 3, 5.0),
            end("w1", 1, 9.4),
        ],
    )
    return merge_trace(str(tmp_path))


class TestCriticalPath:
    def test_last_finisher_walk_crosses_processes(self, tmp_path):
        trace = _gang_trace(tmp_path)
        path = [s.span_id for s in critical_path(trace)]
        # fleet -> the later-ending supervisor task span -> the worker
        # span it parents -> that worker's last-ending child
        assert path == ["main:1", "main:3", "w1:1", "w1:3"]

    def test_empty_trace_has_empty_path(self):
        from repro.trace.merge import MergedTrace

        assert critical_path(MergedTrace(trace_id="t")) == []


class TestSelfTimes:
    def test_child_union_is_subtracted_once(self, tmp_path):
        # two overlapping children must not be double-subtracted
        write_spans(
            tmp_path,
            "main",
            [
                begin("main", 1, 0.0, "unit"),
                begin("main", 2, 1.0, "a", parent="main:1"),
                begin("main", 3, 2.0, "b", parent="main:1"),
                end("main", 2, 3.0),
                end("main", 3, 4.0),
                end("main", 1, 10.0),
            ],
        )
        selfs = self_times(merge_trace(str(tmp_path)))
        # children cover [1, 4) as a union -> 10 - 3 = 7
        assert abs(selfs["main:1"] - 7.0) < 1e-9

    def test_overshooting_child_is_clipped(self, tmp_path):
        # a truncated child can end after its parent; never negative self
        write_spans(
            tmp_path,
            "main",
            [
                begin("main", 1, 0.0, "unit"),
                begin("main", 2, 0.0, "child", parent="main:1"),
                end("main", 2, 5.0),
                end("main", 1, 2.0),
            ],
        )
        selfs = self_times(merge_trace(str(tmp_path)))
        assert selfs["main:1"] == 0.0


class TestPhaseAttribution:
    def test_cat_mapping(self):
        def span(cat, name):
            return Span(
                span_id="x:1", parent=None, name=name, cat=cat,
                proc="x", start=0.0, end=1.0,
            )

        assert attribute_phase(span("barrier", "barrier.collect")) == (
            "barrier-wait"
        )
        assert attribute_phase(span("checkpoint", "checkpoint.save")) == (
            "checkpoint"
        )
        assert attribute_phase(span("salvage", "salvage.load")) == "salvage"
        assert attribute_phase(span("retry", "retry.wait")) == "retry-wait"
        # everything else buckets under its category
        assert attribute_phase(span("task", "task:u")) == "task"

    def test_analysis_charges_self_time_to_named_phases(self, tmp_path):
        analysis = analyze(_gang_trace(tmp_path))
        assert abs(analysis.phases["barrier-wait"] - 3.5) < 1e-9
        assert abs(analysis.phases["checkpoint"] - 0.5) < 1e-9
        assert abs(analysis.phases["salvage"] - 0.5) < 1e-9
        assert analysis.wall_seconds == 10.0

    def test_phases_event_is_charged_against_its_span_self_time(
        self, tmp_path
    ):
        write_spans(
            tmp_path,
            "w0",
            [
                begin("w0", 1, 0.0, "task:u", cat="task"),
                begin("w0", 2, 1.0, "ticks", parent="w0:1"),
                begin("w0", 3, 2.0, "barrier.collect", parent="w0:2",
                      cat="barrier"),
                end("w0", 3, 3.0),
                end("w0", 2, 6.0),
                instant("w0", 4, 6.0, "phases", parent="w0:2", cat="phase",
                        ticks=50, seconds={"queueing": 3.0, "policy": 1.5}),
                end("w0", 1, 8.0),
            ],
        )
        analysis = analyze(merge_trace(str(tmp_path)))
        # ticks self time is 5 - 1 (barrier) = 4: 3.0 + 0.5 of the
        # measured 4.5 would exceed it, so the laps are scaled to fit
        assert abs(analysis.phases["queueing"] - 4.0 * 3.0 / 4.5) < 1e-9
        assert abs(analysis.phases["policy"] - 4.0 * 1.5 / 4.5) < 1e-9
        assert analysis.phases.get("run", 0.0) < 1e-9
        assert abs(analysis.phases["barrier-wait"] - 1.0) < 1e-9
        assert abs(analysis.phases["task"] - 3.0) < 1e-9
        # every second of the lane is attributed exactly once
        assert abs(sum(analysis.phases.values()) - 8.0) < 1e-9

    def test_unmeasured_remainder_goes_to_the_span_category(self, tmp_path):
        write_spans(
            tmp_path,
            "main",
            [
                begin("main", 1, 0.0, "campaign.run", cat="campaign"),
                end("main", 1, 2.0),
                instant("main", 2, 2.0, "phases", parent="main:1",
                        cat="phase", ticks=9, seconds={"queueing": 1.5}),
            ],
        )
        analysis = analyze(merge_trace(str(tmp_path)))
        assert analysis.phases == {"queueing": 1.5, "campaign": 0.5}

    def test_rollups_sorted_by_total_with_counts(self, tmp_path):
        analysis = analyze(_gang_trace(tmp_path))
        barrier = next(
            r for r in analysis.rollups
            if (r.cat, r.name) == ("barrier", "barrier.collect")
        )
        assert barrier.count == 2
        assert abs(barrier.total_seconds - 3.5) < 1e-9
        totals = [r.total_seconds for r in analysis.rollups]
        assert totals == sorted(totals, reverse=True)


class TestStraggler:
    def test_least_barrier_wait_is_the_straggler(self, tmp_path):
        analysis = analyze(_gang_trace(tmp_path))
        # w0 waited 3s at collect, w1 only 0.5s: w1 kept everyone waiting
        assert analysis.barrier_wait_by_proc == {"w0": 3.0, "w1": 0.5}
        assert analysis.straggler == "w1"

    def test_single_proc_has_no_straggler(self, tmp_path):
        write_spans(
            tmp_path,
            "w0",
            [
                begin("w0", 1, 0.0, "barrier.collect", cat="barrier"),
                end("w0", 1, 1.0),
            ],
        )
        analysis = analyze(merge_trace(str(tmp_path)))
        assert analysis.straggler is None
