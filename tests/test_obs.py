"""Tests for the observability subsystem: tracing, structured logs,
histogram metrics and the Prometheus exposition (PR 7).

Covers the contextvar trace plumbing end to end -- one trace_id minted
at the front-end showing up on spans from every layer (admission,
speculation, plan choice, training segments, checkpoint writes, lease
ops) -- plus the JSON-lines persistence round-trip through ``repro
trace``, the slow-request log, the logging formatters, and the
MetricsRegistry's concurrency and rendering guarantees.
"""

import contextlib
import io
import json
import logging
import os
import socket
import tempfile
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.__main__ as cli
from repro.api import ML4all
from repro.errors import ReproError
from repro.obs import (
    JsonFormatter,
    TraceRecorder,
    assemble_tree,
    configure_logging,
    current_context,
    emit_span,
    get_logger,
    render_tree,
    span,
)
from repro.obs.recorder import load_trace, valid_trace_id
from repro.service.frontend import (
    Dispatcher,
    SocketFrontend,
    parse_wire_line,
)
from repro.service.metrics import DEFAULT_BUCKETS, MetricsRegistry

FAST_LINE = "adult epsilon=0.05 fixed_iterations=40"

TRAIN_REQUEST = {
    "verb": "train", "dataset": "adult", "epsilon": 0.001,
    "max_iter": 150, "algorithm": "mgd", "job_id": "traced-job",
    "checkpoint_every": 25,
}


def span_names(spans):
    return {record["name"] for record in spans}


# ----------------------------------------------------------------------
class TestSpans:
    def test_span_is_noop_without_active_trace(self):
        assert current_context() is None
        with span("anything", key="value") as sp:
            sp.set("more", 1)  # must not raise
        assert current_context() is None

    def test_emit_span_returns_none_without_active_trace(self):
        assert emit_span("queue_wait", 0.5) is None

    def test_trace_records_nested_spans_with_parent_links(self):
        recorder = TraceRecorder()
        with recorder.trace("request", verb="optimize") as root:
            with span("outer") as outer:
                with span("inner"):
                    pass
        spans = recorder.spans(root.trace_id)
        by_name = {record["name"]: record for record in spans}
        assert by_name["request"]["parent_id"] is None
        assert by_name["outer"]["parent_id"] == by_name["request"]["span_id"]
        assert by_name["inner"]["parent_id"] == outer.span_id
        assert {record["trace_id"] for record in spans} == {root.trace_id}
        assert all(record["duration_s"] >= 0.0 for record in spans)

    def test_exception_marks_span_status_error_and_propagates(self):
        recorder = TraceRecorder()
        with pytest.raises(ValueError):
            with recorder.trace("request") as root:
                with span("failing"):
                    raise ValueError("boom")
        by_name = {s["name"]: s for s in recorder.spans(root.trace_id)}
        assert by_name["failing"]["status"] == "error"
        assert "ValueError: boom" in by_name["failing"]["attributes"]["error"]
        # the root also raised through, so it is an error too
        assert by_name["request"]["status"] == "error"

    def test_emit_span_attaches_premeasured_duration(self):
        recorder = TraceRecorder()
        with recorder.trace("request") as root:
            emitted = emit_span("admission", 0.125, tenant="t1")
        assert emitted.duration_s == 0.125
        by_name = {s["name"]: s for s in recorder.spans(root.trace_id)}
        assert by_name["admission"]["parent_id"] == \
            by_name["request"]["span_id"]

    def test_adopted_trace_id_and_validation(self):
        recorder = TraceRecorder()
        with recorder.trace("request", trace_id="client-chosen.1") as root:
            pass
        assert root.trace_id == "client-chosen.1"
        # invalid ids are replaced, not trusted
        with recorder.trace("request", trace_id="../../etc/passwd") as root:
            pass
        assert root.trace_id != "../../etc/passwd"
        assert valid_trace_id(root.trace_id)

    def test_ids_are_os_random_bytes_in_hex(self, monkeypatch):
        """A trace id is 8 random bytes and a span id 4, drawn from the
        OS source uuid4 drew from, at the width uuid4's hex prefix had;
        the recorder adopts what it minted."""
        from repro.obs import context

        draws = iter([bytes(range(1, 9)), bytes([0xde, 0xad, 0xbe, 0xef])])
        sizes = []

        def urandom(size):
            sizes.append(size)
            return next(draws)

        monkeypatch.setattr(context.os, "urandom", urandom)
        assert context.new_trace_id() == "0102030405060708"
        assert context.new_span_id() == "deadbeef"
        assert sizes == [8, 4]
        draws = iter([b"\x00" * 8, b"\xff" * 4])
        with TraceRecorder().trace("request") as root:
            pass
        assert (root.trace_id, root.span_id) == ("0" * 16, "f" * 8)
        assert valid_trace_id(root.trace_id)

    def test_spans_cross_thread_pools_via_copy_context(self):
        import contextvars
        from concurrent.futures import ThreadPoolExecutor

        recorder = TraceRecorder()
        with recorder.trace("request") as root:
            with ThreadPoolExecutor(max_workers=2) as pool:
                ctx = contextvars.copy_context()
                future = pool.submit(ctx.run, self._worker_span)
                future.result()
        assert "worker" in span_names(recorder.spans(root.trace_id))

    @staticmethod
    def _worker_span():
        with span("worker"):
            pass


class TestRecorder:
    def test_memory_ring_evicts_oldest_trace(self):
        recorder = TraceRecorder(max_traces=2)
        ids = []
        for _ in range(3):
            with recorder.trace("request") as root:
                ids.append(root.trace_id)
        assert recorder.spans(ids[0]) is None
        assert recorder.spans(ids[1]) is not None
        assert recorder.spans(ids[2]) is not None

    def test_per_trace_span_cap_bounds_memory(self):
        recorder = TraceRecorder(max_spans_per_trace=5)
        with recorder.trace("request") as root:
            for _ in range(20):
                with span("loop"):
                    pass
        assert len(recorder.spans(root.trace_id)) == 5

    def test_disk_persistence_and_reload(self, tmp_path):
        trace_dir = str(tmp_path / "traces")
        recorder = TraceRecorder(trace_dir=trace_dir, max_traces=1)
        with recorder.trace("request") as first:
            with span("child"):
                pass
        with recorder.trace("request"):
            pass  # evicts the first trace from memory
        # memory is gone, disk still answers
        spans = recorder.spans(first.trace_id)
        assert span_names(spans) == {"request", "child"}
        direct = load_trace(
            str(tmp_path / "traces" / f"{first.trace_id}.jsonl")
        )
        assert direct == spans

    def test_slow_request_log_and_counter(self, tmp_path):
        metrics = MetricsRegistry()
        recorder = TraceRecorder(
            trace_dir=str(tmp_path), metrics=metrics, slow_threshold_s=0.0
        )
        stream = io.StringIO()
        configure_logging(level="info", stream=stream)
        try:
            with recorder.trace("request") as root:
                pass
        finally:
            configure_logging(level="info")  # restore live-stderr handler
        assert metrics.value("obs.slow_requests") == 1
        logged = stream.getvalue()
        assert "slow request" in logged and root.trace_id in logged
        slow = load_trace(str(tmp_path / "slow_requests.jsonl"))
        assert slow[0]["trace_id"] == root.trace_id

    def test_span_durations_feed_metrics_histograms(self):
        metrics = MetricsRegistry()
        recorder = TraceRecorder(metrics=metrics)
        with recorder.trace("request"):
            with span("fingerprint"):
                pass
        assert metrics.histogram_stats("span.request")["count"] == 1
        assert metrics.histogram_stats("span.fingerprint")["count"] == 1


SPAN_KEYS = ["name", "trace_id", "span_id", "parent_id", "start_s",
             "duration_s", "status", "attributes"]
ATTRIBUTES = st.dictionaries(
    st.text("abcxyz", min_size=1, max_size=3),
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=3),
              st.floats(allow_nan=False, allow_infinity=False)),
    max_size=3,
)


class TestSpanRecords:
    """The ring keeps Span objects; what leaves the recorder must be the
    dicts it always was."""

    @settings(max_examples=60, deadline=None)
    @given(chain=st.lists(st.tuples(ATTRIBUTES, ATTRIBUTES), min_size=1,
                          max_size=5),
           boom=st.booleans())
    def test_spans_keep_the_record_shape_and_every_attribute(
        self, chain, boom
    ):
        opened = []

        def descend(level):
            at_open, in_block = chain[level]
            with span(f"s{level}", **at_open) as current:
                opened.append(current)
                for key, value in in_block.items():
                    current.set(key, value)
                if level + 1 < len(chain):
                    descend(level + 1)
                elif boom:
                    raise ValueError("boom")

        with tempfile.TemporaryDirectory() as trace_dir:
            recorder = TraceRecorder(trace_dir=trace_dir)
            with contextlib.suppress(ValueError):
                with recorder.trace("request", tenant="t") as root:
                    descend(0)
            records = recorder.spans(root.trace_id)
            on_disk = load_trace(os.path.join(
                trace_dir, f"{root.trace_id}.jsonl"))
        error = {"error": "ValueError: boom"} if boom else {}

        def record(current, parent, attributes):
            return {
                "name": current.name, "trace_id": root.trace_id,
                "span_id": current.span_id,
                "parent_id": parent and parent.span_id,
                "start_s": current.start_s,
                "duration_s": current.duration_s,
                "status": "error" if boom else "ok",
                "attributes": {**attributes, **error},
            }

        parents = [root, *opened]
        expected = [
            record(opened[level], parents[level],
                   {**chain[level][0], **chain[level][1]})
            for level in reversed(range(len(chain)))
        ] + [record(root, None, {"tenant": "t"})]
        assert records == expected
        assert [list(r) for r in records] == [SPAN_KEYS] * len(expected)
        assert on_disk == json.loads(json.dumps(records))


class TestTreeAssembly:
    def test_assemble_and_render(self):
        recorder = TraceRecorder()
        with recorder.trace("request") as root:
            with span("outer", algorithm="mgd"):
                with span("inner"):
                    pass
            with span("sibling"):
                pass
        spans = recorder.spans(root.trace_id)
        [tree] = assemble_tree(spans)
        assert tree["name"] == "request"
        assert [c["name"] for c in tree["children"]] == ["outer", "sibling"]
        assert tree["children"][0]["children"][0]["name"] == "inner"
        lines = render_tree(spans)
        assert lines[0].startswith("request ")
        assert lines[1].startswith("  outer ")
        assert "algorithm=mgd" in lines[1]
        assert lines[2].startswith("    inner ")

    def test_orphan_spans_surface_as_roots(self):
        spans = [
            {"name": "lost", "trace_id": "t", "span_id": "b",
             "parent_id": "missing", "start_s": 1.0, "duration_s": 0.1,
             "status": "ok", "attributes": {}},
        ]
        [root] = assemble_tree(spans)
        assert root["name"] == "lost"
        assert render_tree(spans)


# ----------------------------------------------------------------------
class TestLogging:
    def test_json_formatter_merges_extras_and_trace_ids(self):
        recorder = TraceRecorder()
        formatter = JsonFormatter()
        logger = logging.Logger("repro.test")
        with recorder.trace("request") as root:
            record = logger.makeRecord(
                "repro.test", logging.WARNING, "f", 1, "oh %s", ("no",),
                None, extra={"kind": "bad_request"},
            )
            payload = json.loads(formatter.format(record))
        assert payload["message"] == "oh no"
        assert payload["level"] == "WARNING"
        assert payload["logger"] == "repro.test"
        assert payload["kind"] == "bad_request"
        assert payload["trace_id"] == root.trace_id
        assert payload["ts"].endswith("Z")

    def test_configure_logging_is_idempotent(self):
        first = configure_logging(level="info")
        second = configure_logging(level="debug")
        try:
            assert first is second
            handlers = [h for h in second.handlers
                        if getattr(h, "_repro_obs", False)]
            assert len(handlers) == 1
            assert second.level == logging.DEBUG
        finally:
            configure_logging(level="info")

    def test_configure_logging_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            configure_logging(level="chatty")

    def test_get_logger_roots_under_repro(self):
        assert get_logger("serve").name == "repro.serve"
        assert get_logger("repro.slow").name == "repro.slow"
        assert get_logger().name == "repro"

    def test_text_formatter_appends_extras(self):
        stream = io.StringIO()
        configure_logging(level="info", stream=stream)
        try:
            get_logger("test").warning("went wrong", extra={"kind": "bad"})
        finally:
            configure_logging(level="info")
        line = stream.getvalue()
        assert "WARNING" in line and "repro.test" in line
        assert "went wrong" in line and "kind=bad" in line


# ----------------------------------------------------------------------
class TestWireProtocol:
    def test_trace_verb_text_form(self):
        wire = parse_wire_line("trace abc123")
        assert wire.verb == "trace"
        assert wire.trace_id == "abc123"
        assert wire.request is None

    def test_trace_verb_json_form(self):
        wire = parse_wire_line(
            '{"verb": "trace", "trace_id": "abc123", "id": 7}'
        )
        assert wire.verb == "trace" and wire.trace_id == "abc123"
        assert wire.id == 7

    def test_trace_verb_requires_trace_id(self):
        with pytest.raises(ReproError, match="needs a trace_id"):
            parse_wire_line("trace")
        with pytest.raises(ReproError, match="needs a trace_id"):
            parse_wire_line('{"verb": "trace"}')

    def test_invalid_trace_id_is_a_bad_request(self):
        with pytest.raises(ReproError, match="invalid trace_id"):
            parse_wire_line('{"verb": "trace", "trace_id": "../escape"}')

    def test_a_trailing_newline_is_no_trace_id(self, tmp_path):
        """``$`` matched before a final newline: the id was adopted and
        its trace file was named ``abc\\n.jsonl``."""
        assert not valid_trace_id("abc\n")
        assert valid_trace_id("abc")
        trace_dir = tmp_path / "traces"
        system = ML4all(seed=7)
        dispatcher = Dispatcher(
            system, tracer=TraceRecorder(trace_dir=str(trace_dir),
                                         metrics=system.metrics),
        )
        response = dispatcher.handle_line(json.dumps(
            {"dataset": "adult", "fixed_iterations": 40,
             "trace_id": "abc\n"}))
        assert not response["ok"]
        assert response["error"] == "bad_request"
        assert "invalid trace_id" in response["detail"]
        assert list(trace_dir.iterdir()) == []
        # The recorder mints its own id rather than trust this one.
        with dispatcher.tracer.trace("request", trace_id="abc\n") as root:
            pass
        assert root.trace_id != "abc\n"
        assert [p.name for p in trace_dir.iterdir()] == \
            [f"{root.trace_id}.jsonl"]

    def test_request_lines_can_carry_a_trace_id(self):
        wire = parse_wire_line(f"{FAST_LINE} trace_id=my-trace.1")
        assert wire.trace_id == "my-trace.1"
        assert wire.request["dataset"] == "adult"
        assert "trace_id" not in wire.request


# ----------------------------------------------------------------------
class TestDispatcherTracing:
    def test_optimize_response_carries_trace_id(self):
        dispatcher = Dispatcher(ML4all(seed=7))
        response = dispatcher.handle_line(FAST_LINE)
        assert response["ok"]
        trace_id = response["trace_id"]
        trace = dispatcher.handle_line(f"trace {trace_id}")
        assert trace["ok"]
        names = span_names(trace["spans"])
        assert {"request", "fingerprint", "cache_lookup",
                "plan_choice"} <= names
        assert trace["lines"][0].startswith("request ")

    def test_client_supplied_trace_id_is_adopted(self):
        dispatcher = Dispatcher(ML4all(seed=7))
        response = dispatcher.handle_line(
            f"{FAST_LINE} trace_id=chosen-by-client"
        )
        assert response["trace_id"] == "chosen-by-client"
        assert dispatcher.handle_line("trace chosen-by-client")["ok"]

    def test_unknown_trace_is_not_found(self):
        dispatcher = Dispatcher(ML4all(seed=7))
        response = dispatcher.handle_line("trace deadbeef00000000")
        assert not response["ok"]
        assert response["error"] == "not_found"

    def test_train_job_trace_spans_every_layer(self, tmp_path):
        system = ML4all(seed=7,
                        checkpoint_path=str(tmp_path / "jobs.json"))
        dispatcher = Dispatcher(system)
        response = dispatcher.handle_line(json.dumps(TRAIN_REQUEST))
        assert response["ok"], response
        trace = dispatcher.handle_line(f"trace {response['trace_id']}")
        spans = trace["spans"]
        names = span_names(spans)
        # one trace_id across admission-to-checkpoint
        assert {"request", "speculation", "plan_choice", "plan_segment",
                "checkpoint_write", "lease_acquire"} <= names
        assert {s["trace_id"] for s in spans} == {response["trace_id"]}
        # the final checkpoint write ends the lease: no separate release
        writes = [s for s in spans if s["name"] == "checkpoint_write"]
        assert writes[-1]["attributes"]["status"] == "done"
        assert writes[-1]["attributes"]["released"] is True
        assert not any(s["attributes"]["released"] for s in writes[:-1])
        assert "lease_release" not in names
        # every AdaptiveTrainer segment is in the tree
        segments = [s for s in spans if s["name"] == "plan_segment"]
        assert all(
            s["attributes"]["algorithm"] == "mgd" for s in segments
        )
        # the plan-choice explain record ranks every candidate
        [choice] = [s for s in spans if s["name"] == "plan_choice"]
        ranked = choice["attributes"]["candidates"]
        assert len(ranked) >= 2
        totals = [c["total_s"] for c in ranked]
        assert totals == sorted(totals)
        assert choice["attributes"]["chosen"] == ranked[0]["plan"]

    def test_failed_request_is_an_error_root_span(self):
        dispatcher = Dispatcher(ML4all(seed=7))
        response = dispatcher.handle_line("no_such_dataset epsilon=0.05")
        assert not response["ok"]
        trace = dispatcher.handle_line(f"trace {response['trace_id']}")
        [root] = [s for s in trace["spans"] if s["parent_id"] is None]
        assert root["attributes"]["ok"] is False
        assert root["attributes"]["error"] == "request_failed"

    def test_metrics_verb_includes_prometheus_text(self):
        dispatcher = Dispatcher(ML4all(seed=7))
        dispatcher.handle_line(FAST_LINE)
        response = dispatcher.handle_line("metrics")
        assert "histograms" in response["metrics"]
        assert "repro_frontend_requests_total" in response["prometheus"]
        assert "span.request" in response["metrics"]["histograms"]


class TestSocketTracing:
    def test_admission_span_and_trace_verb_over_socket(self):
        dispatcher = Dispatcher(ML4all(seed=7))
        with SocketFrontend(dispatcher, port=0, max_workers=2) as frontend:
            sock = socket.create_connection(
                ("127.0.0.1", frontend.port), timeout=30
            )
            handle = sock.makefile("rw", encoding="utf-8", newline="\n")
            try:
                handle.write(FAST_LINE + "\n")
                handle.flush()
                response = json.loads(handle.readline())
                assert response["ok"]
                handle.write(f"trace {response['trace_id']}\n")
                handle.flush()
                trace = json.loads(handle.readline())
            finally:
                sock.close()
        assert trace["ok"]
        names = span_names(trace["spans"])
        assert "admission" in names and "plan_choice" in names
        assert {s["trace_id"] for s in trace["spans"]} == \
            {response["trace_id"]}


# ----------------------------------------------------------------------
class TestTraceCli:
    def test_repro_trace_renders_a_stored_trace(self, tmp_path, capsys):
        trace_dir = str(tmp_path / "traces")
        system = ML4all(seed=7)
        dispatcher = Dispatcher(
            system, tracer=TraceRecorder(trace_dir=trace_dir,
                                         metrics=system.metrics),
        )
        response = dispatcher.handle_line(FAST_LINE)
        assert cli.main(
            ["trace", response["trace_id"], "--trace-dir", trace_dir]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("request ")
        assert "plan_choice" in out and "spans" in out

    def test_repro_trace_json_mode_and_file_path(self, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        system = ML4all(seed=7)
        dispatcher = Dispatcher(
            system, tracer=TraceRecorder(trace_dir=str(trace_dir),
                                         metrics=system.metrics),
        )
        response = dispatcher.handle_line(FAST_LINE)
        path = trace_dir / f"{response['trace_id']}.jsonl"
        assert cli.main(["trace", str(path), "--json"]) == 0
        [tree] = json.loads(capsys.readouterr().out)
        assert tree["name"] == "request"
        assert tree["children"]

    def test_repro_trace_refuses_a_trace_id_with_a_newline(
        self, tmp_path, capsys
    ):
        assert cli.main(["trace", "abc\n", "--trace-dir",
                         str(tmp_path)]) == 2
        assert "neither a trace file nor a valid trace id" in \
            capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_repro_trace_missing_trace_fails(self, tmp_path, capsys):
        assert cli.main(
            ["trace", "deadbeef00000000", "--trace-dir", str(tmp_path)]
        ) == 1
        assert "no trace at" in capsys.readouterr().err

    def test_serve_logs_structured_error_records(self, capsys,
                                                 monkeypatch):
        lines = io.StringIO("bogus line-with=junk\n")
        monkeypatch.setattr("sys.stdin", lines)
        try:
            cli.main(["serve"])
        finally:
            configure_logging(level="info")
        captured = capsys.readouterr()
        envelope = json.loads(captured.out.splitlines()[0])
        assert envelope["error"] == "bad_request"
        # the stderr line is a log record now, not a bare print
        assert "WARNING" in captured.err
        assert "repro.serve" in captured.err
        assert "kind=bad_request" in captured.err

    def test_serve_log_json_emits_json_records(self, capsys, monkeypatch):
        lines = io.StringIO("bogus line-with=junk\n")
        monkeypatch.setattr("sys.stdin", lines)
        try:
            cli.main(["serve", "--log-json"])
        finally:
            configure_logging(level="info")
        err_lines = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("{")
        ]
        record = json.loads(err_lines[0])
        assert record["level"] == "WARNING"
        assert record["logger"] == "repro.serve"
        assert record["kind"] == "bad_request"


class LoopHistograms(MetricsRegistry):
    """The registry's histograms as they were first written: every
    observation walks all the buckets, adding itself to each one that
    holds it (the reference the bisecting registry is pinned to)."""

    def histogram(self, name, value, buckets=DEFAULT_BUCKETS) -> None:
        value = float(value)
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                bounds = tuple(sorted(float(b) for b in buckets))
                hist = self._histograms[name] = {
                    "buckets": bounds,
                    "counts": [0] * len(bounds),
                    "sum": 0.0,
                    "count": 0,
                }
            for index, bound in enumerate(hist["buckets"]):
                if value <= bound:
                    hist["counts"][index] += 1
            hist["sum"] += value
            hist["count"] += 1

    def histogram_stats(self, name) -> dict | None:
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                return None
            return {
                "count": hist["count"],
                "sum_s": hist["sum"],
                "buckets": {
                    f"{bound:g}": count
                    for bound, count in zip(hist["buckets"], hist["counts"])
                },
            }


OBSERVATIONS = st.lists(st.one_of(
    st.floats(),  # NaN, +-inf, negatives, subnormals
    st.sampled_from(DEFAULT_BUCKETS),  # exact bounds
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0,
                     0.0, -1.0, 1e-300, 10.000000000000002]),
), max_size=40)


# ----------------------------------------------------------------------
class TestMetricsRegistry:
    @settings(max_examples=200, deadline=None)
    @given(values=OBSERVATIONS, other=OBSERVATIONS)
    def test_histograms_match_the_bucket_loop(self, values, other):
        """``bisect`` alone would file NaN into the first bucket; the
        loop counts it in none."""
        registries = MetricsRegistry(), LoopHistograms()
        for metrics in registries:
            for value in values:
                metrics.histogram("span.request", value)
            for value in other:
                metrics.histogram("custom", value, buckets=(5, 0.5, -1))
        fast, loop = registries
        for name in ("span.request", "custom", "never"):
            assert repr(fast.histogram_stats(name)) == \
                repr(loop.histogram_stats(name))
        assert repr(fast.snapshot()) == repr(loop.snapshot())
        assert fast.render_prometheus() == loop.render_prometheus()
        assert fast.summary_lines() == loop.summary_lines()

    def test_histogram_stats_buckets_are_cumulative(self):
        metrics = MetricsRegistry()
        for value in (0.0005, 0.003, 0.003, 2.0):
            metrics.histogram("span.request", value)
        stats = metrics.histogram_stats("span.request")
        assert stats["count"] == 4
        assert stats["sum_s"] == pytest.approx(2.0065)
        assert stats["buckets"]["0.001"] == 1
        assert stats["buckets"]["0.005"] == 3
        assert stats["buckets"]["10"] == 4

    def test_prometheus_rendering_covers_every_instrument(self):
        metrics = MetricsRegistry()
        metrics.inc("frontend.requests", 3)
        metrics.gauge("frontend.queue_depth", 2)
        metrics.histogram("span.request", 0.004)
        text = metrics.render_prometheus()
        assert "# TYPE repro_frontend_requests_total counter" in text
        assert "repro_frontend_requests_total 3" in text
        assert "# TYPE repro_frontend_queue_depth gauge" in text
        assert "summary" not in text
        assert 'repro_span_request_seconds_bucket{le="0.005"} 1' in text
        assert 'repro_span_request_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_span_request_seconds_count 1" in text
        assert text.endswith("\n")

    def test_snapshot_holds_three_instrument_kinds(self):
        metrics = MetricsRegistry()
        metrics.inc("service.requests")
        metrics.gauge("frontend.queue_depth", 1)
        metrics.histogram("span.request", 0.002)
        snapshot = metrics.snapshot()
        assert list(snapshot) == ["counters", "gauges", "histograms"]
        assert snapshot["histograms"]["span.request"]["count"] == 1
        assert not hasattr(metrics, "observe")

    def test_summary_lines_print_histogram_means(self):
        metrics = MetricsRegistry()
        metrics.inc("frontend.served", 2)
        metrics.gauge("frontend.queue_depth", 0)
        for value in (0.002, 0.004):
            metrics.histogram("span.request", value)
        assert metrics.summary_lines() == [
            "frontend.served 2",
            "frontend.queue_depth 0",
            "span.request count=2 mean=3.0ms",
        ]

    def test_prometheus_names_are_sanitised(self):
        metrics = MetricsRegistry()
        metrics.inc("service.cache-hits")
        text = metrics.render_prometheus()
        assert "repro_service_cache_hits_total 1" in text

    def test_snapshot_under_concurrent_writers_hammer(self):
        """N writer threads inc/histogram/gauge while the main thread
        snapshots; no exceptions, counters monotone."""
        metrics = MetricsRegistry()
        stop = threading.Event()
        snapped = threading.Event()
        errors = []
        per_thread = 3000
        threads = 6

        def writer(index):
            try:
                for i in range(per_thread):
                    if i == per_thread // 2:
                        # Writers can outrun the main thread's first
                        # read: hold them mid-stream until one is in.
                        snapped.wait(30)
                    metrics.inc("hammer.counter")
                    metrics.histogram("hammer.hist", i * 1e-6)
                    metrics.gauge("hammer.gauge", i)
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        workers = [
            threading.Thread(target=writer, args=(n,))
            for n in range(threads)
        ]
        for worker in workers:
            worker.start()
        last = 0
        snapshots = 0
        while any(w.is_alive() for w in workers):
            snapshot = metrics.snapshot()
            metrics.render_prometheus()
            current = snapshot["counters"].get("hammer.counter", 0)
            assert current >= last, "counter went backwards"
            last = current
            snapshots += 1
            snapped.set()
        for worker in workers:
            worker.join()
        assert not errors
        assert snapshots > 0
        final = metrics.snapshot()
        assert final["counters"]["hammer.counter"] == threads * per_thread
        assert final["histograms"]["hammer.hist"]["count"] == \
            threads * per_thread
