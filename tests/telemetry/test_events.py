"""The structured event bus: envelope, catalogue, ring, sinks, postmortem.

Three contracts under test: (1) every emitted event validates against the
version-1 envelope schema with strictly increasing sequence numbers; (2)
the flight recorder is bounded yet always contiguous, so a postmortem
tail provably has no gaps; (3) event production never changes engine
results — graph digests are bit-identical with consumers attached, for
any job count.
"""

import io
import json

import pytest

from repro import telemetry
from repro.engine.shard import graph_digest
from repro.fairness.checker import check_fair_termination_streaming
from repro.telemetry import events
from repro.telemetry.schema import (
    EventSchemaError,
    validate_event,
    validate_event_stream,
    validate_postmortem,
)
from repro.telemetry.sinks import NdjsonEventSink, write_postmortem
from repro.ts import explore
from repro.workloads import counter_grid, nested_rings


class TestEnvelope:
    def test_emit_stamps_the_full_envelope(self):
        event = events.emit("run.start", command="explore", pid=1)
        assert set(event) == {"v", "seq", "ts", "mono", "event", "data"}
        assert event["v"] == events.EVENT_VERSION
        assert event["seq"] == 1
        assert event["event"] == "run.start"
        assert event["data"] == {"command": "explore", "pid": 1}
        validate_event(event)

    def test_sequence_numbers_are_strictly_increasing(self):
        seqs = [events.emit("run.start")["seq"] for _ in range(5)]
        assert seqs == [1, 2, 3, 4, 5]

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError, match="not in the catalogue"):
            events.emit("explore.made_up")

    def test_kind_objects_and_names_are_interchangeable(self):
        by_object = events.emit(events.EXPLORE_SUMMARY, states=1)
        by_name = events.emit("explore.summary", states=1)
        assert by_object["event"] == by_name["event"] == "explore.summary"

    def test_every_catalogue_entry_is_documented_and_dotted(self):
        for name, kind in events.CATALOGUE.items():
            assert kind.name == name
            assert "." in name and name == name.lower()
            assert kind.doc.strip()


class TestFlightRecorder:
    def test_ring_is_bounded_and_contiguous(self):
        telemetry.reset_events(capacity=8)
        for _ in range(20):
            events.emit("run.start")
        tail = telemetry.flight_recorder().tail()
        assert len(tail) == 8
        seqs = [event["seq"] for event in tail]
        assert seqs == list(range(13, 21))  # contiguous, most recent last

    def test_tail_n_returns_most_recent(self):
        for _ in range(5):
            events.emit("run.start")
        tail = telemetry.flight_recorder().tail(2)
        assert [event["seq"] for event in tail] == [4, 5]

    def test_capacity_from_environment(self, monkeypatch):
        monkeypatch.setenv(events.RING_ENV, "3")
        telemetry.reset_events()
        assert telemetry.flight_recorder().capacity == 3
        for _ in range(9):
            events.emit("run.start")
        assert len(telemetry.flight_recorder().tail()) == 3

    def test_reset_restarts_sequence_numbers(self):
        events.emit("run.start")
        events.emit("run.start")
        telemetry.reset_events()
        assert telemetry.last_seq() == 0
        assert events.emit("run.start")["seq"] == 1


class TestSubscribers:
    def test_subscribers_receive_every_event(self):
        received = []
        telemetry.subscribe(received.append)
        try:
            events.emit("run.start")
            events.emit("run.end")
        finally:
            telemetry.unsubscribe(received.append)
        events.emit("run.start")  # after unsubscribe: not delivered
        assert [event["event"] for event in received] == ["run.start", "run.end"]

    def test_failing_subscriber_never_breaks_emission(self):
        def boom(event):
            raise RuntimeError("sink failure")

        received = []
        telemetry.subscribe(boom)
        telemetry.subscribe(received.append)
        try:
            event = events.emit("run.start")
        finally:
            telemetry.unsubscribe(boom)
            telemetry.unsubscribe(received.append)
        assert event["seq"] == 1
        assert received == [event]

    def test_live_tracks_subscribers_and_taps(self):
        assert not events.live()
        sink = []
        telemetry.subscribe(sink.append)
        assert events.live()
        telemetry.unsubscribe(sink.append)
        assert not events.live()
        events.add_tap()
        assert events.live()
        events.remove_tap()
        assert not events.live()


class TestTickers:
    def test_round_ticker_emits_first_round_then_throttles(self, monkeypatch):
        monkeypatch.setattr(events, "ROUND_INTERVAL_S", 3600.0)
        ticker = events.round_ticker()
        for round_depth in range(6):
            ticker.tick(round_depth, pending=3, states=9)
        tail = telemetry.flight_recorder().tail()
        assert len(tail) == 1
        assert tail[0]["data"] == {"round": 0, "pending": 3, "states": 9}


class TestValidateEvent:
    def _good(self):
        return events.emit("run.start", command="explore")

    def test_rejects_wrong_version(self):
        event = dict(self._good(), v=99)
        with pytest.raises(EventSchemaError, match=r"\.v"):
            validate_event(event)

    def test_rejects_missing_and_extra_keys(self):
        event = self._good()
        missing = {key: value for key, value in event.items() if key != "mono"}
        with pytest.raises(EventSchemaError, match="missing"):
            validate_event(missing)
        with pytest.raises(EventSchemaError, match="unknown"):
            validate_event(dict(event, bogus=1))

    def test_rejects_unknown_event_name(self):
        event = dict(self._good(), event="explore.not_a_thing")
        with pytest.raises(EventSchemaError, match="catalogue"):
            validate_event(event)

    def test_rejects_bad_sequence_numbers(self):
        for bad in (0, -3, "1", True):
            with pytest.raises(EventSchemaError, match="seq"):
                validate_event(dict(self._good(), seq=bad))

    def test_rejects_non_scalar_data(self):
        event = dict(self._good(), data={"nested": {"too": "deep"}})
        with pytest.raises(EventSchemaError, match="scalar"):
            validate_event(event)

    def test_allows_lists_of_scalars(self):
        validate_event(dict(self._good(), data={"labels": ["a", "b", 3]}))


class TestNdjsonSink:
    def test_every_line_parses_and_validates_independently(self, tmp_path):
        path = tmp_path / "events.ndjson"
        sink = NdjsonEventSink(path)
        telemetry.subscribe(sink)
        try:
            events.emit("run.start", command="explore")
            events.emit("explore.summary", states=5, complete=True)
            events.emit("run.end", exit_code=0)
        finally:
            sink.close()
        text = path.read_text()
        lines = [line for line in text.splitlines() if line]
        assert len(lines) == 3
        for line in lines:
            validate_event(json.loads(line))  # independently parseable
        parsed = validate_event_stream(text)
        assert [event["event"] for event in parsed] == [
            "run.start", "explore.summary", "run.end",
        ]
        assert sink.written == 3

    def test_appends_across_sinks(self, tmp_path):
        path = tmp_path / "events.ndjson"
        first = NdjsonEventSink(path)
        first({"v": events.EVENT_VERSION, "seq": 1, "ts": 0, "mono": 0,
               "event": "run.start", "data": {}})
        first.close()
        second = NdjsonEventSink(path)
        second({"v": events.EVENT_VERSION, "seq": 2, "ts": 0, "mono": 0,
                "event": "run.end", "data": {}})
        second.close()
        assert len(validate_event_stream(path.read_text())) == 2

    def test_stream_validator_rejects_out_of_order_lines(self):
        lines = [
            json.dumps({"v": events.EVENT_VERSION, "seq": 5, "ts": 0,
                        "mono": 0, "event": "run.start", "data": {}}),
            json.dumps({"v": events.EVENT_VERSION, "seq": 4, "ts": 0,
                        "mono": 0, "event": "run.end", "data": {}}),
        ]
        with pytest.raises(EventSchemaError, match="increase"):
            validate_event_stream("\n".join(lines))

    def test_stream_validator_rejects_torn_lines(self):
        with pytest.raises(EventSchemaError, match="parseable"):
            validate_event_stream('{"v": 1, "seq":')


class TestEngineEmission:
    def test_explore_emits_a_summary(self):
        graph = explore(counter_grid(3, 3))
        tail = telemetry.flight_recorder().tail()
        summaries = [e for e in tail if e["event"] == "explore.summary"]
        assert summaries
        data = summaries[-1]["data"]
        assert data["states"] == len(graph)
        assert data["complete"] is True
        assert data["system"] == getattr(graph.system, "name",
                                         type(graph.system).__name__)

    def test_serial_explore_heartbeats_when_live(self, monkeypatch):
        # A default explore (no jobs) beats through the round ticker.
        monkeypatch.setattr(events, "ROUND_INTERVAL_S", 0.0)
        received = []
        telemetry.subscribe(received.append)
        try:
            graph = explore(counter_grid(5, 5))
        finally:
            telemetry.unsubscribe(received.append)
        rounds = [e for e in received if e["event"] == "explore.round"]
        assert rounds, "a live consumer must see exploration heartbeats"
        states = [e["data"]["states"] for e in rounds]
        assert states == sorted(states)
        assert states[-1] <= len(graph)
        assert {frozenset(e["data"]) for e in rounds} == {
            frozenset({"round", "pending", "states"})
        }

    def test_sharded_explore_emits_round_events(self, monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")
        monkeypatch.setattr(events, "ROUND_INTERVAL_S", 0.0)
        explore(counter_grid(4, 4), n_jobs=2)
        rounds = [
            e for e in telemetry.flight_recorder().tail()
            if e["event"] == "explore.round"
        ]
        assert rounds
        depths = [e["data"]["round"] for e in rounds]
        assert depths == sorted(depths)
        for event in rounds:
            validate_event(event)

    def test_streaming_decide_emits_stages_and_verdict(self):
        result = check_fair_termination_streaming(nested_rings(2))
        tail = telemetry.flight_recorder().tail()
        stages = [e for e in tail if e["event"] == "stream.stage"]
        verdicts = [e for e in tail if e["event"] == "decide.verdict"]
        assert stages and verdicts
        assert stages[0]["data"]["stage"] == 1
        verdict = verdicts[-1]["data"]
        assert verdict["streaming"] is True
        assert verdict["fairly_terminates"] == result.fairly_terminates
        assert verdict["states"] == result.states_explored

    def test_graphstore_outcomes_cold_then_hit(self, tmp_path):
        from repro.engine.graphstore import explore_with_cache
        from repro.gcl.program import parse_program

        program = parse_program(
            "program T var x := 0 do a: x < 3 -> x := x + 1 od"
        )
        explore_with_cache(program, cache_dir=tmp_path)
        explore_with_cache(program, cache_dir=tmp_path)
        outcomes = [
            e["data"] for e in telemetry.flight_recorder().tail()
            if e["event"] == "graphstore.outcome"
        ]
        assert [o["kind"] for o in outcomes] == ["cold", "hit"]
        assert outcomes[0]["hit"] is False
        assert outcomes[1]["hit"] is True

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_digests_bit_identical_with_events_on(self, jobs, monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_PARALLEL", "1")
        make = lambda: counter_grid(5, 5)
        baseline = graph_digest(explore(make(), n_jobs=jobs))
        sink = []
        telemetry.subscribe(sink.append)
        events.add_tap()  # heartbeats on, like a live --expose run
        try:
            with_events = graph_digest(explore(make(), n_jobs=jobs))
        finally:
            events.remove_tap()
            telemetry.unsubscribe(sink.append)
        assert with_events == baseline

    def test_observer_adaptor_reports_per_round_progress(self):
        observer = telemetry.ExplorationEventObserver()
        graph = explore(counter_grid(4, 4), observer=observer)
        final = observer.finish()
        progress = [
            e for e in telemetry.flight_recorder().tail()
            if e["event"] == "explore.progress"
        ]
        assert len(progress) >= 2  # one per completed BFS round + finish
        assert final["data"]["states"] == len(graph)
        depths = [e["data"]["depth"] for e in progress]
        assert depths == sorted(depths)


class TestPostmortem:
    def _crash(self):
        try:
            raise RuntimeError("exploration exploded")
        except RuntimeError as error:
            return error

    def test_document_validates_and_tail_is_contiguous(self, tmp_path):
        telemetry.reset_events(capacity=4)
        telemetry.enable()
        for _ in range(9):
            events.emit("run.start", command="decide")
        path = write_postmortem(
            self._crash(), command="decide", argv=["decide", "x.gcl"],
            directory=tmp_path,
        )
        document = json.loads(open(path).read())
        validate_postmortem(document)
        assert document["command"] == "decide"
        assert document["error"]["type"] == "RuntimeError"
        assert "exploration exploded" in document["error"]["message"]
        assert any(
            "RuntimeError" in line for line in document["error"]["traceback"]
        )
        seqs = [event["seq"] for event in document["events"]]
        assert seqs == [6, 7, 8, 9]  # the ring's contiguous suffix

    def test_validator_rejects_a_gap_in_the_tail(self, tmp_path):
        telemetry.enable()
        for _ in range(4):
            events.emit("run.start")
        path = write_postmortem(self._crash(), directory=tmp_path)
        document = json.loads(open(path).read())
        del document["events"][1]  # tamper: make a seq gap
        with pytest.raises(EventSchemaError, match="contiguous"):
            validate_postmortem(document)

    def test_validator_rejects_missing_keys(self, tmp_path):
        path = write_postmortem(self._crash(), directory=tmp_path)
        document = json.loads(open(path).read())
        del document["metrics"]
        with pytest.raises(EventSchemaError, match="missing"):
            validate_postmortem(document)
