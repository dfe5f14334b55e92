"""Experiment E15 — observability layer: tracing at scale.

The §3.2.1 monitoring story only works if observation is cheap enough
to leave on.  This benchmark checks the mechanism that bounds a long
run's memory: a bounded ring buffer caps resident records while the
streaming JSONL export still captures everything, byte-equal to a batch
export from an unbounded tracer.  It asserts exact counts and bytes, no
timings.  (Trace queries are one scan since facade 7.0.0;
EXPERIMENTS.md E15 keeps the retired per-key index's figures.)
"""

from benchmarks.conftest import print_table
from repro.sim.trace import Tracer, load_trace

RECORDS = 100_000


def test_ring_buffer_and_streaming_export(benchmark, tmp_path):
    def run():
        unbounded = Tracer(clock=lambda: 0)
        bounded = Tracer(clock=lambda: 0, maxlen=1_000)
        stream_path = tmp_path / "stream.jsonl"
        with bounded.stream_jsonl(str(stream_path)) as stream:
            for i in range(RECORDS):
                details = {"time": i, "seq": i}
                unbounded.record("cat", f"ev{i % 5}", **details)
                bounded.record("cat", f"ev{i % 5}", **details)
        return unbounded, bounded, stream, stream_path

    unbounded, bounded, stream, stream_path = benchmark.pedantic(
        run, rounds=1, iterations=1)
    batch_path = tmp_path / "batch.jsonl"
    unbounded.to_jsonl(str(batch_path))

    assert len(bounded) == 1_000
    assert bounded.dropped == RECORDS - 1_000
    assert stream.written == RECORDS
    assert stream_path.read_bytes() == batch_path.read_bytes()
    reloaded = load_trace(str(stream_path), maxlen=1_000)
    assert reloaded.records == bounded.records
    print_table(
        "E15b — bounded tracer + streaming export",
        ["metric", "value"],
        [("records emitted", RECORDS),
         ("resident in ring", len(bounded)),
         ("evicted", bounded.dropped),
         ("streamed to disk", stream.written),
         ("stream == batch export", "yes")])
