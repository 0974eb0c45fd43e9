"""Distributed dataflow substrate: Structured Streaming keyed decomposition
(the paper's Flink deployment), event sources, and throughput harness."""
from repro.streaming.keyed_decompose import (
    STATE_SCHEMA,
    batch_decompose,
    output_schema,
    size_partitions,
    streaming_decompose,
)
from repro.streaming.source import EVENT_SCHEMA, rate_events, replay_files
from repro.streaming.state_codec import KeyState, decode, encode
from repro.streaming.throughput import (
    ThroughputResult,
    measure_streaming_throughput,
    state_bytes_per_key,
)

__all__ = [
    "STATE_SCHEMA",
    "batch_decompose",
    "output_schema",
    "size_partitions",
    "streaming_decompose",
    "EVENT_SCHEMA",
    "rate_events",
    "replay_files",
    "KeyState",
    "decode",
    "encode",
    "ThroughputResult",
    "measure_streaming_throughput",
    "state_bytes_per_key",
]
