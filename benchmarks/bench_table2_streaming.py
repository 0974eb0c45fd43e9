"""Table 2 benchmark — distributed streaming throughput vs seasonality.

Each parametrized case runs the stateful Structured Streaming query for a
short fixed window and records steady-state rows/s (total and per core)
plus exact per-key state size in ``extra_info``. The full-length sweep
(longer runs, seasonality 10000) is ``jobs/run_table2.py``.
"""
import pytest

from repro.experiments.table2 import PAPER_TABLE2, format_table2, run_table2

_ROWS = []

CASES = [10, 100, 1000, 10000]


@pytest.mark.spark
@pytest.mark.slow
@pytest.mark.benchmark(group="table2")
@pytest.mark.parametrize("seasonality", CASES)
def test_bench_streaming_throughput(benchmark, spark, seasonality):
    def run():
        rows = run_table2(spark, seasonalities=[seasonality])
        _ROWS.extend(rows)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    res = rows[0].result
    benchmark.extra_info["rows_per_sec_total"] = res.total_rows_per_sec
    benchmark.extra_info["rows_per_sec_per_core"] = res.rows_per_sec_per_core
    benchmark.extra_info["state_bytes_per_key"] = res.state_bytes_per_key
    benchmark.extra_info["state_store_bytes_per_key"] = res.state_store_bytes_per_key
    benchmark.extra_info["paper"] = "/".join(PAPER_TABLE2[seasonality])


def teardown_module(_mod):
    if _ROWS:
        from benchmarks.bench_table1_throughput import _write_result

        header = "=== Table 2 (streaming, scaled keys) ==="
        text = format_table2(_ROWS)
        print("\n" + header + "\n" + text)
        _write_result("table2.txt", header + "\n" + text)
