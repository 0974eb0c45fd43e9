"""Tests for the per-table experiment harnesses (small-scale runs)."""
import tempfile
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

from repro.core import OnlineSTL
from repro.experiments.grid import BATCH_ALGOS, decompose_cell, evaluate_cell, run_grid
from repro.experiments.table1 import (
    PAPER_TIERS,
    format_table1,
    measure_batch_algorithm,
    measure_online_stl,
    run_table1,
)
from repro.experiments.table2 import PAPER_TABLE2, Table2Row, format_table2
from repro.experiments.table3 import (
    DATASETS,
    PAPER_MASE,
    PAPER_SMOOTH,
    format_table3,
    load_real_dataset,
    run_table3,
    table3_cells,
)
from repro.experiments.table4 import (
    PAPER_TABLE4,
    format_table4,
    load_synthetic,
    run_table4,
    table4_cells,
)
from repro.streaming.throughput import (
    ThroughputResult,
    measure_streaming_throughput,
    state_bytes_per_key,
)


class TestTable1Harness:
    def test_online_stl_row(self):
        row = measure_online_stl(24, budget_seconds=0.2)
        assert row.algorithm == "OnlineSTL"
        assert row.throughput_per_sec > 1000  # O(1) updates are fast
        assert row.points_measured > 100

    def test_batch_row(self):
        row = measure_batch_algorithm("STL", 24, budget_seconds=0.5)
        assert row.algorithm == "STL"
        assert row.throughput_per_sec > 0
        assert row.paper_tier == "O(100)"

    def test_paper_tiers_complete(self):
        assert set(PAPER_TIERS) == {
            "STL", "MSTL", "TBATS", "STR", "SSA",
            "RobustSTL", "Fast-RobustSTL", "OnlineSTL",
        }

    @pytest.mark.slow
    def test_run_table1_small(self):
        rows = run_table1(
            seasonality=24,
            budget_seconds=0.5,
            algorithms=["OnlineSTL", "STL", "SSA"],
        )
        assert [r.algorithm for r in rows] == ["OnlineSTL", "STL", "SSA"]
        text = format_table1(rows)
        assert "OnlineSTL" in text and "paper tier" in text

    @pytest.mark.slow
    def test_online_stl_dominates_batch(self):
        """The paper's headline claim at small scale: OnlineSTL is orders of
        magnitude faster than the online counterpart of batch STL."""
        online = measure_online_stl(48, budget_seconds=0.3)
        batch = measure_batch_algorithm("STL", 48, budget_seconds=1.0)
        assert online.throughput_per_sec > 50 * batch.throughput_per_sec


class TestGrid:
    def test_decompose_cell_online_stl(self):
        values, periods, _ = load_synthetic("paper-synthetic")
        d = decompose_cell(values, periods, "OnlineSTL", "online", max_online_points=None)
        assert d.trend.shape == values.shape

    def test_decompose_cell_bad_mode(self):
        values, periods, _ = load_synthetic("paper-synthetic")
        with pytest.raises(ValueError):
            decompose_cell(values, periods, "stl", "sideways", max_online_points=None)

    def test_evaluate_cell_with_truth(self):
        values, periods, truth = load_synthetic("paper-synthetic")
        row = evaluate_cell(
            "paper-synthetic", values, periods, "OnlineSTL", "online", truth, None
        )
        assert np.isfinite(row["mase_s0"])
        assert np.isfinite(row["mase_s1"])
        assert np.isfinite(row["mase_trend"])
        assert np.isfinite(row["mase_res"])

    def test_evaluate_cell_without_truth(self):
        values, periods, truth = load_real_dataset("Elecequip")
        assert truth is None
        row = evaluate_cell(
            "Elecequip", values, periods, "stl", "offline", None, None
        )
        assert np.isfinite(row["mase_res"])
        assert np.isnan(row["mase_s0"])

    def test_run_grid_sequential(self):
        cells = [
            {"dataset": "Elecequip", "algorithm": "stl", "mode": "offline"},
            {"dataset": "Elecequip", "algorithm": "OnlineSTL", "mode": "online"},
        ]
        res = run_grid(None, cells, load_real_dataset, max_online_points=10)
        assert len(res) == 2
        assert set(res["algorithm"]) == {"stl", "OnlineSTL"}

    @pytest.mark.spark
    def test_run_grid_spark_matches_sequential(self, spark):
        cells = [
            {"dataset": "Elecequip", "algorithm": "stl", "mode": "offline"},
            {"dataset": "Elecequip", "algorithm": "SSA", "mode": "offline"},
            {"dataset": "Elecequip", "algorithm": "OnlineSTL", "mode": "online"},
        ]
        seq = run_grid(None, cells, load_real_dataset, max_online_points=5)
        dist = run_grid(spark, cells, load_real_dataset, max_online_points=5)
        key = ["dataset", "algorithm", "mode"]
        seq = seq.sort_values(key).reset_index(drop=True)
        dist = dist.sort_values(key).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            seq[["mase_res", "log_smooth"]].round(9),
            dist[["mase_res", "log_smooth"]].round(9),
        )


class TestTable3Harness:
    def test_cells_cover_paper_grid(self):
        cells = table3_cells()
        assert len(cells) == 5 * (2 * len(BATCH_ALGOS) + 1)
        assert {c["dataset"] for c in cells} == set(DATASETS)

    def test_paper_constants_cover_all_cells(self):
        for ds in DATASETS:
            assert set(PAPER_MASE[ds]) == {*BATCH_ALGOS, "OnlineSTL"}
            assert set(PAPER_SMOOTH[ds]) == {*BATCH_ALGOS, "OnlineSTL"}

    def test_loader_unknown_dataset(self):
        with pytest.raises(KeyError):
            load_real_dataset("nope")

    @pytest.mark.slow
    def test_run_single_dataset_sequential(self):
        res = run_table3(None, datasets=["Elecequip"], max_online_points=8)
        assert len(res) == 11
        assert res["mase_res"].notna().all()
        text = format_table3(res)
        assert "MASE of residual" in text


class TestTable4Harness:
    def test_cells(self):
        cells = table4_cells()
        assert len(cells) == 11

    def test_paper_constants_shape(self):
        assert len(PAPER_TABLE4) == 11
        for v in PAPER_TABLE4.values():
            assert len(v) == 4

    def test_loader_truth_consistency(self):
        values, periods, truth = load_synthetic("paper-synthetic")
        assert periods == [25, 50]
        np.testing.assert_allclose(
            values - truth["trend"] - truth["seasonal_0"] - truth["seasonal_1"],
            values - truth["trend"] - truth["seasonal_0"] - truth["seasonal_1"],
        )

    def test_loader_unknown(self):
        with pytest.raises(KeyError):
            load_synthetic("other")

    @pytest.mark.spark
    @pytest.mark.slow
    def test_run_table4_spark_small(self, spark):
        res = run_table4(spark, max_online_points=5)
        assert len(res) == 11
        text = format_table4(res)
        assert "OnlineSTL" in text


class TestTable2Harness:
    def test_state_bytes_per_key_is_the_stored_blob(self):
        """The state column reports the encoded blob: the model's floats
        plus a small header, not the float count alone."""
        model = OnlineSTL([100])
        model.initialize(np.zeros(model.window))
        floats_bytes = 8 * model.state_floats()
        assert floats_bytes < state_bytes_per_key(100) <= floats_bytes + 256

    def test_format_prints_state_store_bytes(self):
        res = ThroughputResult(
            seasonality=1000,
            n_keys=64,
            cores=4,
            total_rows_per_sec=8000.0,
            rows_per_sec_per_core=2000.0,
            state_bytes_per_key=88104,
            state_store_bytes_per_key=307123.0,
            total_state_mb=5.4,
            jvm_heap_mb=900.0,
            batches_measured=3,
        )
        text = format_table2([Table2Row(res, *PAPER_TABLE2[1000])])
        header, row = text.splitlines()
        assert "store/key" in header
        assert "88104" in row and "307123" in row
        assert "batches" in header
        assert row.split()[7] == "3"

    @pytest.mark.spark
    def test_no_steady_batch_raises(self, spark):
        """A run that measures no steady batch raises instead of reporting
        a rate of 0, and leaves no checkpoint directory behind."""
        tmp = Path(tempfile.gettempdir())
        before = set(tmp.glob("repro-ckpt-*"))
        with pytest.raises(RuntimeError, match="no steady batch"):
            measure_streaming_throughput(
                spark, seasonality=10, n_keys=4, run_seconds=0.0, rows_per_batch=1000
            )
        assert set(tmp.glob("repro-ckpt-*")) <= before
