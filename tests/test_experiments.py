"""Tests for the experiment harness and drivers (tiny scale)."""

import pytest

from repro.experiments import fig1, fig5, fig6, fig7, fig8, fig9, tables
from repro.experiments.harness import ExperimentContext, format_table
from repro.obs.report import _jsonable


@pytest.fixture(scope="module")
def tiny_ctx():
    """Very small campaign: two datasets, shrunken graphs and walks."""
    return ExperimentContext(
        seed=3, size_factor=0.1, walk_factor=0.02, datasets=["TT", "CW"]
    )


class TestHarness:
    def test_graph_cached(self, tiny_ctx):
        assert tiny_ctx.graph("TT") is tiny_ctx.graph("TT")

    def test_default_walks_scaled(self, tiny_ctx):
        from repro.graph import dataset

        assert tiny_ctx.default_walks("TT") == max(
            256, int(dataset("TT").default_walks * 0.02)
        )

    def test_flashwalker_config_cw_multiplier(self, tiny_ctx):
        tt = tiny_ctx.flashwalker_config("TT")
        cw = tiny_ctx.flashwalker_config("CW")
        assert cw.subgraph_bytes == 2 * tt.subgraph_bytes

    def test_run_both_engines(self, tiny_ctx):
        fw = tiny_ctx.run_flashwalker("TT", num_walks=400)
        gw = tiny_ctx.run_graphwalker("TT", num_walks=400)
        assert fw.total_walks == gw.total_walks == 400

    def test_run_drunkardmob(self, tiny_ctx):
        dm = tiny_ctx.run_drunkardmob("TT", num_walks=300)
        assert dm.total_walks == 300


class TestFormatTable:
    def test_alignment(self):
        rows = [{"a": 1, "bb": "x"}, {"a": 22, "bb": "yyy"}]
        out = format_table(rows)
        lines = out.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1

    def test_empty(self):
        assert format_table([]) == "(no rows)"

    def test_float_formatting(self):
        out = format_table([{"v": 0.00001}, {"v": 123456.0}])
        assert "1e-05" in out


class TestDrivers:
    def test_fig1_rows(self, tiny_ctx):
        rows = fig1.run(tiny_ctx)
        assert {r["dataset"] for r in rows} == {"TT", "CW"}
        for r in rows:
            assert 0 <= r["load_graph_pct"] <= 100

    def test_fig5_rows_and_summary(self, tiny_ctx):
        rows = fig5.run(tiny_ctx, datasets=["TT"], fractions=(0.5, 1.0))
        assert len(rows) == 2
        s = fig5.summary(rows)
        assert s["min_speedup"] <= s["mean_speedup"] <= s["max_speedup"]

    def test_fig6_rows(self, tiny_ctx):
        rows = fig6.run(tiny_ctx, datasets=["TT"])
        r = rows[0]
        assert r["bw_improvement"] > 0
        assert r["traffic_reduction"] > 0

    def test_fig7_memory_sweep(self, tiny_ctx):
        rows = fig7.run(tiny_ctx, datasets=["TT"], memory_gb=(4, 16))
        assert [r["gw_memory_GB(paper)"] for r in rows] == [4, 16]

    def test_fig8_rows(self, tiny_ctx):
        rows = fig8.run(tiny_ctx, datasets=["TT"], rebins=10)
        r = rows[0]
        assert 0 < r["t90_frac"] <= 1.0
        assert r["peak_read_GBps"] >= 0

    def test_fig8_series_structure(self, tiny_ctx):
        curves = fig8.series(tiny_ctx, "TT", rebins=10)
        assert set(curves) >= {"flash_read", "flash_write", "channel", "progress"}

    def test_fig8_series_renders_reproducibly(self, tiny_ctx):
        """Two identical runs render the same artifact rows (the run
        result's repr names no memory address)."""
        a, b = (_jsonable(fig8.series(tiny_ctx, "TT", rebins=10)) for _ in range(2))
        assert a == b

    def test_fig9_stages(self, tiny_ctx):
        rows = fig9.run(tiny_ctx, datasets=["TT"], n_seeds=1)
        configs = [r["config"] for r in rows]
        assert configs == ["none", "WQ", "WQ+HS", "WQ+HS+SS"]
        none_row = rows[0]
        assert none_row["speedup_vs_none"] == pytest.approx(1.0)

    def test_tables_render(self, tiny_ctx):
        assert any(
            r["parameter"] == "derived: aggregate read BW"
            for r in tables.table_i_iii()
        )
        assert len(tables.table_ii()) == 10
        rows = tables.table_iv(tiny_ctx)
        assert len(rows) == 5


class TestRunnerCLI:
    def test_experiment_registry(self):
        from repro.experiments.runner import EXPERIMENTS

        assert set(EXPERIMENTS) == {
            "tables",
            "fig1",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "motivation",
        }
