import json
import os

import pytest

import benchlib
import run


class TestPercentileRule:
    def test_nearest_rank(self):
        values = list(range(1, 11))
        assert benchlib.percentile(values, 50) == 5
        assert benchlib.percentile(values, 90) == 9
        assert benchlib.percentile(values, 100) == 10
        assert benchlib.percentile([7.0], 99) == 7.0

    def test_empty_is_an_error(self):
        with pytest.raises(ValueError):
            benchlib.percentile([], 50)

    @pytest.mark.parametrize("n, tail", [
        (1, None), (19, None), (20, None), (39, None), (40, 75.0),
        (99, 75.0), (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0),
        (1000, 99.0)])
    def test_highest_percentile_with_ten_beyond(self, n, tail):
        assert benchlib.tail_percentile(n) == tail
        if tail is not None:
            assert benchlib.beyond(n, tail) >= benchlib.MIN_BEYOND

    def test_summary_reports_sample_count_and_tail(self):
        values = [float(v) for v in range(100)]
        summary = benchlib.summarize(values)
        assert summary["n"] == 100
        assert summary["median"] == 49.5
        assert summary["tail_p"] == 90.0
        assert summary["tail"] == 89.0
        assert "tail" not in benchlib.summarize(values[:30])

    def test_table_rows_carry_unit_and_count(self):
        table = benchlib.MetricTable()
        table.add_timing("lat_s", [float(v) for v in range(40)])
        names = [row[0] for row in table.rows]
        assert names == ["lat_s", "lat_s@p75"]
        assert all(row[2] == "s" and row[3] == 40 for row in table.rows)
        assert "n=40" in table.lines()[0]


class TestResultLine:
    def _result(self, **extra):
        result = {"failed": 0, "attempted": 3,
                  "end_to_end": {name: 1.5 for name in run.END_TO_END},
                  "per_layer": {"mc.checks": 153}}
        result.update(extra)
        return result

    def test_end_to_end_line_has_exactly_the_declared_metrics(self):
        line = run.result_line(self._result(), trace=False)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        assert set(line["metrics"]) == set(run.END_TO_END)
        assert line["metrics"]["cpu_s"]["unit"] == "s"

    def test_per_layer_line_fills_unmeasured_layers_with_zero(self):
        line = run.result_line(self._result(), trace=True)
        assert set(line["metrics"]) == set(run.PER_LAYER)
        assert line["metrics"]["mc.checks"]["value"] == 153.0
        assert line["metrics"]["serve.rejected"]["value"] == 0.0

    def test_failures_make_the_run_incorrect(self):
        line = run.result_line(self._result(failed=1), trace=False)
        assert line["correct"] is False and line["failed"] == 1

    def test_unregistered_metric_is_refused(self):
        result = self._result()
        result["end_to_end"]["surprise_s"] = 1.0
        with pytest.raises(benchlib.BenchError):
            run.result_line(result, trace=False)


def test_benchmark_json_matches_the_command():
    path = os.path.join(benchlib.ROOT, "BENCHMARK.json")
    with open(path) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER
