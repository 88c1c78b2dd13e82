"""Tests for the benchmark harness (tables, persistence)."""

import json
import os

import pytest

from repro.bench.harness import ExperimentResult, format_table, save_result


@pytest.fixture
def result():
    return ExperimentResult(
        name="unit_test_result",
        title="Unit test table",
        rows=[
            {"a": 1, "b": 2.5},
            {"a": 2, "b": 0.000123, "c": "x"},
        ],
        meta={"seed": 7},
    )


class TestFormatting:
    def test_column_union_order(self, result):
        assert result.column_names() == ["a", "b", "c"]

    def test_table_contains_all_cells(self, result):
        table = result.table()
        assert "Unit test table" in table
        assert "2.5" in table
        assert "0.000123" in table

    def test_empty_rows(self):
        assert "(no rows)" in format_table("empty", [])

    def test_float_formatting(self):
        table = format_table("f", [{"x": 123456.0, "y": 1.23456}])
        assert "1.23e+05" in table or "123456" in table
        assert "1.235" in table


class TestPersistence:
    def test_save_and_reload(self, result, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        path = save_result(result)
        assert os.path.dirname(path) == str(tmp_path)
        with open(path) as f:
            payload = json.load(f)
        assert payload["name"] == "unit_test_result"
        assert payload["rows"] == result.rows
        assert payload["meta"] == {"seed": 7}
        out = capsys.readouterr().out
        assert "Unit test table" in out

    def test_save_silent(self, result, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        save_result(result, print_table=False)
        assert "Unit test table" not in capsys.readouterr().out
