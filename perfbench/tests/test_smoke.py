"""Tiny-size runs of every workload, end to end and traced, all checks on."""

from __future__ import annotations

import json
import os

import pytest

from perfbench import run, workloads
from perfbench.layers import metric_names

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def _declared(kind: str):
    return {entry["name"]: entry["unit"] for entry in BENCHMARK[kind]}


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload: fewer builds, short episodes, a small
    history (still longer than the downsample horizon)."""
    for cls in workloads.WORKLOADS.values():
        monkeypatch.setattr(cls, "setups", 2)
        monkeypatch.setattr(cls, "check_steps", 4)
    monkeypatch.setattr(workloads, "HISTORY_S", 2 * 3600)
    monkeypatch.setattr(workloads, "HISTORY_NODES", 2)
    monkeypatch.setattr(workloads, "HISTORY_STEP_S", 60)


def _result(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1])


def test_declared_workloads_are_the_implemented_ones():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_end_to_end_run_reports_every_metric_and_passes_its_checks(
        name, tiny, capsys):
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0.5",
                     "--trace", "0"])
    result = _result(capsys)
    assert code == 0 and result["correct"], result
    assert result["failed"] == 0 and result["attempted"] > 0
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values()), result


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_metric(name, tiny, capsys):
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0.5",
                     "--trace", "1"])
    result = _result(capsys)
    assert code == 0 and result["correct"], result
    assert tuple(result["metrics"]) == metric_names()
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == _declared("per_layer")
    metrics = result["metrics"]
    assert metrics["pmag.scrape.scrape_once.calls"]["value"] > 0
    assert 0.0 <= metrics["unattributed_share"]["value"] < 1.0
    assert metrics["trace_overhead_ratio"]["value"] > 0


def test_profile_variable_is_neutralised(tiny, capsys, monkeypatch):
    monkeypatch.setenv(run.PROFILE_ENV, "sharded")
    code = run.main(["--workload", "sgx-host", "--seed", "1", "--seconds", "0.2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "ignored TEEMON_TEST_PROFILE='sharded'" in out


def test_pinned_config_overrides_every_profile_default(monkeypatch):
    monkeypatch.setenv(run.PROFILE_ENV, "federated")
    config = workloads.pinned_config()
    assert config.storage_shards == 1
    assert config.enable_wal is False
    assert config.storage_executor_workers == 0
    assert config.remote_write_frame_samples == 500
    assert config.enable_tracing is False
