"""Parallel campaign executor: determinism, timeouts, crash recovery.

Workers are forked, so module-level scenarios and closures alike run in
the worker processes; only the results cross a pipe.
"""

import functools
import json
import os
import subprocess
import sys
import tempfile
import time

import pytest

import repro
from repro.core import DispatcherCosts, Periodic, Task
from repro.faults import Campaign, CampaignTimeoutError, run_parallel
from repro.obs.metrics import MetricsRegistry
from repro.system import HadesSystem


def metric_scenario(seed):
    """A cheap deterministic scenario with an embedded RunReport."""
    registry = MetricsRegistry()
    hits = registry.counter("x.hits")
    latency = registry.histogram("x.latency")
    for i in range(seed % 5 + 1):
        hits.inc()
        latency.observe(10 * i + seed)
    registry.gauge("x.depth").set(seed % 3)
    return {"value": seed * 2, "report": registry.snapshot(seed=seed)}


def bare_report_scenario(seed):
    registry = MetricsRegistry()
    registry.counter("y.count").inc(seed + 1)
    return registry.snapshot(seed=seed)


def system_scenario(seed):
    """An E9-style distributed run producing a system RunReport."""
    system = HadesSystem(node_ids=["a", "b"],
                         costs=DispatcherCosts.zero(), metrics=True)
    pipeline = Task("pipe", deadline=100_000,
                    arrival=Periodic(period=50_000), node_id="a")
    src = pipeline.code_eu("src", wcet=100)
    dst = pipeline.code_eu("dst", wcet=100, node_id="b")
    pipeline.precede(src, dst)
    system.register_periodic(pipeline, count=3 + seed % 3)
    system.run(until=300_000)
    return {"violations": system.monitor.count(),
            "report": system.run_report(seed=seed)}


def sleepy_scenario(seed):
    if seed == 3:
        time.sleep(60)
    return {"value": seed}


def crashing_scenario(seed):
    if seed == 2:
        os._exit(13)  # simulates an OOM-killed / segfaulted worker
    return {"value": seed}


def raising_scenario(seed):
    if seed == 1:
        raise ValueError("injected scenario bug")
    return {"value": seed}


def unpicklable_result_scenario(seed):
    return {"value": seed, "callback": lambda: seed}


def marking_crash_scenario(marker_dir, seed):
    """Leave one marker file per execution of a seed; seed 2 kills its
    worker process."""
    fd, _path = tempfile.mkstemp(prefix=f"seed{seed}-", dir=marker_dir)
    os.close(fd)
    if seed == 2:
        os._exit(13)
    return {"value": seed}


def assert_identical(serial, parallel):
    assert parallel.runs == serial.runs
    assert parallel.per_run == serial.per_run
    assert len(parallel.reports) == len(serial.reports)
    assert parallel.reports == serial.reports
    if serial.reports:
        assert (json.dumps(parallel.aggregate().to_dict())
                == json.dumps(serial.aggregate().to_dict()))


class TestDeterminism:
    def test_metric_scenario_identical_across_jobs(self):
        campaign = Campaign(metric_scenario, seeds=range(24))
        serial = campaign.run()
        for jobs in (1, 4):
            assert_identical(serial, campaign.run(jobs=jobs))

    def test_bare_report_scenario_identical(self):
        campaign = Campaign(bare_report_scenario, seeds=range(10))
        assert_identical(campaign.run(), campaign.run(jobs=3))

    def test_system_scenario_identical(self):
        campaign = Campaign(system_scenario, seeds=range(6))
        assert_identical(campaign.run(), campaign.run(jobs=2))

    def test_report_object_in_per_run_is_the_collected_one(self):
        result = Campaign(metric_scenario, seeds=range(4)).run(jobs=2)
        for run, report in zip(result.per_run, result.reports):
            assert run["report"] is report

    def test_explicit_chunk_size_and_uneven_split(self):
        campaign = Campaign(metric_scenario, seeds=range(7))
        serial = campaign.run()
        assert_identical(serial, campaign.run(jobs=2, chunk_size=3))
        assert_identical(serial, campaign.run(jobs=2, chunk_size=100))

    def test_run_parallel_entry_point(self):
        serial = Campaign(metric_scenario, seeds=range(5)).run()
        assert_identical(serial,
                         run_parallel(metric_scenario, range(5), jobs=2))


class TestFallbacks:
    def test_unpicklable_scenario_falls_back_to_serial(self):
        """A closure needs no pickling: it runs in the forked workers
        and gives the serial results."""
        offset = 10
        campaign = Campaign(lambda seed: {"value": seed + offset},
                            seeds=range(6))
        assert_identical(campaign.run(), campaign.run(jobs=4))

    def test_jobs_one_and_single_seed_stay_serial(self):
        campaign = Campaign(metric_scenario, seeds=[7])
        assert_identical(campaign.run(), campaign.run(jobs=8))
        assert_identical(campaign.run(), campaign.run(jobs=1))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            run_parallel(metric_scenario, range(4), jobs=2,
                         on_timeout="explode")
        with pytest.raises(ValueError):
            run_parallel(metric_scenario, range(4), jobs=2, retries=-1)
        with pytest.raises(ValueError):
            run_parallel(metric_scenario, range(4), jobs=2, chunk_size=0)


class TestForkedWorkers:
    def test_closure_scenario_runs_in_child_processes(self):
        parent = os.getpid()
        result = Campaign(lambda seed: {"pid": os.getpid()},
                          seeds=range(4)).run(jobs=2)
        assert len(result.per_run) == 4
        assert all(run["pid"] != parent for run in result.per_run)

    def test_import_loads_no_process_machinery(self):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = ("import sys, repro; print(sorted(m for m in sys.modules "
                "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestRobustness:
    def test_hung_seed_recorded_and_campaign_completes(self):
        result = Campaign(sleepy_scenario, seeds=range(6)).run(
            jobs=4, timeout=1.0)
        assert result.runs == 6
        assert [run["seed"] for run in result.per_run] == list(range(6))
        errors = [run for run in result.per_run if "campaign_error" in run]
        assert len(errors) == 1
        assert errors[0]["seed"] == 3
        assert "timeout" in errors[0]["campaign_error"]
        healthy = [run for run in result.per_run
                   if "campaign_error" not in run]
        assert [run["value"] for run in healthy] == [0, 1, 2, 4, 5]

    def test_hung_seed_raises_under_raise_policy(self):
        with pytest.raises(CampaignTimeoutError):
            Campaign(sleepy_scenario, seeds=range(6)).run(
                jobs=4, timeout=1.0, on_timeout="raise")

    def test_worker_crash_retried_then_recorded(self):
        result = Campaign(crashing_scenario, seeds=range(5)).run(jobs=4)
        assert result.runs == 5
        assert [run["seed"] for run in result.per_run] == list(range(5))
        errors = [run for run in result.per_run if "campaign_error" in run]
        assert len(errors) == 1
        assert errors[0]["seed"] == 2
        assert "crash" in errors[0]["campaign_error"]
        # Collateral victims of the broken pool still produced results.
        healthy = [run for run in result.per_run
                   if "campaign_error" not in run]
        assert [run["value"] for run in healthy] == [0, 1, 3, 4]

    def test_crash_reruns_only_the_crashed_chunk(self, tmp_path):
        retries = 2
        scenario = functools.partial(marking_crash_scenario, str(tmp_path))
        result = Campaign(scenario, seeds=range(5)).run(jobs=4,
                                                         retries=retries)
        runs = {seed: len(list(tmp_path.glob(f"seed{seed}-*")))
                for seed in range(5)}
        assert runs == {0: 1, 1: 1, 2: retries + 1, 3: 1, 4: 1}
        assert [run.get("value") for run in result.per_run] == [
            0, 1, None, 3, 4]
        assert "crash" in result.per_run[2]["campaign_error"]

    def test_unpicklable_result_becomes_structured_run(self):
        result = Campaign(unpicklable_result_scenario,
                          seeds=range(4)).run(jobs=2)
        assert [run["seed"] for run in result.per_run] == list(range(4))
        for run in result.per_run:
            assert "worker failed" in run["campaign_error"]

    def test_scenario_exception_becomes_structured_run(self):
        result = Campaign(raising_scenario, seeds=range(4)).run(jobs=2)
        errors = [run for run in result.per_run if "campaign_error" in run]
        assert len(errors) == 1
        assert errors[0]["seed"] == 1
        assert "ValueError" in errors[0]["campaign_error"]
        assert "injected scenario bug" in errors[0]["campaign_error"]


class TestCampaignStatSemantics:
    def test_total_and_mean_skip_missing_consistently(self):
        def scenario(seed):
            return {"rare": seed} if seed % 2 else {"other": 1}

        result = Campaign(scenario, seeds=range(4)).run()
        # Runs 1 and 3 record "rare"; runs 0 and 2 are skipped by every
        # per-key statistic, so mean * present == total holds.
        assert result.present("rare") == 2
        assert result.total("rare") == 4
        assert result.mean("rare") == 2.0
        assert result.mean("rare") == result.total("rare") / result.present("rare")
        assert result.present("missing") == 0
        assert result.total("missing") == 0
