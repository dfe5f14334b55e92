"""SLO scoreboard accounting edges: exact quantiles, (m, k) windows
(including a window straddling a live mode change), zero-traffic
tenants, a deterministic, plain ``to_dict`` shape, and live scoring:
a bounded tracer scores the whole run, a category filter that would
zero the scoreboard raises, and the live scoreboard equals the replay
of the run's JSONL export."""

import pytest

from benchmarks.bench_hetero_mapping import (
    build_scenario as build_hetero_scenario)
from benchmarks.bench_live_monitoring import build_monitored
from benchmarks.bench_service_scenarios import build_scenario
from repro import DispatcherCosts, EDFScheduler, HadesSystem, Scenario
from repro.core.attributes import Aperiodic, Periodic
from repro.core.heug import Task
from repro.scenarios import LogNormalService, Scoreboard, TenantSLO
from repro.services.modes import ModeManager
from repro.sim.trace import load_trace
from tests.conftest import BACKENDS, on_engine


class TestExactQuantile:
    def test_nearest_rank(self):
        from repro.scenarios import exact_quantile
        sample = list(range(1, 101))  # 1..100, sorted
        assert exact_quantile(sample, 0.5) == 50
        assert exact_quantile(sample, 0.99) == 99
        assert exact_quantile(sample, 0.999) == 100
        assert exact_quantile(sample, 1.0) == 100
        assert exact_quantile([7], 0.999) == 7
        assert exact_quantile([], 0.5) is None

    def test_q_bounds(self):
        from repro.scenarios import exact_quantile
        with pytest.raises(ValueError):
            exact_quantile([1], 0.0)
        with pytest.raises(ValueError):
            exact_quantile([1], 1.5)


class TestMkWindows:
    def test_exact_window_counting(self):
        count = Scoreboard.mk_violations
        assert count([], (1, 2)) == 0
        assert count([True, True, True], (2, 2)) == 0
        assert count([True, False, False], (2, 2)) == 2
        # One bad burst: windows covering >= 2 of the 3 failures.
        outcomes = [True] * 5 + [False] * 3 + [True] * 5
        assert count(outcomes, (9, 10)) == 10 - 10 + 1 + 3  # every window
        assert count(outcomes, (1, 3)) == 1  # only the all-False window

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            Scoreboard.mk_violations([True], (0, 2))
        with pytest.raises(ValueError):
            Scoreboard.mk_violations([True], (3, 2))

    def test_window_straddling_mode_change(self):
        """(m, k) accounting across a live ModeManager switch.

        Ten requests straddle a switch into a degraded mode whose heavy
        background task starves them: the first five (pre-switch) meet
        their deadlines, the last five miss.  The violated (3, 4)
        windows are exactly the ones spanning or following the switch.
        """
        system = HadesSystem(node_ids=["n0"], costs=DispatcherCosts.zero())
        system.attach_scheduler(EDFScheduler(scope="n0", w_sched=0))

        request = Task("req", deadline=400, arrival=Aperiodic(),
                       node_id="n0")
        request.code_eu("serve", wcet=200)
        request.validate()

        # Tighter-deadline background load: under EDF its 300 us
        # absolute deadlines always beat a request's 400 us one, so
        # post-switch requests only get the 20 us/period slack.
        heavy = Task("bg_heavy", deadline=300,
                     arrival=Periodic(period=300), node_id="n0")
        heavy.code_eu("burn", wcet=280)
        heavy.validate()

        manager = ModeManager(system.dispatcher)
        manager.define("normal")
        manager.define("degraded", tasks=[heavy])
        manager.switch_to("normal")

        times = [100 + k * 1_000 for k in range(10)]
        system.dispatcher.register_arrivals(request, times)
        system.sim.call_at(5_050, lambda: manager.switch_to("degraded"))
        system.run(until=12_000)

        assert manager.current == "degraded"
        board = Scoreboard.from_records(
            system.tracer.records, [TenantSLO("req", mk=(3, 4))])
        row = board.tenant_stats("req")
        assert row["submitted"] == 10
        assert row["missed"] == 5
        outcomes = board._request_outcomes("req")
        assert outcomes == [True] * 5 + [False] * 5
        # Windows [2-5], [3-6], [4-7] straddle the switch; [5-8], [6-9]
        # follow it.  [2-5] still holds 3 satisfied -> 4 violations.
        assert row["mk_violations"] == 4
        assert Scoreboard.mk_violations(outcomes, (3, 4)) == 4


def service_scenario(**overrides):
    builder = (Scenario()
               .tier("edge", replicas=2, wcet=300)
               .tier("svc", fan_out=2, wcet=500,
                     service=LogNormalService(180, 0.6))
               .cells(4)
               .tenant("gold", rate=50, mk=(9, 10), value=5,
                       deadline=30_000)
               .tenant("bronze", rate=120, mk=(1, 4), deadline=50_000)
               .admission("mk_firm"))
    for key, value in overrides.items():
        getattr(builder, key)(value)
    return builder


class TestZeroTraffic:
    def test_zero_rate_tenant_reports_empty_row(self):
        result = (service_scenario()
                  .tenant("idle", rate=0, mk=(2, 3), deadline=10_000)
                  .run(until=80_000, seed=5))
        row = result.tenant("idle")
        assert row["submitted"] == 0
        assert row["admitted"] == 0
        assert row["completed"] == 0
        assert row["missed"] == 0
        assert row["miss_ratio"] == 0.0
        assert row["p50"] is None and row["p99"] is None \
            and row["p999"] is None
        assert row["value"] == 0
        assert row["mk_violations"] == 0
        assert all(tier["completed"] == 0
                   for tier in row["tiers"].values())

    def test_rateless_tenant_reports_empty_row(self):
        result = (service_scenario()
                  .tenant("manual", deadline=10_000)
                  .run(until=60_000, seed=5))
        assert result.tenant("manual")["submitted"] == 0

    def test_unknown_tenant_records_ignored(self):
        result = service_scenario().run(until=60_000, seed=5)
        board = Scoreboard.from_records(result.system.tracer.records,
                                        [TenantSLO("gold")])
        assert board.tenant_stats("gold")["submitted"] \
            == result.tenant("gold")["submitted"]
        with pytest.raises(KeyError):
            board.tenant_stats("bronze")


class TestDeterminism:
    def test_to_dict_shape_is_plain_and_sorted(self):
        result = service_scenario().run(until=60_000, seed=3)
        board = result.scoreboard.to_dict()
        assert list(board) == sorted(board)
        import json
        json.dumps(board)  # every leaf JSON-serializable


#: Live-versus-replay shapes: (scenario factory, horizon).
LIVE_SHAPES = {
    # E22's adm_reject@3x with monitors, whose gold alert swaps in the
    # conservative guarantee test at 40 ms.
    "adm_reject@3x_monitored": (lambda: build_monitored(react=True),
                                100_000),
    "edf@10x": (lambda: build_scenario("edf", 10, 60_000), 60_000),
    "hetero": (build_hetero_scenario, 200_000),
}


class TestLiveScoring:
    def test_bounded_tracer_scores_the_whole_run(self):
        # About 32k records: a 5,000-record ring evicts most of them
        # before the run ends.
        bounded = (build_scenario("adm_reject", 3.0, 200_000)
                   .options(trace_maxlen=5_000).run(until=200_000))
        unbounded = build_scenario("adm_reject", 3.0,
                                   200_000).run(until=200_000)
        assert bounded.system.tracer.dropped > 20_000
        assert bounded.to_dict() == unbounded.to_dict()

    def test_filter_dropping_dispatcher_raises(self):
        scenario = build_scenario("edf", 1.0, 50_000).options(
            trace_categories={"cpu", "network"})
        with pytest.raises(ValueError, match="drops 'dispatcher'"):
            scenario.run(until=50_000)

    def test_filter_dropping_admission_raises_under_admission(self):
        scenario = build_scenario("adm_reject", 3.0, 50_000).options(
            trace_categories={"dispatcher"})
        with pytest.raises(ValueError, match="drops 'admission'"):
            scenario.run(until=50_000)
        # Admit-all scenarios score from dispatcher records alone.
        kept = build_scenario("edf", 1.0, 50_000).options(
            trace_categories={"dispatcher"}).run(until=50_000)
        full = build_scenario("edf", 1.0, 50_000).run(until=50_000)
        assert kept.to_dict() == full.to_dict()

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("shape", sorted(LIVE_SHAPES))
    def test_live_equals_replay_of_the_export(self, shape, backend,
                                              tmp_path):
        build, horizon = LIVE_SHAPES[shape]
        with on_engine(backend):
            result = build().run(until=horizon)
        path = tmp_path / "trace.jsonl"
        result.system.tracer.to_jsonl(str(path))
        board = result.scoreboard
        replayed = Scoreboard.from_records(
            load_trace(str(path)), list(board.tenants.values()),
            tiers=board.tiers)
        live = board.to_dict()
        assert live == replayed.to_dict()
        assert sum(row["completed"] for row in live.values()) > 0
        if shape == "adm_reject@3x_monitored":
            assert result.system.tracer.count("admission", "reconfigure")
