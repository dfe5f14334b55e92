"""The shared experiment-gate CLI (``benchmarks/gate.py``).

Driven with a fake experiment against a temporary baseline file, so no
simulation runs.
"""

import json

import pytest

from benchmarks import gate

SECTION = "e99_fake"


def fake_measure(value=10, rate=1.0):
    return lambda: {"value": value, "normalized": rate}


def fake_check(results, baseline):
    return (gate.exact("fake", results, baseline, ("value",))
            + gate.floor("fake[throughput]", results["normalized"],
                         baseline["normalized"], 0.25))


def run(argv, measure, check=fake_check):
    return gate.main("usage", SECTION, measure, check,
                     lambda results, baseline=None: None, None, argv=argv)


@pytest.fixture
def bench_file(tmp_path, monkeypatch):
    path = tmp_path / "BENCH_engine.json"
    monkeypatch.setattr(gate, "BENCH_FILE", path)
    return path


def test_write_replaces_only_its_own_section(bench_file):
    other = {"shapes": {"timeout_heavy": {"normalized": 0.0274}}}
    bench_file.write_text(json.dumps(
        {"e17_other": other, SECTION: {"value": 1, "normalized": 2.0},
         "e98_after": {"value": 3}}, indent=2) + "\n")
    assert run(["--write"], fake_measure(value=10)) == 0
    data = json.loads(bench_file.read_text())
    assert list(data) == ["e17_other", SECTION, "e98_after"]
    assert data["e17_other"] == other
    assert data[SECTION] == {"value": 10, "normalized": 1.0}
    assert data["e98_after"] == {"value": 3}


def test_write_refuses_results_failing_their_own_check(bench_file, capsys):
    bench_file.write_text('{"e17_other": {"tolerance": 0.25}}\n')
    before = bench_file.read_bytes()

    def below_floor(results, baseline):
        return [("fake[speedup]", "1.10x < 1.28x")]

    assert run(["--write"], fake_measure(), below_floor) == 1
    assert bench_file.read_bytes() == before
    assert "REGRESSION fake[speedup]: 1.10x < 1.28x" in capsys.readouterr().err


def test_check_exit_codes(bench_file, capsys):
    bench_file.write_text(json.dumps({"e17_other": {}}))
    assert run(["--check"], fake_measure()) == 2
    bench_file.write_text(json.dumps(
        {SECTION: {"value": 10, "normalized": 1.0}}))
    assert run(["--check"], fake_measure(value=10, rate=0.8)) == 0
    assert run(["--check"], fake_measure(value=11)) == 1
    assert "REGRESSION fake[value]: 11 != 10" in capsys.readouterr().err
    assert run(["--check"], fake_measure(rate=0.7)) == 1
    assert "REGRESSION fake[throughput]: 0.70x" in capsys.readouterr().err


def test_floor_passes_at_exactly_one_minus_tolerance():
    assert gate.floor("x", 0.75, 1.0, 0.25) == []
    assert gate.floor("x", 0.74, 1.0, 0.25) == [("x", "0.74x")]
    assert gate.floor("x", 0.5, 1.0, 0.5) == []
