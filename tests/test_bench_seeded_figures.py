"""E23's and E24's seeded figures against the committed baseline.

The CI gates job runs these experiments' ``--smoke``, which compares
nothing with ``BENCH_engine.json``, and their ``--check`` also times
the host.  This runs only the seeded parts, at the committed horizon:
each script's own ``determinism_check`` and E23's ``reaction_check``,
and compares the keys that each script's ``check`` compares exactly.
E23's determinism cell digests the monitored run's alert stream, E24's
its engine-record stream.  A workload change re-records those fields
of the script's section.
"""

import pytest

from benchmarks import bench_hetero_mapping, bench_live_monitoring, gate

BASELINE = gate.load()


@pytest.mark.parametrize("script", [bench_live_monitoring,
                                    bench_hetero_mapping],
                         ids=["E23", "E24"])
def test_determinism_cells_match_baseline(script):
    section = BASELINE[script.SECTION]
    fresh = script.determinism_check(horizon=section["horizon"])
    assert gate.exact("determinism", fresh, section["determinism"],
                      script.DETERMINISM_KEYS) == []


def test_e23_reaction_matches_baseline():
    section = BASELINE[bench_live_monitoring.SECTION]
    fresh = bench_live_monitoring.reaction_check(horizon=section["horizon"])
    assert gate.exact("reaction", fresh, section["reaction"],
                      bench_live_monitoring.REACTION_KEYS) == []
