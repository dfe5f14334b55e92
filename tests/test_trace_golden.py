"""The determinism contract, pinned as two golden trace digests.

Host-side work on the simulator (hot-path tuning, refactors) must leave
every exported trace byte identical.  These digests pin that on two
workloads:

* the 24-seed random harness — seeds 0-23 of
  ``tests.test_trace_invariants_random.build_workload``, each run to
  quiescence; the digest is the SHA-256 of the concatenated hex
  SHA-256s of the seeds' ``to_jsonl`` exports;
* E22's EDF-heavy ``edf@10x`` cell cut to 60 ms, whose backlog makes
  ``dispatcher/set_params`` about half of its records.

A change that alters traces on purpose re-pins both values and says so
in CHANGES.md.  The digests do not depend on the Python version or on
``PYTHONHASHSEED``.
"""

import hashlib

from benchmarks.bench_service_scenarios import build_scenario
from tests.test_trace_invariants_random import build_workload

HARNESS_SHA256 = (
    "09f3236f3dcda731d66f854f63856dc2ae95723ba64ba55f96088a180800e4a2")
EDF_CELL_SHA256 = (
    "b32cda596f2057e6009b54f44cf3b76bcb193134588e640be017cf120a921aaf")


def export_sha256(tracer, path):
    tracer.to_jsonl(str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_random_harness_digest(tmp_path):
    digests = []
    for seed in range(24):
        system = build_workload(seed)[0]
        system.run()
        digests.append(export_sha256(system.tracer,
                                     tmp_path / f"seed{seed}.jsonl"))
    combined = hashlib.sha256("".join(digests).encode()).hexdigest()
    assert combined == HARNESS_SHA256


def test_edf_overload_cell_digest(tmp_path):
    result = build_scenario("edf", 10, 60_000).run(until=60_000)
    tracer = result.system.tracer
    assert len(tracer) == 40_176
    assert tracer.count("dispatcher", "set_params") == 19_388
    assert export_sha256(tracer, tmp_path / "edf10.jsonl") == EDF_CELL_SHA256
