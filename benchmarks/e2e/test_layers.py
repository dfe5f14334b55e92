"""Self-test of the module->layer map and of the traced attribution.

    python3 -m pytest benchmarks/e2e/test_layers.py -q
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402

SRC = os.path.join(run.ROOT, "src", "repro")


def repro_modules():
    return sorted(layers.module_name(os.path.join(path, name))
                  for path, _dirs, names in os.walk(SRC)
                  for name in names if name.endswith(".py"))


def test_every_module_maps_to_one_simulator_layer():
    modules = repro_modules()
    assert "repro.kernel.cpu" in modules
    for module in modules:
        layer = layers.module_layer(module)
        assert layer in layers.LAYERS
        assert layer not in layers.BENCH_LAYERS, module


def test_map_names_existing_modules_and_layers():
    modules = repro_modules()
    for prefix, layer in layers.MODULE_LAYERS.items():
        assert layer in layers.LAYERS
        assert any(m == prefix or m.startswith(prefix + ".")
                   for m in modules), f"stale prefix {prefix!r}"


def test_builtin_time_is_charged_to_the_nearest_layered_caller():
    cpu = (os.path.join(SRC, "kernel", "cpu.py"), 131, "_top_ready")
    trace = (os.path.join(SRC, "sim", "trace.py"), 304, "record")
    wrapper = ("/usr/lib/python3/json/encoder.py", 1, "encode")
    builtin = ("~", 0, "<built-in method builtins.len>")
    stats = {
        cpu: (1, 1, 1.0, 5.0, {}),
        trace: (1, 1, 2.0, 4.0, {}),
        # Called once from cpu (3 s inside) and once from trace (1 s).
        wrapper: (2, 2, 0.5, 4.0, {cpu: (1, 1, 0.25, 3.0),
                                   trace: (1, 1, 0.25, 1.0)}),
        builtin: (2, 2, 1.0, 1.0, {wrapper: (2, 2, 1.0, 1.0)}),
    }
    self_s = layers.fold(stats)
    assert abs(self_s["kernel.cpu"] - (1.0 + 0.25 + 0.75)) < 1e-9
    assert abs(self_s["sim.trace"] - (2.0 + 0.25 + 0.25)) < 1e-9
    assert abs(sum(self_s.values()) - 4.5) < 1e-9


def test_traced_run_attributes_its_wall_time():
    traced = run.spawn("fault_campaign", run.DEFAULT_SEED, traced=True)
    assert "error" not in traced, traced
    result = traced["traced"]
    shares = {layer: seconds / result["wall_s"]
              for layer, seconds in result["self_s"].items()}
    assert abs(sum(shares.values()) - 1) <= 0.02
    assert shares["harness"] < 0.05
    assert sum(share for layer, share in shares.items()
               if layer not in layers.BENCH_LAYERS) >= 0.95
