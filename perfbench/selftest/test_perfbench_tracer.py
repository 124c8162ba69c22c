"""Self-test of the benchmark's span accounting and wrappers.

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest
"""

import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from tracer import Tracer, instrument, layer_self_s, self_times_ns  # noqa: E402


def _synthetic_layers():
    """Three nested 'layers' as module objects, calling each other by module attribute."""
    inner = types.ModuleType("inner")
    middle = types.ModuleType("middle")
    outer = types.ModuleType("outer")
    inner.leaf = lambda x: sum(i * i for i in range(x))
    middle.step = lambda x: inner.leaf(x) + inner.leaf(x + 1)
    outer.run = lambda x: [middle.step(x) for _ in range(3)] + [inner.leaf(x)]
    return inner, middle, outer


def test_self_times_sum_to_root_duration():
    inner, middle, outer = _synthetic_layers()
    tracer = Tracer()
    namespaces = [inner, middle, outer]
    with tracer:
        tracer.wrap(namespaces, inner.leaf, "inner.leaf")
        tracer.wrap(namespaces, middle.step, "middle.step")
        tracer.wrap(namespaces, outer.run, "outer.run")
        outer.run(200)
    spans = tracer.spans
    assert [s[0] for s in spans].count("inner.leaf") == 7
    roots = [s for s in spans if s[3] == -1]
    assert len(roots) == 1
    _, start, end, _ = roots[0]
    # Integer nanoseconds: the accounting is exact, not just within clock resolution.
    assert sum(self_times_ns(spans)) == end - start
    assert all(own >= 0 for own in self_times_ns(spans))
    by_layer = layer_self_s(spans)
    assert abs(sum(by_layer[k] for k in ("inner", "middle", "outer")) - (end - start) / 1e9) < 1e-9


def test_wrapper_returns_what_the_function_returns_and_restore_undoes_it():
    inner, middle, outer = _synthetic_layers()
    original = middle.step
    tracer = Tracer()
    with tracer:
        tracer.wrap([inner, middle, outer], middle.step, "middle.step")
        assert middle.step is not original
        traced = middle.step(50)
    assert middle.step is original
    assert traced == original(50)


def test_instrumented_spinport_gives_identical_results(tmp_path):
    from spinport import cli, spinalg, teleport

    beam = teleport.BeamState.from_direction((0.6, 0.0, 0.8))
    argv = ["simulate", "--seed=5", "--events=2000", "--beam=30,40", "--format=jsonl"]
    plain = teleport.run_sampled(beam, teleport.SIGMA_Z, 9)
    assert cli.main(argv + [f"--out={tmp_path / 'plain'}"]) == 0
    originals = (teleport.run_sampled, spinalg.tensor)

    tracer = Tracer()
    with tracer:
        instrument(tracer)
        assert teleport.run_sampled is not originals[0]
        traced = teleport.run_sampled(beam, teleport.SIGMA_Z, 9)
        assert cli.main(argv + [f"--out={tmp_path / 'traced'}"]) == 0

    assert (teleport.run_sampled, spinalg.tensor) == originals
    assert traced.outcome == plain.outcome
    assert traced.probability == plain.probability
    assert (traced.neutron_pre.amplitudes == plain.neutron_pre.amplitudes).all()
    assert (tmp_path / "traced").read_bytes() == (tmp_path / "plain").read_bytes()
    assert tracer.counts["reaction.EventRecord"] == 2000
    spans = tracer.spans
    calls = {(spans[parent][0] if parent >= 0 else None, name) for name, _, _, parent in spans}
    # reaction imports index_from_uniform from teleport by name; that call is traced too.
    assert ("reaction.simulate", "teleport.index_from_uniform") in calls
    assert ("teleport.run_sampled", "bellkit.decompose_12") in calls
    assert ("spinalg.tensor", "spinalg.Ket") in calls
    assert (None, "cli.main") in calls
