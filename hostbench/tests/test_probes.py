"""The layer probes: where they patch, what happens when a target is
gone, and that every target is exercised by the workload meant for it."""

from contextlib import ExitStack

import pytest

import run
from layers import TARGETS, Probes, Target, TickClock
from report import layer_metrics
from workloads import WORKLOADS, Workload

# Spans every workload must record at least once.
COMMON = {
    "synthetic.frame_at",
    "synthetic.render",
    "features.match",
    "features.hamming",
    "vo.observe",
    "vo.track",
    "vo.apply",
    "vo.keyframe",
    "geometry.pose",
    "geometry.init",
    "transfer.predict",
    "encoding.encode",
    "core.process_frame",
    "core.receive_result",
    "network.uplink",
    "network.downlink",
    "model.infer",
}
EXERCISED = {
    "paper-1client": COMMON | {"encoding.decide"},
    "fleet-4client": COMMON | {"serve.submit", "serve.advance"},
    "chaos-traced": COMMON | {"serve.submit", "serve.advance", "chaos.tick", "obs.analytics"},
}


def tiny_workload(frames: int = 12) -> Workload:
    from repro.eval.experiments import ExperimentSpec

    spec = ExperimentSpec(
        system="edgeis", num_frames=frames, resolution=(64, 48), warmup_frames=4
    )
    return Workload("tiny", "probe test", 1, frames, lambda seed: ("run_experiment", spec))


def test_every_exercised_span_has_a_target():
    spans = {target.span for target in TARGETS}
    for workload, expected in EXERCISED.items():
        assert expected <= spans, workload
    assert set(EXERCISED) == set(WORKLOADS)


def test_functions_are_patched_where_bound_and_restored():
    import repro.features.brief as brief
    import repro.features.matcher as matcher
    import repro.geometry.bundle_adjustment as ba
    import repro.vo.odometry as odometry

    originals = (brief.hamming_distance, matcher.match_descriptors, ba.refine_pose)
    with ExitStack() as stack:
        Probes().install(stack)
        # Bound at import time in other modules: patched there too.
        assert matcher.hamming_distance is brief.hamming_distance
        assert brief.hamming_distance is not originals[0]
        assert odometry.match_descriptors is matcher.match_descriptors
        assert odometry.match_descriptors is not originals[1]
        assert odometry.refine_pose is ba.refine_pose is not originals[2]
    assert (brief.hamming_distance, matcher.hamming_distance) == (originals[0],) * 2
    assert (odometry.match_descriptors, odometry.refine_pose) == originals[1:]


def test_missing_target_is_reported_absent(capsys):
    targets = tuple(t for t in TARGETS if t.span != "features.hamming") + (
        Target("features.hamming", "repro.features.brief", "no_such_function"),
    )
    probes = Probes(targets)
    workload = tiny_workload()
    rep = run.run_rep(workload, 0, probes=probes)
    assert "no_such_function" in capsys.readouterr().err
    metrics, extra = layer_metrics(probes, rep, 0.0, rep.wall_s)
    assert metrics["features.hamming.calls"][0] is None
    assert metrics["features.hamming.pairs"][0] is None
    assert metrics["features.match.calls"][0] > 0
    assert extra["additive"]


def test_stop_at_first_tick_times_setup_only():
    from layers import SetupComplete
    from workloads import call

    clock = TickClock(stop_at_first_tick=True)
    with ExitStack() as stack:
        clock.install(stack)
        with pytest.raises(SetupComplete):
            call(tiny_workload(), 0, clock)
    assert len(clock.tick_starts) == 1 and clock.setup_s > 0.0


def test_probes_only_observe():
    workload = tiny_workload(frames=40)
    plain = run.run_rep(workload, 0)
    traced = run.run_rep(workload, 0, probes=Probes())
    assert plain.failed == traced.failed == 0
    assert (plain.sim, plain.digest) == (traced.sim, traced.digest)
    assert len(traced.tick_ms) == 40


@pytest.mark.parametrize("name", sorted(EXERCISED))
def test_workload_exercises_its_targets(name):
    """Fails when a probed function gets no calls on the workload meant to
    exercise it (e.g. a refactor moved the work out of the target)."""
    workload = WORKLOADS[name]
    probes = Probes()
    rep = run.run_rep(workload, 0, probes=probes)
    assert not probes.missing
    called = {span[1] for span in probes.spans}
    assert EXERCISED[name] - called == set()
    assert rep.failed == 0
    _, extra = layer_metrics(probes, rep, 0.0, rep.wall_s)
    assert extra["additive"]
