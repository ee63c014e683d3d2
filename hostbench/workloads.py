"""The benchmark's workloads and the simulated-clock results they check.

Each workload turns the ``--seed`` argument into the input of one public
entry point (``run_experiment``, ``run_fleet`` or ``run_scenario``) and
runs it to the end of its horizon.  On the simulated clock every session
is an open loop, one frame every 33.3 ms whatever the system is doing; on
the host a workload is an offline batch in one process and one thread.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import statistics
from dataclasses import dataclass
from typing import Callable

from measure import first_mask_ms, nearest_rank, ratio

PAPER_FRAMES = 150
FLEET_CLIENTS = 4
FLEET_FRAMES = 120
# The chaos cell's own size: check_results fails every frame if the cell
# in repro.obs.bench changes under the benchmark.
CHAOS_CLIENTS = 4
CHAOS_FRAMES = 56
CHAOS_CELL = "wifi-to-lte+replica-outage"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sessions: int
    frames: int
    # seed -> (entry-point name, its single argument)
    make_call: Callable[[int], tuple[str, object]]
    # The workload itself runs the repo's span tracer.
    repo_tracer: bool = False


def _paper_call(seed: int):
    from repro.eval.experiments import ExperimentSpec

    return "run_experiment", ExperimentSpec(
        system="edgeis",
        dataset="xiph_like",
        network="wifi_5ghz",
        motion_grade="walk",
        resolution=(320, 240),
        num_frames=PAPER_FRAMES,
        seed=seed,
    )


def _fleet_call(seed: int):
    from repro.eval.experiments import FleetSpec

    return "run_fleet", FleetSpec(
        num_clients=FLEET_CLIENTS,
        system="baseline+mamt",
        num_frames=FLEET_FRAMES,
        resolution=(160, 120),
        num_servers=1,
        scheduler=True,
        policy="edf",
        queue_limit=3,
        # As in the tenants cells: one service fits the deadline, so
        # queue contention binds rather than infeasibility.
        deadline_horizon=72.0,
        degrade=True,
        batch_window_ms=20.0,
        max_batch_size=3,
        warmup_frames=10,
        seed=seed,
    )


def _chaos_call(seed: int):
    from repro.obs.bench import SUITES

    (cell,) = [cell for cell in SUITES["chaos"] if cell.name == CHAOS_CELL]
    return "run_scenario", dataclasses.replace(cell, seed=seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-1client",
            "paper-figure path: one edgeIS client (MAMT+CIIA+CFRS) at 320x240; "
            "full-size rendering and the only CFRS encoding and CIIA; no serve layer",
            sessions=1,
            frames=PAPER_FRAMES,
            make_call=_paper_call,
        ),
        Workload(
            "fleet-4client",
            "4 sessions at 160x120 on one EDF replica with batching: per-session "
            "VO/Hamming/transfer costs and steady serve admission dominate",
            sessions=FLEET_CLIENTS,
            frames=FLEET_FRAMES,
            make_call=_fleet_call,
        ),
        Workload(
            "chaos-traced",
            "chaos cell wifi-to-lte+replica-outage via run_scenario: repo tracer and "
            "analytics on, serve failure paths, chaos injector and channel handoff",
            sessions=CHAOS_CLIENTS,
            frames=CHAOS_FRAMES,
            make_call=_chaos_call,
            repo_tracer=True,
        ),
    )
}


def call(workload: Workload, seed: int, clock):
    """Run one repetition of ``workload`` through its public entry point,
    with ``clock`` timing it; returns the entry point's own return value."""
    entry, argument = workload.make_call(seed)
    # Looked up on the module at call time, so a patched entry point (the
    # tick clock's) is the one called.
    if entry == "run_scenario":
        from repro.obs import bench as module
    else:
        from repro.eval import experiments as module
    clock.enter()
    return getattr(module, entry)(argument)


# ----------------------------------------------------------------------
# Simulated-clock results
# ----------------------------------------------------------------------
def session_results(outcome) -> list:
    """The per-session ``RunResult`` list of a captured outcome."""
    results = getattr(outcome, "results", None)
    return list(results) if results is not None else [outcome.result]


def check_results(results, workload: Workload) -> int:
    """Count failed session-frames: a session missing frame metrics, or
    an IoU outside [0, 1], fails the affected frames."""
    failed = 0
    if len(results) != workload.sessions:
        failed += abs(workload.sessions - len(results)) * workload.frames
    for result in results:
        indices = [frame.frame_index for frame in result.frames]
        if indices != list(range(workload.frames)):
            failed += workload.frames - len(set(indices) & set(range(workload.frames)))
        for frame in result.frames:
            if not all(0.0 <= iou <= 1.0 for iou in frame.object_ious.values()):
                failed += 1
    return failed


def digest(results) -> str:
    """A short hash of every session's full per-frame result."""
    blob = json.dumps(
        [result.to_dict(include_frames=True) for result in results], sort_keys=True
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def sim_metrics(results, scheduler, deadline_ms: float) -> dict:
    """The simulated-clock end-to-end metrics of one run."""
    frame_ms = results[0].duration_ms / len(results[0].frames)
    horizon_ms = results[0].duration_ms
    latencies = [
        frame.latency_ms
        for result in results
        for frame in result.frames
        if frame.frame_index >= result.warmup_frames
    ]
    firsts = [
        first_mask_ms(
            [(f.frame_index, f.latency_ms, f.num_rendered) for f in result.frames],
            frame_ms,
            horizon_ms,
        )
        for result in results
    ]
    sent = sum(result.offload_count for result in results)
    failed_offloads = 0
    if scheduler is not None:
        stats = scheduler.stats()
        failed_offloads = stats["submitted"] - stats["admitted"] + stats["shed"]
    return {
        "sim_mean_iou": sum(result.mean_iou() for result in results) / len(results),
        "sim_miss_rate": ratio(sum(lat > deadline_ms for lat in latencies), len(latencies)),
        "sim_latency_ms_p50": nearest_rank(latencies, 50.0),
        "sim_latency_ms_p90": nearest_rank(latencies, 90.0),
        "sim_first_mask_ms": statistics.median(firsts),
        "sim_offload_fail_rate": ratio(failed_offloads, sent),
    }


SIM_UNITS = {
    "sim_mean_iou": "iou",
    "sim_miss_rate": "fraction",
    "sim_latency_ms_p50": "ms",
    "sim_latency_ms_p90": "ms",
    "sim_first_mask_ms": "ms",
    "sim_offload_fail_rate": "fraction",
}

