"""Experiment harness: build clients, run (system x dataset x network)
grids and aggregate the metrics every figure reproduces.

Every benchmark under ``benchmarks/`` is a thin wrapper over this module,
so the same machinery is importable for ad-hoc studies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines.systems import (
    BestEffortEdgeClient,
    EAARClient,
    EdgeDuetClient,
    MobileOnlyClient,
)
from ..chaos import ChaosInjector, apply_network, build_video, make_faults, make_scenario
from ..core.config import SystemConfig
from ..core.system import EdgeISSystem
from ..model.costs import DEVICES, DeviceProfile
from ..model.maskrcnn import SimulatedSegmentationModel
from ..network.channel import make_channel, spawn_channel_rngs
from ..obs.timeline import TimelineSampler
from ..obs.trace import NULL_TRACER, Tracer
from ..runtime.multi import ClientSession, MultiClientPipeline
from ..runtime.pipeline import EdgeServer, RunResult
from ..runtime.resources import DEVICE_POWER, ResourceMonitor
from ..serve import AdmissionConfig, BatchConfig, DegradeConfig, FleetScheduler
from ..tenancy import Autoscaler, AutoscalerConfig, TenantDirectory, parse_tenants
from ..synthetic.datasets import make_complexity_scene, make_dataset
from ..synthetic.world import SyntheticVideo

__all__ = [
    "SYSTEM_NAMES",
    "ABLATION_NAMES",
    "ExperimentSpec",
    "FleetSpec",
    "FleetOutcome",
    "build_client",
    "run_experiment",
    "run_fleet",
]

SYSTEM_NAMES = (
    "edgeis",
    "eaar",
    "edgeduet",
    "edge_best_effort",
    "mobile_only",
)

# Fig. 16 variants: the baseline plus each module individually.
ABLATION_NAMES = (
    "baseline",
    "baseline+cfrs",
    "baseline+ciia",
    "baseline+mamt",
    "edgeis",
)


def build_client(
    name: str,
    video: SyntheticVideo,
    seed: int = 0,
    tracer: Tracer | None = None,
):
    """Instantiate a client system by name for the given video."""
    shape = (video.camera.height, video.camera.width)
    if name == "edgeis" or name.startswith("baseline"):
        config = SystemConfig(seed=seed)
        if name != "edgeis":
            config.use_mamt = "mamt" in name
            config.use_ciia = "ciia" in name
            config.use_cfrs = "cfrs" in name
        return EdgeISSystem(
            video.camera, shape, config=config, world=video.world, tracer=tracer
        )
    if name == "eaar":
        return EAARClient(shape, np.random.default_rng(seed + 100))
    if name == "edgeduet":
        return EdgeDuetClient(shape, np.random.default_rng(seed + 200))
    if name == "edge_best_effort":
        return BestEffortEdgeClient(shape, np.random.default_rng(seed + 300))
    if name == "mobile_only":
        return MobileOnlyClient(np.random.default_rng(seed + 400))
    raise ValueError(f"unknown system {name!r}")


@dataclass
class ExperimentSpec:
    """One cell of an experiment grid."""

    system: str
    dataset: str = "xiph_like"
    network: str = "wifi_5ghz"
    num_frames: int = 180
    resolution: tuple[int, int] = (320, 240)
    motion_grade: str = "walk"
    complexity: str | None = None  # use make_complexity_scene instead
    dynamic: bool | None = None
    server_device: str = "jetson_tx2"
    # Synthetic slowdown of the edge device (the bench degrade knob):
    # the server's speed is divided by this, so 2.0 doubles inference
    # latency.  Used to self-test the perf regression gate.
    server_latency_scale: float = 1.0
    warmup_frames: int = 45
    seed: int = 0
    monitor_resources: bool = False
    power_device: str = "iphone_11"
    # Observability: record a frame-level trace of the run (off by
    # default; the no-op tracer keeps the disabled path overhead-free).
    trace: bool = False
    trace_wall_clock: bool = False
    # Snapshot gauges/counters into fixed-interval time series every
    # this many simulated ms (None = no timeline; requires trace=True
    # for the registry to be live).
    sample_interval_ms: float | None = None


@dataclass
class ExperimentOutcome:
    spec: ExperimentSpec
    result: RunResult
    resources: ResourceMonitor | None = None
    client: object | None = None
    tracer: Tracer | None = None
    sampler: TimelineSampler | None = None


def _make_video(spec: ExperimentSpec) -> SyntheticVideo:
    if spec.complexity is not None:
        return make_complexity_scene(
            spec.complexity,
            num_frames=spec.num_frames,
            resolution=spec.resolution,
            seed=spec.seed,
        )
    return make_dataset(
        spec.dataset,
        num_frames=spec.num_frames,
        resolution=spec.resolution,
        motion_grade=spec.motion_grade,
        dynamic=spec.dynamic,
        seed=spec.seed,
    )


def _server_device(name: str, latency_scale: float) -> DeviceProfile:
    """The named edge device, slowed down by ``latency_scale`` (the bench
    degrade knob); the catalog profile itself when the scale is 1."""
    device = DEVICES[name]
    if latency_scale == 1.0:
        return device
    return DeviceProfile(f"{device.name}-x{latency_scale:g}", device.speed / latency_scale)


def run_experiment(spec: ExperimentSpec) -> ExperimentOutcome:
    """Run one pipeline configuration end to end."""
    tracer = Tracer(wall_clock=spec.trace_wall_clock) if spec.trace else NULL_TRACER
    video = _make_video(spec)
    client = build_client(spec.system, video, seed=spec.seed, tracer=tracer)
    channel = make_channel(spec.network, np.random.default_rng(spec.seed + 17))
    server = EdgeServer(
        SimulatedSegmentationModel(
            "mask_rcnn_r101",
            _server_device(spec.server_device, spec.server_latency_scale),
            np.random.default_rng(spec.seed + 29),
            metrics=tracer.metrics,
        ),
        tracer=tracer,
    )
    sampler = (
        TimelineSampler(tracer.metrics, interval_ms=spec.sample_interval_ms)
        if spec.sample_interval_ms is not None
        else None
    )
    pipeline = MultiClientPipeline(
        [ClientSession(video, client, channel)],
        server,
        warmup_frames=spec.warmup_frames,
        tracer=tracer,
        sampler=sampler,
    )

    monitor = None
    if spec.monitor_resources:
        monitor = ResourceMonitor(DEVICE_POWER[spec.power_device], fps=video.fps)
        result = _run_with_monitor(pipeline, monitor, client, channel)
    else:
        result = pipeline.run()[0]
    return ExperimentOutcome(
        spec=spec,
        result=result,
        resources=monitor,
        client=client,
        sampler=sampler,
        tracer=tracer if spec.trace else None,
    )


def _run_with_monitor(
    pipeline: MultiClientPipeline, monitor: ResourceMonitor, client, channel
) -> RunResult:
    """Run a one-session pipeline while sampling per-frame resource usage."""
    original_process = client.process_frame
    bytes_before = {"up": 0}

    def wrapped(frame, truth, now_ms):
        output = original_process(frame, truth, now_ms)
        sent = channel.bytes_up - bytes_before["up"]
        bytes_before["up"] = channel.bytes_up
        monitor.sample(frame.index, output.compute_ms, client.memory_bytes(), sent)
        return output

    client.process_frame = wrapped
    try:
        return pipeline.run()[0]
    finally:
        client.process_frame = original_process


# ----------------------------------------------------------------------
# Fleet experiments: many clients against the repro.serve layer
# ----------------------------------------------------------------------
@dataclass
class FleetSpec:
    """A multi-client serving experiment (paper Section VI-G topology,
    plus the ``repro.serve`` policy layer on top of it)."""

    num_clients: int = 8
    system: str = "baseline+mamt"
    dataset: str = "xiph_like"
    network: str = "wifi_5ghz"
    num_frames: int = 60
    resolution: tuple[int, int] = (160, 120)
    motion_grade: str = "walk"
    server_device: str = "jetson_tx2"
    server_latency_scale: float = 1.0
    # Serving-layer knobs.  ``scheduler=False`` reproduces the paper's
    # bare deployment: one FIFO EdgeServer, no admission, no degradation.
    scheduler: bool = True
    num_servers: int = 1
    policy: str = "edf"
    queue_limit: int = 4
    deadline_horizon: float = 12.0
    degrade: bool = True
    degrade_failure_threshold: int = 2
    degrade_min_ms: float = 300.0
    degrade_recover_depth: int = 1
    deadline_budget_ms: float | None = None
    # Cross-session batching (repro.serve.batching): a replica may hold a
    # servable request up to ``batch_window_ms`` to coalesce compatible
    # queued requests into one batch of at most ``max_batch_size``.
    # ``max_batch_size=1`` disables batching and reproduces the unbatched
    # fleet byte-for-byte.
    batch_window_ms: float = 0.0
    max_batch_size: int = 1
    batch_alpha: float = 0.8
    warmup_frames: int = 10
    seed: int = 0
    trace: bool = False
    trace_wall_clock: bool = False
    sample_interval_ms: float | None = None
    # Chaos (repro.chaos): an adversarial scenario name replaces the
    # plain catalog scene, and a named fault program injects serving
    # faults on the simulated clock.  ``None``/``"none"`` leave the run
    # byte-identical to a chaos-free fleet.
    scenario: str | None = None
    faults: str = "none"
    # Tenancy (repro.tenancy): a "name:qos:count[,...]" directory over
    # the fleet's sessions.  Counts must sum to ``num_clients``; None
    # runs tenancy-free and byte-identical to the pre-tenancy fleet.
    tenants: str | None = None
    # Queue-driven autoscaling (repro.tenancy.Autoscaler): the pool is
    # provisioned with ``autoscale_max`` replicas, ``autoscale_min``
    # start live and the rest stand by; ``num_servers`` is ignored when
    # autoscaling is on.
    autoscale: bool = False
    autoscale_min: int = 1
    autoscale_max: int = 4
    autoscale_up_depth: float = 2.0
    autoscale_down_depth: float = 0.0
    autoscale_warmup_ms: float = 200.0
    autoscale_hold_ms: float = 1000.0
    autoscale_cooldown_ms: float = 100.0


@dataclass
class FleetOutcome:
    spec: FleetSpec
    results: list[RunResult]
    sessions: list[ClientSession]
    scheduler: FleetScheduler | None = None
    tracer: Tracer | None = None
    sampler: TimelineSampler | None = None
    duration_ms: float = 0.0
    chaos: object | None = None  # ChaosInjector when the run injected faults
    tenancy: TenantDirectory | None = None
    autoscaler: Autoscaler | None = None


def run_fleet(spec: FleetSpec) -> FleetOutcome:
    """Run ``num_clients`` sessions against the serving layer (or the
    legacy bare FIFO server when ``spec.scheduler`` is False)."""
    if spec.num_clients < 1:
        raise ValueError("FleetSpec.num_clients must be >= 1")
    if not spec.scheduler and spec.num_servers != 1:
        raise ValueError(
            "the legacy FIFO topology has exactly one server; "
            "set scheduler=True to use num_servers > 1"
        )
    tenancy = (
        TenantDirectory(list(parse_tenants(spec.tenants)))
        if spec.tenants is not None
        else None
    )
    if tenancy is not None and not spec.scheduler:
        raise ValueError("tenancy requires the serving layer; set scheduler=True")
    if tenancy is not None and tenancy.num_sessions != spec.num_clients:
        raise ValueError(
            f"tenant session counts sum to {tenancy.num_sessions} "
            f"but the fleet has num_clients={spec.num_clients}"
        )
    if spec.autoscale and not spec.scheduler:
        raise ValueError("autoscaling requires the serving layer; set scheduler=True")
    num_servers = spec.autoscale_max if spec.autoscale else spec.num_servers
    # Resolve chaos knobs up front so unknown names fail before any
    # rendering happens.
    scenario = make_scenario(spec.scenario) if spec.scenario is not None else None
    faults = make_faults(spec.faults)
    if faults and not spec.scheduler:
        needs_scheduler = [f.kind for f in faults if f.kind != "stall_channel"]
        if needs_scheduler:
            raise ValueError(
                f"fault kinds {needs_scheduler} act on the FleetScheduler; "
                "set scheduler=True to inject them"
            )
    for fault in faults:
        if fault.kind in ("kill_replica", "straggler") and not (
            0 <= fault.target < num_servers
        ):
            raise ValueError(
                f"fault target {fault.target} out of range for "
                f"{num_servers} server(s)"
            )
    tracer = Tracer(wall_clock=spec.trace_wall_clock) if spec.trace else NULL_TRACER

    # One deterministic scene + client per device; independent channel
    # jitter streams spawned from the single experiment seed.
    channel_rngs = spawn_channel_rngs(spec.seed, spec.num_clients)
    network = scenario.network if scenario is not None else spec.network
    chaos = ChaosInjector(faults, tracer=tracer) if (faults or scenario) else None
    sessions = []
    for index in range(spec.num_clients):
        if scenario is not None:
            video = build_video(
                scenario,
                num_frames=spec.num_frames,
                resolution=spec.resolution,
                seed=spec.seed + index,
            )
        else:
            video = make_dataset(
                spec.dataset,
                num_frames=spec.num_frames,
                resolution=spec.resolution,
                motion_grade=spec.motion_grade,
                seed=spec.seed + index,
            )
        client = build_client(
            spec.system, video, seed=spec.seed + index, tracer=tracer
        )
        channel = make_channel(network, channel_rngs[index])
        if scenario is not None and apply_network(scenario, channel) and chaos is not None:
            chaos.note(
                "handoff_scheduled",
                session=index,
                at_ms=round(scenario.handoff_at_ms, 6),
                to=scenario.handoff_to,
            )
        sessions.append(ClientSession(video=video, client=client, channel=channel))

    device = _server_device(spec.server_device, spec.server_latency_scale)
    servers = [
        EdgeServer(
            SimulatedSegmentationModel(
                "mask_rcnn_r101",
                device,
                np.random.default_rng(spec.seed + 29 + index),
                metrics=tracer.metrics,
            ),
            tracer=tracer,
        )
        for index in range(num_servers)
    ]

    scheduler = None
    autoscaler = None
    if spec.scheduler:
        scheduler = FleetScheduler(
            servers,
            policy=spec.policy,
            admission=AdmissionConfig(
                queue_limit=spec.queue_limit,
                deadline_horizon=spec.deadline_horizon,
            ),
            degrade=DegradeConfig(
                enabled=spec.degrade,
                failure_threshold=spec.degrade_failure_threshold,
                min_degraded_ms=spec.degrade_min_ms,
                recover_depth=spec.degrade_recover_depth,
            ),
            num_sessions=spec.num_clients,
            tracer=tracer,
            batching=BatchConfig(
                window_ms=spec.batch_window_ms,
                max_size=spec.max_batch_size,
                alpha=spec.batch_alpha,
            ),
            tenancy=tenancy,
        )
        if spec.autoscale:
            autoscaler = Autoscaler(
                scheduler,
                AutoscalerConfig(
                    min_replicas=spec.autoscale_min,
                    scale_up_depth=spec.autoscale_up_depth,
                    scale_down_depth=spec.autoscale_down_depth,
                    warmup_ms=spec.autoscale_warmup_ms,
                    scale_down_hold_ms=spec.autoscale_hold_ms,
                    cooldown_ms=spec.autoscale_cooldown_ms,
                ),
            )
        backend = scheduler
    else:
        backend = servers[0]

    sampler = (
        TimelineSampler(tracer.metrics, interval_ms=spec.sample_interval_ms)
        if spec.sample_interval_ms is not None
        else None
    )
    if chaos is not None:
        chaos.bind(scheduler if scheduler is not None else backend, sessions, tracer)
    pipeline = MultiClientPipeline(
        sessions,
        backend,
        warmup_frames=spec.warmup_frames,
        tracer=tracer,
        deadline_budget_ms=spec.deadline_budget_ms,
        sampler=sampler,
        chaos=chaos,
        autoscaler=autoscaler,
    )
    results = pipeline.run()
    duration = spec.num_frames * (1000.0 / sessions[0].video.fps)
    return FleetOutcome(
        spec=spec,
        results=results,
        sessions=sessions,
        scheduler=scheduler,
        tracer=tracer if spec.trace else None,
        sampler=sampler,
        duration_ms=duration,
        chaos=chaos,
        tenancy=tenancy,
        autoscaler=autoscaler,
    )
