"""Observe the simulator from outside: a tick clock and per-layer probes.

Both work by replacing public functions and methods of ``repro`` with
wrappers for the length of a ``with`` block, then putting the originals
back.  A function is replaced in every loaded ``repro`` module that bound
it at import time (``from .brief import hamming_distance``), so callers
that hold their own reference are observed too.  The wrappers only
observe: they pass arguments and results through unchanged.

* :class:`TickClock` is always installed.  It sees a simulated frame tick
  begin at the first ``SyntheticVideo.frame_at`` call for a new frame
  index, captures the entry point's outcome, and can stop a run at its
  first tick to time set-up alone.
* :class:`Probes` is installed only for the traced run.  It records one
  span per call of each :data:`TARGETS` entry (name, start, end, parent,
  session-frame id) and the counts the layer ratios need.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Callable

import numpy as np

ENTRY_MODULE = "repro.eval.experiments"


class SetupComplete(Exception):
    """Raised at the first simulated tick of a set-up-only run."""


class MissingTarget(LookupError):
    """A probed function is gone from the program (e.g. after a refactor)."""


def _resolve(module_name: str, attr: str):
    """``(owner, name, original)`` for ``module:attr`` where ``attr`` is a
    function name or ``Class.method``; raises :class:`MissingTarget`."""
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise MissingTarget(f"{module_name}: {exc}") from exc
    owner = module
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise MissingTarget(f"{module_name}.{attr}")
    original = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    if not callable(original):
        raise MissingTarget(f"{module_name}.{attr}")
    return owner, name, original


def patch(stack: ExitStack, module_name: str, attr: str, make_wrapper) -> None:
    """Replace ``module_name.attr`` by ``make_wrapper(original)`` until
    ``stack`` closes.  A module-level function is replaced in every loaded
    ``repro`` module that holds it; a method is replaced on its class."""
    owner, name, original = _resolve(module_name, attr)
    wrapper = make_wrapper(original)
    sites = [(owner, name)]
    if not isinstance(owner, type):
        for mod_name, module in list(sys.modules.items()):
            if module is None or module is owner:
                continue
            if mod_name != "repro" and not mod_name.startswith("repro."):
                continue
            for bound_name, value in list(vars(module).items()):
                if value is original:
                    sites.append((module, bound_name))
    for site, bound_name in sites:
        setattr(site, bound_name, wrapper)
        stack.callback(setattr, site, bound_name, original)


# ----------------------------------------------------------------------
# Tick clock: set-up time, host time per tick, outcome capture
# ----------------------------------------------------------------------
class TickClock:
    """Host timestamps of one run's simulated frame ticks.

    ``enter()`` marks the entry-point call; the first ``frame_at`` call for
    a frame index not seen before starts a tick; the return of
    ``run_experiment`` / ``run_fleet`` ends the last tick and hands over
    the outcome (also when ``run_scenario`` calls ``run_fleet``)."""

    def __init__(self, stop_at_first_tick: bool = False):
        self.stop_at_first_tick = stop_at_first_tick
        self.on_tick: Callable[[int], None] | None = None
        self.entered = 0.0
        self.tick_starts: list[float] = []
        self.closed: float | None = None
        self.outcome = None
        self.entry_spec = None
        self.entry_s = 0.0
        self._last_index = -1

    def enter(self) -> None:
        self.entered = time.perf_counter()

    # -- what the patched functions call --------------------------------
    def frame(self, index: int) -> None:
        if index <= self._last_index:
            return
        self.tick_starts.append(time.perf_counter())
        if self.stop_at_first_tick:
            raise SetupComplete
        self._last_index = index
        if self.on_tick is not None:
            self.on_tick(index)

    def finish(self, spec, outcome, started: float) -> None:
        self.closed = time.perf_counter()
        self.entry_spec = spec
        self.outcome = outcome
        self.entry_s = self.closed - started

    # -- results ----------------------------------------------------------
    @property
    def setup_s(self) -> float:
        return self.tick_starts[0] - self.entered

    def tick_ms(self) -> list[float]:
        """Host milliseconds of every tick, in tick order."""
        ends = self.tick_starts[1:] + [self.closed]
        return [(end - start) * 1e3 for start, end in zip(self.tick_starts, ends)]

    def install(self, stack: ExitStack) -> None:
        clock = self

        def frame_at(original):
            @functools.wraps(original)
            def wrapper(video, index, *args, **kwargs):
                clock.frame(index)
                return original(video, index, *args, **kwargs)

            return wrapper

        def entry(original):
            @functools.wraps(original)
            def wrapper(spec, *args, **kwargs):
                started = time.perf_counter()
                outcome = original(spec, *args, **kwargs)
                clock.finish(spec, outcome, started)
                return outcome

            return wrapper

        patch(stack, "repro.synthetic.world", "SyntheticVideo.frame_at", frame_at)
        patch(stack, ENTRY_MODULE, "run_experiment", entry)
        patch(stack, ENTRY_MODULE, "run_fleet", entry)


# ----------------------------------------------------------------------
# Probes: spans and counts per layer
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Target:
    """One probed function: its span name (``<layer>.<op>``), where it is
    defined, how to read a session-frame id from its arguments, and what
    to count from its arguments and result."""

    span: str
    module: str
    attr: str
    key: Callable | None = None  # (probes, args) -> trace id
    count: Callable | None = None  # (counts, args, result) -> None


def _add(counts: dict, name: str, amount: float = 1) -> None:
    counts[name] = counts.get(name, 0) + amount


def _hamming_pairs(counts, args, result):
    pairs = len(np.atleast_2d(args[0])) * len(np.atleast_2d(args[1]))
    _add(counts, "features.hamming.pairs", pairs)


def _tracking(counts, args, result):
    _add(counts, "vo.track.tracking", bool(result.is_tracking))


def _accepted(counts, args, result):
    _add(counts, "vo.apply.accepted", bool(result))


def _masks(counts, args, result):
    _add(counts, "transfer.masks", len(result))


def _sent(counts, args, result):
    _add(counts, "encoding.decide.send", bool(result.should_send))


def _encoded_bytes(counts, args, result):
    _add(counts, "encoding.bytes", int(result.total_bytes))


def _inference(counts, args, result):
    _add(counts, "model.infer.sim_ms", float(result.total_ms))
    _add(counts, "model.anchors_evaluated", int(result.anchors_evaluated))


def _admitted(counts, args, result):
    _add(counts, "serve.admitted", bool(result[0]))


def _served(counts, args, result):
    for outcome in result:
        if outcome.kind == "shed":
            _add(counts, "serve.shed")
            continue
        _add(counts, "serve.completed")
        _add(counts, "serve.on_time", outcome.completion_ms <= outcome.item.deadline_ms)
        counts.setdefault("serve.sojourn_ms", []).append(
            outcome.completion_ms - outcome.item.arrive_ms
        )


def _video_frame(probes, args):
    return probes.session_frame(probes.sessions.get(id(args[0])), args[1])


def _client_frame(probes, args):
    return probes.session_frame(probes.sessions.get(id(args[0])), args[1].index)


def _client_result(probes, args):
    return probes.session_frame(probes.sessions.get(id(args[0])), args[1])


def _submit(probes, args):
    return probes.session_frame(args[1], args[2].frame_index)


def _tick(probes, args):
    return f"tick@{args[1]:.3f}ms"


TARGETS = (
    Target("synthetic.frame_at", "repro.synthetic.world", "SyntheticVideo.frame_at",
           key=_video_frame),
    Target("synthetic.render", "repro.synthetic.renderer", "Renderer.render"),
    Target("features.match", "repro.features.matcher", "match_descriptors"),
    Target("features.hamming", "repro.features.brief", "hamming_distance", count=_hamming_pairs),
    Target("vo.observe", "repro.vo.frontend", "OracleFrontend.observe"),
    Target("vo.observe", "repro.vo.frontend", "FastBriefFrontend.observe"),
    Target("vo.track", "repro.vo.odometry", "VisualOdometry.process_frame", count=_tracking),
    Target("vo.apply", "repro.vo.odometry", "VisualOdometry.apply_segmentation", count=_accepted),
    Target("vo.keyframe", "repro.vo.map", "LabeledMap.add_keyframe"),
    Target("geometry.pose", "repro.geometry.bundle_adjustment", "refine_pose"),
    Target("geometry.pose", "repro.geometry.bundle_adjustment", "solve_pnp"),
    Target("geometry.init", "repro.geometry.epipolar", "recover_relative_pose"),
    Target("geometry.init", "repro.geometry.triangulation", "triangulate_dlt"),
    Target("transfer.predict", "repro.transfer.mask_transfer", "MaskTransferEngine.predict",
           count=_masks),
    Target("encoding.decide", "repro.encoding.cfrs", "ContentRoiSelector.decide", count=_sent),
    Target("encoding.encode", "repro.encoding.cfrs", "ContentRoiSelector.encode",
           count=_encoded_bytes),
    Target("encoding.encode", "repro.encoding.cfrs", "ContentRoiSelector.encode_uniform",
           count=_encoded_bytes),
    Target("core.process_frame", "repro.core.system", "EdgeISSystem.process_frame",
           key=_client_frame),
    Target("core.receive_result", "repro.core.system", "EdgeISSystem.receive_result",
           key=_client_result),
    Target("network.uplink", "repro.network.channel", "Channel.uplink_ms"),
    Target("network.downlink", "repro.network.channel", "Channel.downlink_ms"),
    Target("model.infer", "repro.model.maskrcnn", "SimulatedSegmentationModel.infer",
           count=_inference),
    Target("serve.submit", "repro.serve.scheduler", "FleetScheduler.submit",
           key=_submit, count=_admitted),
    Target("serve.advance", "repro.serve.scheduler", "FleetScheduler.advance",
           key=_tick, count=_served),
    Target("chaos.tick", "repro.chaos.faults", "ChaosInjector.tick", key=_tick),
    Target("obs.analytics", "repro.obs.bench", "stage_percentiles"),
    Target("obs.analytics", "repro.obs.slo", "evaluate_slo"),
    Target("obs.analytics", "repro.obs.budget", "evaluate_error_budget"),
    Target("obs.analytics", "repro.obs.critical", "miss_causes"),
)

# Span fields, in the order each span list holds them.
SPAN_FIELDS = ("id", "name", "start", "end", "parent", "trace")


class Probes:
    """Spans and counts of one traced run, kept in memory.

    A span's ``trace`` is the session-frame it works for (``s<session>-f
    <frame>``): read from the arguments where the probed function names
    it, inherited from the parent span otherwise, and for a top-level
    span taken from the last top-level span that named one (an uplink
    follows the frame whose offload it carries).  Fleet-wide work such as
    the scheduler's drain is keyed by its tick instead."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.counts: dict = {}
        self.sessions: dict[int, int] = {}  # id(video or client) -> session
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._turn = None

    @staticmethod
    def session_frame(session, frame) -> str | None:
        return None if session is None else f"s{session}-f{frame}"

    def on_tick(self, index: int) -> None:
        self._turn = f"tick-{index}"

    def begin(self, name: str, trace: str | None) -> list:
        parent = self._stack[-1] if self._stack else None
        if trace is None:
            trace = parent[5] if parent is not None else self._turn
        elif parent is None:
            self._turn = trace
        span = [
            len(self.spans),
            name,
            time.perf_counter(),
            None,
            parent[0] if parent is not None else None,
            trace,
        ]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack.pop()

    def install(self, stack: ExitStack) -> None:
        for target in self.targets:
            try:
                patch(stack, target.module, target.attr, functools.partial(self._wrap, target))
            except MissingTarget as exc:
                self.missing.append(target.span)
                print(
                    f"hostbench: warning: probe target {exc} is missing; "
                    f"{target.span} metrics are reported absent",
                    file=sys.stderr,
                )
        probes = self

        def build_client(original):
            @functools.wraps(original)
            def wrapper(name, video, *args, **kwargs):
                client = original(name, video, *args, **kwargs)
                session = len({*probes.sessions.values()})
                probes.sessions[id(video)] = session
                probes.sessions[id(client)] = session
                return client

            return wrapper

        patch(stack, ENTRY_MODULE, "build_client", build_client)

    def _wrap(self, target: Target, original):
        probes = self
        name, key, count = target.span, target.key, target.count

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = probes.begin(name, key(probes, args) if key is not None else None)
            try:
                result = original(*args, **kwargs)
            finally:
                probes.end(span)
            if count is not None:
                count(probes.counts, args, result)
            return result

        return wrapper
