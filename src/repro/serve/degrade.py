"""MAMT-fallback degradation: the fleet's graceful-overload state machine.

When the scheduler repeatedly rejects or sheds a client's offloads, the
client is moved to **degraded** mode: it stays alive on pure on-device
MAMT mask transfer (no encode, no uplink, no integration spikes) while
the fleet drains.  Once queue depth recovers, degraded clients are
re-admitted **one per tick** (staggered, so recovery does not instantly
re-saturate the pool), each with a keyframe request so the edge gets a
full-quality frame to re-anchor the client's instance map.

States per session::

    NORMAL --(>= failure_threshold consecutive reject/shed)--> DEGRADED
    DEGRADED --(queue depth <= recover_depth for >= min_degraded_ms,
                oldest degraded first)--> NORMAL (+ keyframe request)

The manager is pure bookkeeping — it never touches clients or servers
directly; the pipeline reads its verdicts and flips the client's offload
mode through the ``set_offload_enabled`` / ``request_keyframe`` methods
of the :class:`~repro.runtime.interface.ClientSystem` protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["DegradeConfig", "SessionHealth", "DegradeManager"]

NORMAL = "normal"
DEGRADED = "degraded"


@dataclass(frozen=True)
class DegradeConfig:
    """Knobs of the degrade -> recover state machine."""

    enabled: bool = True
    # Consecutive reject/shed outcomes before a session is degraded.
    failure_threshold: int = 2
    # Fleet-wide queued-request count at or below which recovery starts.
    recover_depth: int = 1
    # A degraded session stays down at least this long (ms) — prevents
    # flapping between degraded and re-admitted every other frame.
    min_degraded_ms: float = 300.0


@dataclass
class SessionHealth:
    """Mutable per-session degradation state."""

    state: str = NORMAL
    consecutive_failures: int = 0
    degraded_at_ms: float = 0.0
    degrade_count: int = 0
    recover_count: int = 0
    keyframe_pending: bool = False


class DegradeManager:
    """Tracks per-session health and decides degrade/recover moments."""

    def __init__(
        self,
        num_sessions: int,
        config: DegradeConfig | None = None,
        thresholds: dict[int, int] | None = None,
        recover_rank: dict[int, int] | None = None,
    ):
        self.config = config or DegradeConfig()
        self.sessions: dict[int, SessionHealth] = {
            index: SessionHealth() for index in range(num_sessions)
        }
        # Optional per-session QoS overrides (repro.tenancy): a session's
        # failure threshold scales with its QoS class (premium degrades
        # last), and recovery is granted in rank order (premium first)
        # before falling back to oldest-degraded-first.
        self.thresholds = thresholds or {}
        self.recover_rank = recover_rank or {}
        self.degrade_events = 0
        self.recover_events = 0

    # ------------------------------------------------------------------
    def is_degraded(self, session_index: int) -> bool:
        return self.sessions[session_index].state == DEGRADED

    def degraded_sessions(self) -> list[int]:
        return sorted(
            index
            for index, health in self.sessions.items()
            if health.state == DEGRADED
        )

    # ------------------------------------------------------------------
    def on_failure(self, session_index: int, now_ms: float) -> bool:
        """Record a reject/shed; returns True when this one tips the
        session into degraded mode."""
        health = self.sessions[session_index]
        health.consecutive_failures += 1
        threshold = self.thresholds.get(
            session_index, self.config.failure_threshold
        )
        if (
            self.config.enabled
            and health.state == NORMAL
            and health.consecutive_failures >= threshold
        ):
            health.state = DEGRADED
            health.degraded_at_ms = now_ms
            health.degrade_count += 1
            health.keyframe_pending = False
            self.degrade_events += 1
            return True
        return False

    def on_success(self, session_index: int) -> None:
        """An admitted (or completed) offload clears the failure run."""
        self.sessions[session_index].consecutive_failures = 0

    # ------------------------------------------------------------------
    def maybe_recover(self, now_ms: float, queue_depth: int) -> int | None:
        """Re-admit at most one session per call, oldest degraded first,
        once the fleet's queue depth has recovered.  Returns the session
        index recovered this tick (with its keyframe request flagged),
        or None."""
        if queue_depth > self.config.recover_depth:
            return None
        candidates = [
            (self.recover_rank.get(index, 0), health.degraded_at_ms, index)
            for index, health in self.sessions.items()
            if health.state == DEGRADED
            and now_ms - health.degraded_at_ms >= self.config.min_degraded_ms
        ]
        if not candidates:
            return None
        _, _, index = min(candidates)
        health = self.sessions[index]
        health.state = NORMAL
        health.consecutive_failures = 0
        health.keyframe_pending = True
        health.recover_count += 1
        self.recover_events += 1
        return index

    def take_keyframe_request(self, session_index: int) -> bool:
        """Consume the one-shot keyframe flag set at recovery."""
        health = self.sessions[session_index]
        if health.keyframe_pending:
            health.keyframe_pending = False
            return True
        return False

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-clean summary for BENCH artifacts and ``serve`` runs."""
        return {
            "degrade_events": self.degrade_events,
            "recover_events": self.recover_events,
            "degraded_at_end": self.degraded_sessions(),
            "per_session": {
                str(index): {
                    "state": health.state,
                    "degrade_count": health.degrade_count,
                    "recover_count": health.recover_count,
                }
                for index, health in sorted(self.sessions.items())
            },
        }
