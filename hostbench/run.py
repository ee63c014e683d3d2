"""Host-time benchmark of the edgeIS simulator.

    python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.

``--trace 0`` times set-up alone several times, then repeats the workload
(same seed) until ``--seconds`` have passed, and reports the end-to-end
host metrics.  ``--trace 1`` runs the workload once untraced and once with
the layer probes of ``layers.py`` installed, and reports per-layer self
times, counts and ratios; the spans and a layer table are written under
``hostbench/out/``.  Both modes check the simulated results: every session
returns one frame metric per frame with every IoU in [0, 1], and the
simulated metrics and the per-session result digest are identical across
all repetitions of the seed, traced or not.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (session-frames) and ``metrics``.
"""

import os

# One process, one thread: pin the BLAS/OpenMP pools before numpy loads.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import ExitStack  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

from layers import Probes, SetupComplete, TickClock  # noqa: E402
from measure import failure_share, highest_reportable, nearest_rank  # noqa: E402
from report import layer_metrics, layer_table, write_spans  # noqa: E402
from workloads import (  # noqa: E402
    SIM_UNITS,
    WORKLOADS,
    call,
    check_results,
    digest,
    session_results,
    sim_metrics,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Set-up-only runs per --trace 0 run (each full repetition adds one more
# set-up sample).
SETUP_PROBES = 10
# Ticks needed so the p90 has at least ten ticks beyond it.
MIN_TICKS = 100

END_TO_END_UNITS = {
    "setup_s": "s",
    "frames_per_s": "session-frames/s",
    "tick_ms_p50": "ms",
    "tick_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Rep:
    """One full repetition of a workload."""

    setup_s: float
    wall_s: float  # entry point, set-up included
    window_s: float  # first tick to the entry point's return
    entry_s: float  # run_experiment / run_fleet alone
    tick_ms: list
    session_frames: int
    failed: int
    sim: dict
    digest: str
    clock: object


def timed(workload, invoke, probes=None) -> Rep:
    """Run ``invoke(clock)`` (one entry-point call) under the tick clock,
    and the layer probes when given, and check what it returned."""
    from repro.obs.slo import FRAME_BUDGET_MS

    clock = TickClock()
    with ExitStack() as stack:
        if probes is not None:
            probes.install(stack)
            clock.on_tick = probes.on_tick
        clock.install(stack)
        invoke(clock)
        done = time.perf_counter()
    results = session_results(clock.outcome)
    return Rep(
        setup_s=clock.setup_s,
        wall_s=done - clock.entered,
        window_s=done - clock.tick_starts[0],
        entry_s=clock.entry_s,
        tick_ms=clock.tick_ms(),
        session_frames=sum(len(result.frames) for result in results),
        failed=check_results(results, workload),
        sim=sim_metrics(results, getattr(clock.outcome, "scheduler", None), FRAME_BUDGET_MS),
        digest=digest(results),
        clock=clock,
    )


def run_rep(workload, seed, probes=None) -> Rep:
    return timed(workload, lambda clock: call(workload, seed, clock), probes)


def time_setup(workload, seed) -> float:
    """Seconds from the entry-point call to its first tick, stopping there."""
    clock = TickClock(stop_at_first_tick=True)
    with ExitStack() as stack:
        clock.install(stack)
        try:
            call(workload, seed, clock)
        except SetupComplete:
            return clock.setup_s
    raise RuntimeError(f"{workload.name} finished without a simulated tick")


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def consistent(reps) -> bool:
    return all(rep.digest == reps[0].digest and rep.sim == reps[0].sim for rep in reps)


def print_sim(rep: Rep) -> None:
    for name, value in rep.sim.items():
        print(f"  {name:<24} {value:>14.6g} {SIM_UNITS[name]}")
    print(f"  result digest            {rep.digest}")


def end_to_end(workload, seed, seconds) -> tuple[dict, list]:
    deadline = time.perf_counter() + seconds
    setups = [time_setup(workload, seed) for _ in range(SETUP_PROBES)]
    reps = []
    while True:
        rep = run_rep(workload, seed)
        # Free this repetition's outcome now, so it neither raises the
        # next one's memory peak nor is collected inside its timing.
        rep.clock = None
        gc.collect()
        if not reps:
            # Set-up plus one repetition: the peak does not depend on how
            # many repetitions fit in the run.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        reps.append(rep)
        ticks = sum(len(each.tick_ms) for each in reps)
        if ticks >= MIN_TICKS and time.perf_counter() + reps[-1].wall_s > deadline:
            break
    setups += [rep.setup_s for rep in reps]
    ticks = [tick for rep in reps for tick in rep.tick_ms]
    top = highest_reportable(len(ticks))
    metrics = {
        "setup_s": statistics.median(setups),
        "frames_per_s": statistics.median(rep.session_frames / rep.window_s for rep in reps),
        "tick_ms_p50": nearest_rank(ticks, 50.0),
        "tick_ms_p90": nearest_rank(ticks, 90.0),
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"{workload.name} seed={seed}: {len(reps)} repetitions, {len(setups)} set-up samples")
    for name, value in metrics.items():
        print(f"  {name:<24} {value:>14.6g} {END_TO_END_UNITS[name]}")
    print(f"  ticks                    {len(ticks):>14d} samples")
    print(f"  tick_ms_p{top:g} (highest with >=10 beyond) {nearest_rank(ticks, top):.6g} ms")
    print_sim(reps[0])
    return metrics, reps


def per_layer(workload, seed) -> tuple[dict, list, dict]:
    base = run_rep(workload, seed)
    reps = [base]
    tracer_overhead_pct = 0.0
    if workload.repo_tracer:
        # The same cell through run_fleet with the repo tracer off: the
        # results must not change, and the time difference is its cost.
        from repro.eval import experiments

        def tracer_off(clock):
            clock.enter()
            experiments.run_fleet(replace(base.clock.entry_spec, trace=False))

        off = timed(workload, tracer_off)
        reps.append(off)
        tracer_overhead_pct = (base.entry_s - off.entry_s) / off.entry_s * 100.0
    gc.collect()
    probes = Probes()
    traced = run_rep(workload, seed, probes=probes)
    reps.append(traced)
    metrics, extra = layer_metrics(probes, traced, tracer_overhead_pct, base.wall_s)
    if not extra["additive"]:
        print("hostbench: layer self times do not add up to the tick time", file=sys.stderr)
    table = layer_table(probes, traced)
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{seed}"
    write_spans(OUT / f"{stem}-spans.jsonl", probes, traced.clock)
    (OUT / f"{stem}-layers.txt").write_text(table)
    print(f"{workload.name} seed={seed}: traced run, {len(probes.spans)} spans")
    print(table, end="")
    for name, (value, unit) in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        base_note = extra["ratio_bases"].get(name)
        note = f"  ({base_note[0]:g} / {base_note[1]:g})" if base_note else ""
        print(f"  {name:<34} {shown:>14} {unit}{note}")
    print_sim(base)
    return metrics, reps, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro.eval.experiments
    except ImportError as exc:
        print(f"hostbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if (ROOT / "src") not in Path(repro.eval.experiments.__file__).resolve().parents:
        print(f"hostbench: imported repro from {repro.eval.experiments.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"hostbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment()
    print(f"workload {workload.name}: {workload.why}")
    print("env " + json.dumps(env, sort_keys=True))

    per_run = workload.sessions * workload.frames
    try:
        if args.trace:
            metrics, reps, extra = per_layer(workload, args.seed)
        else:
            values, reps = end_to_end(workload, args.seed, args.seconds)
            metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}
            extra = {}
    except Exception:
        # A run that raises fails all its session-frames; report no metrics.
        traceback.print_exc()
        print("runs: 1 attempted, 1 failed")
        print(json.dumps({"correct": False, "attempted": per_run, "failed": per_run,
                          "metrics": {}}))
        return 1
    values = {name: value for name, (value, _) in metrics.items()}
    attempted = len(reps) * per_run
    failed = sum(rep.failed for rep in reps)
    same = consistent(reps)
    if not same:
        print("hostbench: simulated results differ between repetitions of one seed",
              file=sys.stderr)
    correct = failed == 0 and same and extra.get("additive", True)
    print(f"runs: {len(reps)} attempted, 0 failed; session-frames: {failed}/{attempted} "
          f"failed ({failure_share(failed, attempted):.4f})")
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "metrics": values,
        "sim": reps[0].sim,
        "digest": reps[0].digest,
        "repetitions": [{"wall_s": rep.wall_s, "setup_s": rep.setup_s, "digest": rep.digest}
                        for rep in reps],
        **extra,
    }
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    shown = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
