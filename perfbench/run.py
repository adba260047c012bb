"""Wall-clock and simulated-clock benchmark of the soak harness.

Usage, from the repository root::

    python3 perfbench/run.py --workload hps-burst --seed 0 --seconds 35 --trace 0

Each soak runs through the public entry point
``repro.serve.soak.run_soak(SoakConfig)`` (what ``python -m repro soak``
runs), built from ``src/`` of the checkout.  ``--trace 0`` reports the
end-to-end metrics, measured with no tracing; their times are scaled to
the reference host speed by the slowdown :mod:`calibrate` measures
between soaks (the unscaled values are printed beside them).
``--trace 1`` alternates untraced, metrics-off and traced soaks and
reports the per-layer account (see :mod:`layers`).  The last line of
standard output is one JSON object; the exit code is non-zero when any
correctness check failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

#: end-to-end metric name → unit (the order they print in)
END_TO_END = {
    "wall_rps": "req/s",
    "serve_wall_p50_ms": "ms",
    "serve_cpu_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_ok_frac": "share",
    "sim_p99_s0": "s0",
}


def _bootstrap() -> None:
    """Put the checkout's ``src/`` first on the path and pay every one-off
    import (``scipy.stats`` is imported lazily by the solver) before any
    clock starts."""
    # One process, one thread: BLAS worker threads would only contend
    # with the serving loop for the same cores.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {src}")
    sys.path.insert(0, str(src))
    import scipy.stats  # noqa: F401

    import repro  # noqa: F401
    import repro.cluster.soak  # noqa: F401
    import repro.serve.soak  # noqa: F401


@dataclass
class Rep:
    """One soak: its report and what the instruments saw."""

    report: object
    setup_s: float
    serving_s: float
    serve_seconds: list[float]
    serve_cpu_seconds: list[float]
    failed: int
    bad_rows: int
    account: dict | None = None
    tracer: object = None
    t_enter: float = 0.0
    execute_bytes: int = 0
    metric_lookups: int = 0
    traced_bad_rows: int = 0
    waits_s0: list[float] = field(default_factory=list)
    #: host slowdown measured around this soak (:mod:`calibrate`)
    slowdown: float = 1.0

    @property
    def requests(self) -> int:
        return self.report.requests

    def problems(self) -> list[str]:
        r = self.report
        out = []
        if not r.ok:
            out.append("SoakReport.ok is false")
        if r.integrity_failures:
            out.append(f"{r.integrity_failures} integrity failure(s)")
        if r.corrupt_values_served:
            out.append(f"{r.corrupt_values_served} corrupt value(s) served")
        if self.bad_rows:
            out.append(f"{self.bad_rows} served row(s) differ from the host table")
        if self.traced_bad_rows:
            out.append(
                f"{self.traced_bad_rows} row(s) at execute/CacheNode.serve "
                "differ from the host table"
            )
        return out


def run_rep(workload, seed: int, mode: str = "plain") -> Rep:
    """One soak of ``workload`` on ``seed``.

    ``mode`` is ``"plain"`` (metrics on, no tracing), ``"metrics-off"``
    (a disabled ``MetricsRegistry``) or ``"traced"``.  Every mode gets a
    fresh registry, because the default one accumulates across runs.
    """
    from repro.obs import MetricsRegistry, use_registry
    from repro.serve.request import RequestStatus
    from repro.serve.soak import run_soak

    from layers import ENTRY_SPANS, METRIC_LOOKUPS, SPANS
    from tracer import Patcher, ServeProbe, Tracer

    cfg = workload.soak_config(seed)
    registry = MetricsRegistry("perfbench", enabled=mode != "metrics-off")
    probe = ServeProbe()
    tracer = Tracer(ENTRY_SPANS) if mode == "traced" else None
    counts = {"bytes": 0, "lookups": 0, "bad_rows": 0}
    gc.collect()
    with Patcher() as patcher, use_registry(registry):
        probe.install(patcher)
        if tracer is not None:
            _install_tracer(patcher, tracer, counts, SPANS, METRIC_LOOKUPS)
        t_enter = perf_counter()
        report = run_soak(cfg)
        t_exit = perf_counter()
    if probe.first_submit is None:
        raise RuntimeError(f"{workload.name}: the soak submitted no request")
    failed, bad_rows = probe.failures()
    rep = Rep(
        report=report,
        setup_s=probe.first_submit - t_enter,
        serving_s=t_exit - probe.first_submit,
        serve_seconds=probe.serve_seconds,
        serve_cpu_seconds=probe.serve_cpu_seconds,
        failed=failed,
        bad_rows=bad_rows,
    )
    s0 = report.baseline_service
    rep.waits_s0 = [
        (r.completed_at - r.service_time - r.request.arrival) / s0
        for _table, r in probe.responses
        if r.status in (RequestStatus.OK, RequestStatus.EXPIRED)
        and r.service_time > 0
    ]
    if tracer is not None:
        rep.account = tracer.account(tracer.serving_start, t_exit)
        rep.execute_bytes = counts["bytes"]
        rep.metric_lookups = counts["lookups"]
        rep.traced_bad_rows = counts["bad_rows"]
        rep.tracer = tracer
        rep.t_enter = t_enter
    return rep


def _install_tracer(patcher, tracer, counts, spans, lookups) -> None:
    """Span every layer boundary; count bytes gathered and metric lookups;
    check every row served at execute / CacheNode.serve bit-exact."""
    import numpy as np

    def plan_keys(plan):
        keys = np.empty(plan.batch_size, dtype=np.int64)
        for group in plan.groups:
            keys[group.batch_positions] = group.keys
        return keys

    def count_bytes(args, result, _open):
        counts["bytes"] += result[0].nbytes

    def check_execute(args, result, open_names):
        # Inside a cluster node the read guard patches rotten rows after
        # execute returns; that node's serve boundary is checked instead.
        if "cluster.node.serve" in open_names:
            return
        extractor, plan = args[0], args[1]
        expected = extractor.cache.host_table[plan_keys(plan)]
        counts["bad_rows"] += int((result[0] != expected).any(axis=1).sum())

    def check_node(args, result, _open):
        node, keys = args[0], np.asarray(args[1], dtype=np.int64)
        expected = node.cache.host_table[keys]
        counts["bad_rows"] += int((result[0] != expected).any(axis=1).sum())

    after = {
        "core.pipeline.execute_plan": count_bytes,
        "core.extractor.execute": check_execute,
        "cluster.node.serve": check_node,
    }
    for name, target in spans:
        patcher.patch(target, tracer.span_wrapper(name, after.get(name)))

    def count_lookup(fn):
        def wrapper(*args, **kwargs):
            counts["lookups"] += 1
            return fn(*args, **kwargs)
        return wrapper

    for target in lookups:
        patcher.patch(target, count_lookup)


def _tail(samples: list[float], q: float = 99.0) -> tuple[float, float]:
    """``(value, percentile)`` at ``q`` or, when fewer than 10 samples lie
    beyond it, at the highest percentile that has 10 beyond it."""
    n = len(samples)
    q = max(0.0, min(q, 100.0 * (1.0 - 10.0 / n)))
    return _percentile(samples, q), q


def _percentile(samples: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(samples), q))


def _measure(workload, seeds: list[int], seconds: float, modes: list[str],
             calibrator=None):
    """Cycle ``seeds`` through ``modes`` until ``seconds`` have passed and
    every seed has run once; returns ``{mode: [Rep, ...]}``.  With a
    ``calibrator``, each soak's ``slowdown`` is the mean of the host
    slowdowns measured just before and just after it."""
    reps: dict[str, list[Rep]] = {m: [] for m in modes}
    deadline = perf_counter() + seconds
    before = calibrator.slowdown() if calibrator is not None else 1.0
    i = 0
    while i < len(seeds) or perf_counter() < deadline:
        order = modes if i % 2 == 0 else modes[::-1]
        for mode in order:
            rep = run_rep(workload, seeds[i % len(seeds)], mode)
            if calibrator is not None:
                after = calibrator.slowdown()
                rep.slowdown = (before + after) / 2
                before = after
            reps[mode].append(rep)
        i += 1
    return reps


def end_to_end(workload, seeds, seconds) -> tuple[dict, list[Rep], list[str]]:
    """Every time is divided by its soak's host slowdown (:mod:`calibrate`),
    so the numbers read as if the host ran at the reference speed.

    The tail is each soak's p99 of the process CPU time of one serve call,
    and the median of those over the soaks.  In wall time the slowest serve
    calls are mostly time the host did not run the process (over 25
    cluster-bitrot soaks in one process the wall p99 ranged 5.4-8.7 ms,
    the CPU p99 5.3-6.1 ms), which no slowdown factor takes out; and a
    tail pooled over soaks picks the soaks whose slowdown was measured too
    low.  The pooled wall tail is
    printed beside it."""
    from calibrate import Calibrator

    reps = _measure(workload, seeds, seconds, ["plain"], Calibrator())["plain"]
    sim = reps[: len(seeds)]  # exactly one soak per sub-seed
    wall = [s for r in reps for s in r.serve_seconds]
    scaled_wall = [s / r.slowdown for r in reps for s in r.serve_seconds]
    soak_cpu_p99 = [_percentile(r.serve_cpu_seconds, 99.0) for r in reps]
    slowdowns = [r.slowdown for r in reps]
    values = {
        "wall_rps": statistics.median(
            r.requests / r.serving_s * r.slowdown for r in reps
        ),
        "serve_wall_p50_ms": 1e3 * _percentile(scaled_wall, 50.0),
        "serve_cpu_p99_ms": 1e3 * statistics.median(
            p / r.slowdown for p, r in zip(soak_cpu_p99, reps)
        ),
        "setup_s": statistics.median(r.setup_s / r.slowdown for r in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_ok_frac": sum(r.report.served_ok for r in sim)
        / sum(r.requests for r in sim),
        "sim_p99_s0": statistics.fmean(
            r.report.p99_latency / r.report.baseline_service for r in sim
        ),
    }
    unscaled = {
        "wall_rps": statistics.median(r.requests / r.serving_s for r in reps),
        "serve_wall_p50_ms": 1e3 * _percentile(wall, 50.0),
        "serve_cpu_p99_ms": 1e3 * statistics.median(soak_cpu_p99),
        "setup_s": statistics.median(r.setup_s for r in reps),
    }
    wall_tail, q = _tail(wall)
    offered = sum(r.requests for r in reps)
    failed = sum(r.failed for r in reps)
    notes = [
        f"{len(reps)} soaks over {len(seeds)} sub-seeds, {offered} requests "
        f"offered; sim_* from the first {len(sim)} soaks",
        f"{len(wall)} serve calls ({min(len(r.serve_seconds) for r in reps)} "
        f"or more per soak); pooled wall p{q:.3g} unscaled {1e3 * wall_tail:.6g} ms",
        f"host slowdown per soak: median {statistics.median(slowdowns):.3f} "
        f"(min {min(slowdowns):.3f}, max {max(slowdowns):.3f}); unscaled: "
        + ", ".join(f"{k} {v:.6g}" for k, v in unscaled.items()),
        f"failed_frac {failed / offered:.6f} ({failed} of {offered}: FAILED "
        "status, partial cluster response, or a row not bit-exact)",
    ]
    return values, reps, notes


def per_layer(workload, seeds, seconds, seed: int):
    from layers import PLANS_SPAN, SPANS

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    modes = ["plain", "metrics-off", "traced"]
    reps = _measure(workload, seeds[:1], seconds, modes)
    traced = reps["traced"]
    traced[-1].tracer.write(spans_path, traced[-1].t_enter)

    requests = sum(r.requests for r in traced)
    layers: dict[str, list] = {name: [0, 0.0] for name, _ in SPANS}
    other = wall = 0.0
    for rep in traced:
        for name, (calls, self_s) in rep.account["layers"].items():
            layers[name][0] += calls
            layers[name][1] += self_s
        other += rep.account["other_s"]
        wall += rep.account["wall_s"]
    values: dict[str, float] = {}
    for name, _target in SPANS:
        calls, self_s = layers[name]
        values[f"{name}.self_us"] = 1e6 * self_s / calls if calls else 0.0
        if name != PLANS_SPAN:
            values[f"{name}.calls_per_req"] = calls / requests

    def total(attr) -> float:
        return sum(getattr(r.report, attr) for r in traced)

    def mean(attr) -> float:
        return total(attr) / len(traced)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    # Overheads pair the soaks of one round (same sub-seed, adjacent in
    # time) and report the median ratio, so a machine slowing down between
    # rounds does not read as overhead.
    plain = [r.serving_s for r in reps["plain"]]
    off = [r.serving_s for r in reps["metrics-off"]]
    traced_wall = [r.account["wall_s"] for r in traced]
    metrics_ratio = statistics.median(p / o for p, o in zip(plain, off))
    trace_ratio = statistics.median(t / p for t, p in zip(traced_wall, plain))
    waits = [w for r in traced for w in r.waits_s0]
    derived = {
        "core.pipeline.plans_per_req": layers[PLANS_SPAN][0] / requests,
        "core.pipeline.execute_plan.bytes_per_call": ratio(
            sum(r.execute_bytes for r in traced),
            layers["core.pipeline.execute_plan"][0],
        ),
        "obs.metrics.lookups_per_req": sum(r.metric_lookups for r in traced)
        / requests,
        "obs.metrics_overhead_frac": metrics_ratio - 1.0,
        "obs.metrics_overhead.on_wall_s": statistics.median(plain),
        "obs.metrics_overhead.off_wall_s": statistics.median(off),
        "serve.queueing.rejected_frac": ratio(
            total("rejected") + total("shed"), requests
        ),
        "serve.queueing.sim_wait_p99_s0": _tail(waits)[0] if waits else 0.0,
        "serve.coalesce.mean_batch": mean("mean_batch_size"),
        "serve.coalesce.dedup_ratio": mean("dedup_ratio"),
        "core.prefetch.hit_rate": mean("prefetch_hit_rate"),
        "core.prefetch.wasted_bytes_per_req": total("prefetch_wasted_bytes")
        / requests,
        "core.drift_adapt.check.calls": layers["core.drift_adapt.check"][0]
        / len(traced),
        "serve.adaptation.detections": mean("drift_detections"),
        "core.solver.incremental_frac": ratio(
            total("adapt_incremental_resolves"), total("adapt_resolves")
        ),
        "serve.policy_manager.swaps_landed": mean("swaps_landed"),
        "repair.scrub.mismatch_frac": ratio(
            total("scrub_mismatches"), total("scrub_scanned_slots")
        ),
        "soak.other.self_us_per_req": 1e6 * other / requests,
        "trace.overhead_frac": trace_ratio - 1.0,
        "trace.overhead.traced_wall_s": statistics.median(traced_wall),
        "trace.overhead.untraced_wall_s": statistics.median(plain),
    }
    values.update(derived)

    covered = sum(self_s for _calls, self_s in layers.values())
    all_reps = [r for group in reps.values() for r in group]
    problems = []
    # Tracing and disabled metrics must not change what the soak does.
    if len({(r.requests, r.report.served_ok, r.report.p99_latency)
            for r in all_reps}) > 1:
        problems.append(
            "untraced, metrics-off and traced soaks of one seed disagree "
            "on the simulated clock"
        )
    if other < -0.01 * wall:
        problems.append(
            f"layer self times exceed the traced wall by {-other:.3f}s "
            "(overlapping spans)"
        )
    notes = [
        f"{len(traced)} traced soaks ({requests} requests), "
        f"{len(reps['plain'])} untraced, {len(reps['metrics-off'])} "
        "metrics-off, all on sub-seed 0",
        f"account: layer self {covered:.4f}s + soak.other {other:.4f}s = "
        f"{covered + other:.4f}s; traced serving wall {wall:.4f}s",
        f"spans of one traced soak written to {spans_path.relative_to(ROOT)}",
    ]
    top = sorted(layers.items(), key=lambda kv: -kv[1][1])[:12]
    for name, (calls, self_s) in top:
        notes.append(
            f"  {name:40s} {calls / requests:8.2f} calls/req "
            f"{1e6 * self_s / max(calls, 1):10.1f} us/call "
            f"{100 * self_s / wall:5.1f}% of wall"
        )
    return values, all_reps, notes, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _bootstrap()
    from layers import per_layer_metrics
    from workloads import WORKLOADS, sub_seeds

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}"
        )
    workload = WORKLOADS[args.workload]
    seeds = sub_seeds(args.seed, workload.reps)

    # Let lazy set-up finish and the allocator reach its steady state
    # before any clock: one full untimed soak (still checked).
    problems = run_rep(workload, seeds[0]).problems()
    if args.trace:
        values, reps, notes, layer_problems = per_layer(
            workload, seeds, args.seconds, args.seed
        )
        problems.extend(layer_problems)
        units = {k: u for k, (u, _better) in per_layer_metrics().items()}
    else:
        values, reps, notes = end_to_end(workload, seeds, args.seconds)
        units = END_TO_END
    for rep in reps:
        problems.extend(rep.problems())

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, unit in units.items():
        print(f"  {name:48s} {values[name]:14.6g} {unit}")
    for problem in sorted(set(problems)):
        print(f"  CHECK FAILED: {problem}")
    correct = not problems and all(math.isfinite(v) for v in values.values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r.requests for r in reps),
                "failed": sum(r.failed for r in reps),
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
