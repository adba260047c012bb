"""Layer boundaries the traced run wraps, and the per-layer metrics.

Every span name is ``<module>.<function>`` with the ``repro.`` prefix
dropped; the traced run reports ``<span>.self_us`` (mean self time per
call, never a sum) and ``<span>.calls_per_req`` for each, plus the ratios
in :data:`DERIVED`.  A layer that does no work on a workload reports 0
calls and 0 us.

:data:`NOTES` records, per group of metrics, which end-to-end metric it
should move, the workload where it does the most work, and the workload
where the prediction is no change.
"""

from __future__ import annotations

#: (span name, patch target).  A method target patches its class; a
#: function target patches every ``repro`` module that binds it.
SPANS: tuple[tuple[str, str], ...] = (
    # serving core
    ("serve.runtime.submit", "repro.serve.runtime:ServingRuntime.submit"),
    ("serve.runtime.serve_request", "repro.serve.runtime:ServingRuntime.serve_request"),
    ("serve.runtime.serve_batch", "repro.serve.runtime:ServingRuntime.serve_batch"),
    ("serve.runtime.probe", "repro.serve.runtime:ServingRuntime.probe"),
    ("serve.queueing.submit", "repro.serve.queueing:AdmissionController.submit"),
    ("serve.coalesce.flush_at", "repro.serve.coalesce:MicroBatcher.flush_at"),
    ("serve.coalesce.take", "repro.serve.coalesce:MicroBatcher.take"),
    ("core.extractor.plan", "repro.core.extractor:FactoredExtractor.plan"),
    ("core.extractor.execute", "repro.core.extractor:FactoredExtractor.execute"),
    ("core.pipeline.plan_extraction", "repro.core.pipeline:plan_extraction"),
    ("core.pipeline.resolve", "repro.core.pipeline:resolve"),
    ("core.pipeline.reroute", "repro.core.pipeline:reroute"),
    ("core.pipeline.dedicate", "repro.core.pipeline:dedicate"),
    ("core.pipeline.group_by_source", "repro.core.pipeline:group_by_source"),
    ("core.pipeline.execute_plan", "repro.core.pipeline:execute_plan"),
    ("core.pipeline.price_demand", "repro.core.pipeline:price_demand"),
    ("sim.mechanisms.factored_extraction", "repro.sim.mechanisms:factored_extraction"),
    ("sim.mechanisms.core_dedication", "repro.sim.mechanisms:core_dedication"),
    ("core.location_table.lookup_batch", "repro.core.location_table:LocationTable.lookup_batch"),
    ("core.cache.backing_gather", "repro.core.cache:MultiGpuEmbeddingCache.backing_gather"),
    ("core.cache.host_gather", "repro.core.cache:MultiGpuEmbeddingCache.host_gather"),
    ("core.cache.verify_integrity", "repro.core.cache:MultiGpuEmbeddingCache.verify_integrity"),
    ("core.prefetch.prefetch", "repro.core.prefetch:OracleCacher.prefetch"),
    ("core.prefetch.advance", "repro.core.prefetch:OracleCacher.advance"),
    ("core.prefetch.stage_hits", "repro.core.prefetch:OracleCacher.stage_hits"),
    ("faults.injector.advance", "repro.faults.injector:FaultInjector.advance"),
    # write path
    ("serve.adaptation.observe", "repro.serve.adaptation:DriftAdapter.observe"),
    ("serve.adaptation.maybe_adapt", "repro.serve.adaptation:DriftAdapter.maybe_adapt"),
    ("core.drift_adapt.check", "repro.core.drift_adapt:DriftDetector.check"),
    ("serve.policy_manager.solve", "repro.serve.policy_manager:PolicyManager.solve"),
    ("core.solver.solve_policy", "repro.core.solver:solve_policy"),
    ("core.solver.warm_start_policy", "repro.core.solver:warm_start_policy"),
    ("serve.policy_manager.swap", "repro.serve.policy_manager:PolicyManager.swap"),
    ("core.refresher.refresh", "repro.core.refresher:Refresher.refresh"),
    # cluster / repair
    ("cluster.frontend.serve", "repro.cluster.frontend:ClusterFrontend.serve"),
    ("cluster.node.serve", "repro.cluster.node:CacheNode.serve"),
    ("cluster.node.service_seconds", "repro.cluster.node:CacheNode.service_seconds"),
    ("sim.event_sim.simulate_rpc_exchange", "repro.sim.event_sim:simulate_rpc_exchange"),
    ("repair.scrub.tick", "repro.repair.scrub:CacheScrubber.tick"),
    ("repair.scrub.guard_read", "repro.repair.scrub:CacheScrubber.guard_read"),
    ("repair.scrub.scrub_all", "repro.repair.scrub:CacheScrubber.scrub_all"),
    ("repair.restage.grant", "repro.repair.restage:StagedRecovery.grant"),
    ("repair.watchdog.observe", "repro.repair.watchdog:NodeWatchdog.observe"),
)

#: spans whose first entry ends set-up (the first request submitted)
ENTRY_SPANS = frozenset({"serve.runtime.submit", "cluster.frontend.serve"})

#: metric-registry lookups counted (not spanned) for obs.metrics.lookups_per_req
METRIC_LOOKUPS = (
    "repro.obs.metrics:MetricsRegistry.counter",
    "repro.obs.metrics:MetricsRegistry.gauge",
    "repro.obs.metrics:MetricsRegistry.histogram",
)

#: per-layer metrics beyond the per-span pair: name → (unit, better)
DERIVED: dict[str, tuple[str, str]] = {
    "core.pipeline.plans_per_req": ("1/req", "lower"),
    "core.pipeline.execute_plan.bytes_per_call": ("B", "lower"),
    "obs.metrics.lookups_per_req": ("1/req", "lower"),
    "obs.metrics_overhead_frac": ("share", "lower"),
    "obs.metrics_overhead.on_wall_s": ("s", "lower"),
    "obs.metrics_overhead.off_wall_s": ("s", "lower"),
    "serve.queueing.rejected_frac": ("share", "lower"),
    "serve.queueing.sim_wait_p99_s0": ("s0", "lower"),
    "serve.coalesce.mean_batch": ("req", "higher"),
    "serve.coalesce.dedup_ratio": ("ratio", "higher"),
    "core.prefetch.hit_rate": ("share", "higher"),
    "core.prefetch.wasted_bytes_per_req": ("B/req", "lower"),
    "core.drift_adapt.check.calls": ("count", "lower"),
    "serve.adaptation.detections": ("count", "higher"),
    "core.solver.incremental_frac": ("share", "higher"),
    "serve.policy_manager.swaps_landed": ("count", "higher"),
    "repair.scrub.mismatch_frac": ("share", "lower"),
    "soak.other.self_us_per_req": ("us/req", "lower"),
    "trace.overhead_frac": ("share", "lower"),
    "trace.overhead.traced_wall_s": ("s", "lower"),
    "trace.overhead.untraced_wall_s": ("s", "lower"),
}

#: span whose call count is reported as ``core.pipeline.plans_per_req``
#: instead of ``<span>.calls_per_req``
PLANS_SPAN = "core.pipeline.plan_extraction"


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name → (unit, better), in report order."""
    out: dict[str, tuple[str, str]] = {}
    for name, _target in SPANS:
        out[f"{name}.self_us"] = ("us", "lower")
        if name != PLANS_SPAN:
            out[f"{name}.calls_per_req"] = ("1/req", "lower")
    out.update(DERIVED)
    return out


#: (metrics, should move, most work, predicted no change, why chosen)
NOTES: tuple[tuple[str, str, str, str, str], ...] = (
    (
        "core.pipeline.{resolve,reroute,group_by_source,dedicate,"
        "execute_plan}.self_us, core.pipeline.plans_per_req, "
        "core.location_table.lookup_batch.self_us, "
        "core.pipeline.execute_plan.bytes_per_call",
        "serve_wall_p50_ms, wall_rps",
        "drift-adapt (1024-key batches, O(n) per key); cluster-bitrot "
        "(~7.5 plans per request)",
        "none: every workload plans",
        "the extraction pipeline is the hot path every request crosses",
    ),
    (
        "sim.mechanisms.factored_extraction.self_us, "
        "sim.mechanisms.core_dedication.calls_per_req, "
        "obs.metrics.lookups_per_req, obs.metrics_overhead_frac",
        "wall_rps, serve_wall_p50_ms",
        "hps-burst, cluster-bitrot",
        "smallest share on drift-adapt (large batches)",
        "fixed per-call cost: pricing, the dedication split, metric lookups",
    ),
    (
        "serve.queueing.submit.self_us, serve.queueing.rejected_frac, "
        "serve.queueing.sim_wait_p99_s0, serve.coalesce.take.self_us, "
        "serve.coalesce.mean_batch, serve.coalesce.dedup_ratio",
        "wall_rps; sim_ok_frac must hold",
        "hps-burst",
        "drift-adapt; cluster-bitrot (no admission queue)",
        "admission and micro-batching under overload",
    ),
    (
        "core.prefetch.{prefetch,advance,stage_hits}.self_us, "
        "core.prefetch.hit_rate, core.prefetch.wasted_bytes_per_req, "
        "core.cache.backing_gather.self_us",
        "wall_rps, setup_s",
        "hps-burst",
        "drift-adapt, cluster-bitrot",
        "lookahead staging and the SSD-tier miss path",
    ),
    (
        "serve.adaptation.observe.self_us, core.drift_adapt.check."
        "{calls,self_us}, serve.adaptation.detections, core.solver."
        "{solve_policy,warm_start_policy}.self_us, core.solver.incremental_frac",
        "wall_rps",
        "drift-adapt",
        "hps-burst, cluster-bitrot",
        "the drift write path: estimator, detector, re-solves",
    ),
    (
        "serve.policy_manager.swap.self_us, core.refresher.refresh.self_us, "
        "serve.policy_manager.swaps_landed",
        "wall_rps (serve_cpu_p99_ms if swap work leaks into a serve call)",
        "drift-adapt",
        "cluster-bitrot (no swap)",
        "hot policy swaps run between serve calls",
    ),
    (
        "cluster.frontend.serve.self_us, cluster.node.{serve,service_seconds}"
        ".calls_per_req, sim.event_sim.simulate_rpc_exchange.self_us, "
        "repair.scrub.{tick,guard_read}.self_us, repair.scrub.mismatch_frac, "
        "repair.restage.grant.self_us",
        "wall_rps, serve_cpu_p99_ms; sim_ok_frac must hold",
        "cluster-bitrot",
        "all single-box workloads",
        "fan-out multiplies per-plan fixed cost; repair rides every request",
    ),
    (
        "soak.other.self_us_per_req, trace.overhead_frac",
        "wall_rps",
        "cluster-bitrot (Zipf key draws via rng.choice(p=...) and the "
        "soak's own value check)",
        "none",
        "the residual no layer span covers, and what tracing itself costs",
    ),
)
