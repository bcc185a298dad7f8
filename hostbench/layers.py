"""Which public functions the traced pass wraps, and the per-layer metrics it derives.

Layers are the program's modules.  Only the calls listed in :meth:`LayerProbe.install`
get spans; work done in functions that are not listed (cost-model helpers, properties,
private methods the program calls internally) counts as the self time of the nearest
wrapped caller.
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

from spans import SpanTracer

ENGINE_PRICING = (
    "decode_step_time", "ragged_decode_step_time", "decode_iteration_time",
    "decode_iteration_times", "chunked_prefill_time", "mixed_step_time",
    "mixed_iteration_time", "mixed_step_times", "prefill_time", "throughput",
    "peak_throughput", "recompute_time", "kv_transfer_time", "interconnect_transfer_time",
    "allreduce_time", "layer_gemm_time", "layer_attention_time", "layer_others_time",
    "layer_breakdown", "lm_head_time",
)
LQQ_QUANTIZE = ("lqq_quantize", "first_level_quantize", "second_level_quantize")
REGISTER_PATH = ("lqq_dequant_registers", "lqq_dequant_register", "registers_to_int8")
TILE = 64  # dual-MMA tile edge (rows and columns)


def _request_id(args):
    return getattr(args[1], "request_id", None) if len(args) > 1 else None


def _router_request_id(args):
    return getattr(args[2], "request_id", None) if len(args) > 2 else None


def _cell_id(args):
    return args[0].get("index") if args and isinstance(args[0], dict) else None


class LayerProbe:
    """Spans plus the few counts that have to be read at a call boundary."""

    def __init__(self):
        self.tracer = SpanTracer()
        self.engines: List[object] = []
        self.ff_useful = 0
        self.routed = 0
        self.routed_local = 0
        self.tiles = 0
        self.int_ops = 0
        self.bytes_moved = 0
        self._match_tokens = None

    # ------------------------------------------------------------------ hooks
    def _on_engine(self, args, _result):
        self.engines.append(args[0])

    def _on_fast_forward(self, _args, result):
        if result:
            self.ff_useful += 1

    def _on_route(self, args, replica):
        request = args[2]
        cache = getattr(replica.scheduler, "prefix_cache", None)
        self.routed += 1
        if cache is not None and self._match_tokens is not None:
            # The original (unwrapped) probe: the router just made the same memoized
            # lookup, so this adds no span and changes no simulation state.
            if self._match_tokens(cache, request, request.prompt_tokens - 1) > 0:
                self.routed_local += 1

    def _on_pack(self, args, _result):
        n, k = np.shape(args[0])
        self.tiles += math.ceil(n / TILE) * math.ceil(k / TILE)

    def _on_run(self, args, _result):
        # Computed from tensor sizes: INT8 activations, UINT4 weights, one UINT8 scale
        # and one UINT8 offset per weight group, FP16 output.
        x, prepared = args[1], args[2]
        m, k = np.shape(x)
        n = np.shape(prepared.original)[0]
        group = prepared.payload["lqq"].config.group_size
        self.int_ops += 2 * m * n * k
        self.bytes_moved += m * k + n * k // 2 + 2 * n * (k // group) + 2 * m * n

    # ------------------------------------------------------------------ install
    def install(self) -> None:
        from repro import sweep
        from repro.backend import backend as backend_mod
        from repro.dequant import lqq
        from repro.kernels import liquidgemm
        from repro.layout import dual_mma, packing
        from repro.quant import activation, liquidquant
        from repro.serving import (cluster, engine, kvcache, metrics, prefixcache, router,
                                   scheduler)
        from repro.workloads import traces

        t = self.tracer
        self._match_tokens = getattr(prefixcache.PrefixCache, "match_tokens", None)

        sched = scheduler.ContinuousBatchingScheduler
        for name in ("__init__", "run", "begin", "step", "stats", "drain_completed"):
            t.install_method(sched, name, "scheduler")
        for name in ("submit", "submit_resumed"):
            t.install_method(sched, name, "scheduler", ident=_request_id)
        t.install_method(sched, "fast_forward", "scheduler", hook=self._on_fast_forward)

        eng = engine.ServingEngine
        t.install_method(eng, "__init__", "engine", hook=self._on_engine)
        for name in ENGINE_PRICING + ("cache_stats", "weight_memory_bytes",
                                      "kv_budget_bytes", "kv_cache_config",
                                      "max_batch_size"):
            t.install_method(eng, name, "engine")

        # The block-mutating API only: read-only queries (sequence, block_ref_count,
        # can_admit, utilization, ...) are dict lookups called hundreds of thousands of
        # times a round; a span around each would cost far more than the call and swell
        # the span file, so they count as their caller's time.
        for name in ("__init__", "add_sequence", "append_token", "extend_sequence",
                     "extend_state", "grow_states", "truncate_sequence", "fork_sequence",
                     "fork_from_blocks", "free_sequence", "retain_block", "release_block",
                     "swap_out", "swap_in"):
            t.install_method(kvcache.PagedKvCache, name, "kvcache")

        for name in ("__init__", "match_blocks", "match_tokens", "commit_hit",
                     "record_miss", "insert", "evict", "can_free", "reset", "stats"):
            t.install_method(prefixcache.PrefixCache, name, "prefixcache")

        for cls_name in ("RoundRobinRouter", "LeastOutstandingTokensRouter",
                         "LeastKvLoadRouter", "CacheAffinityRouter", "DisaggregatedRouter"):
            cls = getattr(router, cls_name, None)
            if cls is None:
                t.absent.append(f"{router.__name__}.{cls_name}")
                continue
            t.install_method(cls, "select", "router", ident=_router_request_id,
                             hook=self._on_route)
            if "select_decode" in cls.__dict__:
                t.install_method(cls, "select_decode", "router", ident=_router_request_id)
        t.install_function(router, "get_router_policy", "router")

        t.install_method(cluster.ServingCluster, "__init__", "cluster")
        t.install_method(cluster.ServingCluster, "run", "cluster")

        for name in ("percentile", "request_metrics", "compute_slo_report"):
            t.install_function(metrics, name, "metrics")

        for name in ("generate_trace", "merge_traces", "sharegpt_trace",
                     "multi_turn_chat_trace", "rag_trace", "agent_swarm_trace",
                     "tenant_mix_trace"):
            t.install_function(traces, name, "workloads")

        t.install_function(backend_mod, "build_backend", "backend")
        for name in ("kv_format_bytes", "weight_quant_scheme", "scheme_output_rmse"):
            t.install_function(backend_mod, name, "backend")
        for name in ("from_system", "gemm_time", "reference_gemm_time",
                     "deployed_weight_bytes", "kv_budget_bytes", "describe"):
            t.install_method(backend_mod.KernelBackend, name, "backend")

        t.install_function(sweep, "run_sweep", "sweep")
        t.install_function(sweep, "compute_frontier", "sweep")
        t.install_function(sweep, "resolve_cell_profile", "sweep")
        t.install_function(sweep, "derive_cell_seed", "sweep")
        # The per-cell entry point is private, but it is the only boundary that carries
        # a cell id; without it the cell percentiles read 0 and it is listed as absent.
        t.install_function(sweep, "_run_cell", "sweep", ident=_cell_id)
        t.install_method(sweep.SweepGrid, "cells", "sweep")

        for name in LQQ_QUANTIZE:
            t.install_function(liquidquant, name, "quant")
        t.install_function(activation, "quantize_activation_per_token", "quant")
        t.install_function(liquidquant, "lqq_dequantize_int8", "dequant")
        t.install_function(liquidquant, "lqq_dequantize_int8_reference", "dequant")
        for name in REGISTER_PATH:
            t.install_function(lqq, name, "dequant")

        t.install_function(dual_mma, "pack_weight_matrix", "layout", hook=self._on_pack)
        for name in ("pack_dual_mma_tile", "unpack_dual_mma_tile", "dual_mma_element_order"):
            t.install_function(dual_mma, name, "layout")
        for name in ("pack_u4_interleaved", "unpack_u4_interleaved"):
            t.install_function(packing, name, "layout")

        gemm = liquidgemm.LiquidGemmKernel
        t.install_method(gemm, "prepare_weights", "kernels")
        t.install_method(gemm, "run", "kernels", hook=self._on_run)
        t.install_method(gemm, "verify_tile_path", "kernels")

    def uninstall(self) -> None:
        self.tracer.uninstall()

    # ------------------------------------------------------------------ metrics
    def metrics(self, counts: Dict[str, float], overhead: float) -> Dict[str, float]:
        """Per-layer metrics of the traced pass.

        ``counts`` carries what the workload's outputs report: ``iterations`` (scheduler
        iterations), ``prefix_hits`` / ``prefix_misses`` and ``prefix_evicted``.
        """
        t = self.tracer
        spans = t.finished()
        own = t.self_times()
        layer_self = t.layer_self_time()

        def count(layer, names=None):
            return sum(1 for s in spans if s[1] == layer and (names is None or s[0] in names))

        def inclusive(names):
            return sum(s[3] - s[2] for s in spans if s[0] in names)

        def self_of(names):
            return sum(o for s, o in zip(spans, own) if s[0] in names)

        step = count("scheduler", {"ContinuousBatchingScheduler.step"})
        ff = count("scheduler", {"ContinuousBatchingScheduler.fast_forward"})
        pricing = {f"ServingEngine.{name}" for name in ENGINE_PRICING}
        entry = [s[0] for s in spans
                 if s[0] in pricing and (s[4] < 0 or spans[s[4]][1] != "engine")]
        cost_evals = 0
        for engine in self.engines:
            stats = getattr(engine, "cache_stats", None)
            for memo in (stats() if stats is not None else {}).values():
                cost_evals += memo["entries"] + memo["evictions"]
        backend_builds = sum(
            1 for s in spans
            if s[0] in ("build_backend", "KernelBackend.from_system")
            and (s[4] < 0 or spans[s[4]][1] != "backend")
        )
        cells = [s[3] - s[2] for s in spans if s[0] == "_run_cell"]
        lookups = counts.get("prefix_hits", 0) + counts.get("prefix_misses", 0)
        return {
            "scheduler.step_calls": step,
            "scheduler.ff_calls": ff,
            "scheduler.iters_per_advance": (
                counts.get("iterations", 0) / (step + ff) if step + ff else 0.0),
            "scheduler.ff_useful_ratio": self.ff_useful / ff if ff else 0.0,
            "scheduler.self_s": layer_self.get("scheduler", 0.0),
            "engine.price_calls": len(entry),
            "engine.price_entry_points": len(set(entry)),
            "engine.cost_evals": cost_evals,
            "engine.self_s": layer_self.get("engine", 0.0),
            "engine.init_s": inclusive({"ServingEngine.__init__"}),
            "kvcache.calls": count("kvcache"),
            "kvcache.self_s": layer_self.get("kvcache", 0.0),
            "prefixcache.calls": count("prefixcache"),
            "prefixcache.self_s": layer_self.get("prefixcache", 0.0),
            "prefixcache.evicted_blocks": counts.get("prefix_evicted", 0),
            "prefixcache.hit_ratio": (
                counts.get("prefix_hits", 0) / lookups if lookups else 0.0),
            "router.calls": count("router"),
            "router.self_s": layer_self.get("router", 0.0),
            "router.prefix_local_ratio": (
                self.routed_local / self.routed if self.routed else 0.0),
            "cluster.self_s": layer_self.get("cluster", 0.0),
            "metrics.self_s": layer_self.get("metrics", 0.0),
            "workloads.trace_s": layer_self.get("workloads", 0.0),
            "backend.builds": backend_builds,
            "backend.self_s": layer_self.get("backend", 0.0),
            "sweep.cell_p50_s": float(np.percentile(cells, 50)) if cells else 0.0,
            "sweep.cell_p90_s": float(np.percentile(cells, 90)) if cells else 0.0,
            "quant.lqq_s": self_of(set(LQQ_QUANTIZE)),
            "quant.act_s": self_of({"quantize_activation_per_token"}),
            "layout.pack_s": inclusive({"pack_weight_matrix"}),
            "layout.tiles": self.tiles,
            "dequant.eq12_s": self_of({"lqq_dequantize_int8"}),
            "dequant.register_s": self_of(set(REGISTER_PATH)),
            "kernels.run_s": self_of({"LiquidGemmKernel.run"}),
            "kernels.int_ops": self.int_ops,
            "kernels.bytes_moved": self.bytes_moved,
            "trace.overhead": overhead,
        }

