"""The four benchmark workloads.

A workload turns ``--seed`` into a list of *units* (its inputs), runs each unit as one
timed call into the program, and checks the outputs.  One round runs every unit once;
a run repeats whole rounds, so attempted and failed operations scale together.

* ``sharegpt-scale`` — long ShareGPT-like Poisson traces on one replica: the
  decode-dominated fast-forward hot loop (scheduler, KV extension, decode pricing).
* ``tenant-prefix-cluster`` — multi-tenant shared-prefix traffic on four replicas with
  cache-affinity routing, prefix caching and hybrid preemption under a shrunk KV pool.
* ``policy-sweep`` — a serial grid of short KV-constrained cells: backend resolution,
  engine construction, cold cost memos, per-cell trace generation and SLO reports.
* ``w4a8-layer`` — the paper core on K = 4096 weight matrices: LQQ quantization,
  dual-MMA packing, per-token activation quantization, Eq. 12 dequantization, the
  INT8 GEMM and the register-path check of sampled tiles.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import pickle
from typing import Any, Dict, List, Sequence

import numpy as np

import checks

SYSTEM, MODEL = "liquidserve", "llama2-7b"


def _digest(*parts: Any) -> str:
    return hashlib.sha256(pickle.dumps(parts, protocol=4)).hexdigest()


def _unit_seeds(seed: int, count: int) -> List[int]:
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(count)]


def _fresh(requests):
    """Copies of a trace with no scheduler state, safe to run again."""
    out = [copy.copy(r) for r in requests]
    for r in out:
        r.reset_scheduler_state()
    return out


def _stats_dict(stats) -> Dict[str, Any]:
    """A run's SchedulerStats, minus the request list and path-dependent counters."""
    return {
        f.name: getattr(stats, f.name)
        for f in dataclasses.fields(stats)
        if f.name != "requests" and f.metadata.get("fast_forward_invariant", True)
    }


def _trace_unit(trace) -> Dict[str, Any]:
    return {"trace": trace, "requested": {r.request_id: r.output_tokens for r in trace}}


def _records(requests, requested):
    return sorted(
        (r.request_id, r.arrival_time_s, r.first_token_time_s, r.completion_time_s,
         r.generated, requested.get(r.request_id))
        for r in requests
    )


class Workload:
    name = ""
    operation = ""

    def __init__(self, seed: int):
        self.seed = seed

    def make_inputs(self) -> List[Any]:
        raise NotImplementedError

    def tiny_input(self) -> Any:
        """A unit far smaller than the timed ones that takes the same code paths."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """Pay the one-time costs (lazy imports, process-wide memos) on a tiny input.

        Per-call costs (engine construction, per-engine cost memos) are paid again by
        every timed unit, so they stay in the timed rounds.
        """
        unit = self.tiny_input()
        self.reset(unit)
        self.run(unit)

    def absent(self) -> List[str]:
        """Names of program internals the workload relies on that no longer exist."""
        return []

    def reset(self, unit) -> None:
        """Untimed preparation before a unit runs again."""

    def run(self, unit) -> Any:
        """The timed call into the program."""
        raise NotImplementedError

    def summarize(self, unit, result) -> Dict[str, Any]:
        """Plain data of one unit's result (untimed); what checks and digests read."""
        raise NotImplementedError

    def ops(self, unit) -> int:
        raise NotImplementedError

    def failed(self, summary) -> int:
        return 0

    def digest(self, summary) -> str:
        return _digest(summary)

    def check(self, units: Sequence[Any], summaries: Sequence[Dict[str, Any]]) -> List[str]:
        raise NotImplementedError

    def counts(self, summaries: Sequence[Dict[str, Any]]) -> Dict[str, float]:
        """Work counts the traced pass reports beside its spans."""
        return {}


# ---------------------------------------------------------------------- serving
class _Serving(Workload):
    #: Requests of the trace head replayed with fast-forward on and off.
    replay_prefix = 0
    #: Units whose replays are checked (seeded sample); the other checks see every unit.
    replayed_units = 2

    def reset(self, unit) -> None:
        for r in unit["trace"]:
            r.reset_scheduler_state()

    def ops(self, unit) -> int:
        return len(unit["trace"])

    def failed(self, summary) -> int:
        return summary["num_requests"] - sum(1 for r in summary["records"] if r[3] is not None)

    def digest(self, summary) -> str:
        return _digest(summary["records"], summary["replicas"], summary["stats"],
                       summary["slo"])

    def counts(self, summaries):
        names = {"iterations": "num_iterations", "prefix_hits": "prefix_cache_hits",
                 "prefix_misses": "prefix_cache_misses",
                 "prefix_evicted": "prefix_blocks_evicted"}
        return {name: sum(s["stats_sum"][key] for s in summaries)
                for name, key in names.items()}

    def _summary(self, unit, requests, replica_stats, slo, engine) -> Dict[str, Any]:
        stats = [_stats_dict(s) for s in replica_stats]
        return {
            "num_requests": len(unit["trace"]),
            "records": _records(requests, unit["requested"]),
            "replicas": [(s.simulated_time_s, s.num_iterations) for s in replica_stats],
            "stats": stats,
            "stats_sum": {k: sum(s[k] for s in stats) for k in (
                "num_iterations", "prefix_cache_hits", "prefix_cache_misses",
                "prefix_blocks_evicted")},
            "slo": dataclasses.astuple(slo),
            "weight_bytes": engine.weight_memory_bytes(),
            "bandwidth": engine.device.spec.memory_bandwidth,
        }

    def _common_checks(self, unit, summary) -> List[str]:
        records = summary["records"]
        return (
            checks.requests_complete(records, unit["requested"])
            + checks.tokens_conserved(records, unit["requested"])
            + checks.ttft_within_latency(records)
            + checks.above_roofline(summary["replicas"], summary["weight_bytes"],
                                    summary["bandwidth"])
        )

    def _replay(self, unit, **options):
        """Summary of a fresh copy of ``unit`` run with non-default ``options``."""
        fresh = dict(unit, trace=_fresh(unit["trace"]))
        return self.summarize(fresh, self.run(fresh, **options))

    def _replayed(self, units) -> List[int]:
        picks = np.random.default_rng(self.seed).choice(
            len(units), min(self.replayed_units, len(units)), replace=False)
        return sorted(int(i) for i in picks)

    def _replay_checks(self, unit) -> List[str]:
        head = unit["trace"][: self.replay_prefix]
        ff = self._replay(dict(unit, trace=head), fast_forward=True)
        stepwise = self._replay(dict(unit, trace=head), fast_forward=False)
        return (checks.same(ff["stats"], stepwise["stats"],
                            "fast-forward and stepwise stats of the trace head")
                + checks.same(ff["records"], stepwise["records"],
                              "fast-forward and stepwise request timelines"))


class ShareGptScale(_Serving):
    name = "sharegpt-scale"
    operation = "one simulated request served"
    traces, requests_per_trace, rate_rps = 20, 300, 30.0
    replay_prefix = 200

    def _unit(self, seed, requests):
        from repro.workloads.traces import sharegpt_trace

        return _trace_unit(sharegpt_trace(requests, self.rate_rps, seed=seed))

    def make_inputs(self):
        return [self._unit(seed, self.requests_per_trace)
                for seed in _unit_seeds(self.seed, self.traces)]

    def tiny_input(self):
        return self._unit(self.seed, 16)

    def run(self, unit, fast_forward=True):
        from repro.serving.engine import ServingEngine
        from repro.serving.scheduler import ContinuousBatchingScheduler

        engine = ServingEngine(SYSTEM, MODEL)
        stats = ContinuousBatchingScheduler(engine, fast_forward=fast_forward).run(unit["trace"])
        return engine, stats, stats.slo_report()

    def summarize(self, unit, result):
        engine, stats, slo = result
        return self._summary(unit, stats.requests, [stats], slo, engine)

    def check(self, units, summaries):
        out = []
        for unit, summary in zip(units, summaries):
            out += self._common_checks(unit, summary)
        for i in self._replayed(units):
            out += self._replay_checks(units[i])
        return out


class TenantPrefixCluster(_Serving):
    name = "tenant-prefix-cluster"
    operation = "one simulated request served"
    traces, requests_per_tenant, tenants, rate_rps = 6, 100, 6, 8.0
    replicas, kv_budget_bytes = 4, int(3.0e9)
    replay_prefix = 150

    def _unit(self, seed, requests_per_tenant):
        from repro.workloads.traces import tenant_mix_trace

        return _trace_unit(tenant_mix_trace(requests_per_tenant, self.rate_rps,
                                            num_tenants=self.tenants, seed=seed))

    def make_inputs(self):
        return [self._unit(seed, self.requests_per_tenant)
                for seed in _unit_seeds(self.seed, self.traces)]

    def tiny_input(self):
        return self._unit(self.seed, 2)

    def run(self, unit, fast_forward=True, prefix_caching=True):
        from repro.serving.cluster import ServingCluster
        from repro.serving.systems import ClusterSpec

        spec = ClusterSpec(mode="colocated", num_replicas=self.replicas,
                           router="cache-affinity")
        cluster = ServingCluster(SYSTEM, MODEL, spec, prefix_caching=prefix_caching,
                                 preemption_policy="hybrid",
                                 kv_budget_bytes=self.kv_budget_bytes,
                                 fast_forward=fast_forward)
        result = cluster.run(unit["trace"])
        return cluster, result, result.slo_report()

    def summarize(self, unit, result):
        cluster, outcome, slo = result
        return self._summary(unit, outcome.requests, outcome.replica_stats, slo,
                             cluster.replicas[0].engine)

    def check(self, units, summaries):
        out = []
        for unit, summary in zip(units, summaries):
            out += self._common_checks(unit, summary)
            if summary["stats_sum"]["prefix_cache_hits"] == 0:
                out.append("the prefix cache never hit")
        for i in self._replayed(units):
            out += self._replay_checks(units[i])
            uncached = self._replay(units[i], prefix_caching=False)
            out += checks.same([r[4] for r in summaries[i]["records"]],
                               [r[4] for r in uncached["records"]],
                               "tokens served with the prefix cache on and off")
        return out


class PolicySweep(Workload):
    name = "policy-sweep"
    operation = "one sweep cell completed"
    grids = 8
    systems = ("liquidserve", "trt-w8a8")
    kernels = (None, "w4a16")
    kv_formats = (None, "int4")
    preemption_policies = ("recompute", "swap")
    rates_rps = (6.0, 12.0)
    num_requests = 24
    kv_budget_bytes = int(1.0e9)

    def _grid(self, base_seed, num_requests=None, rates_rps=None):
        from repro.sweep import SweepGrid
        from repro.workloads.traces import LengthDistribution

        # ShareGPT-shaped lengths capped so the longest possible request fits the
        # shrunk pool in every KV format: no cell can be unservable on any seed.
        return SweepGrid(
            systems=self.systems, models=(MODEL,), kernels=self.kernels,
            kv_formats=self.kv_formats, preemption_policies=self.preemption_policies,
            arrival_rates_rps=rates_rps or self.rates_rps,
            num_requests=num_requests or self.num_requests,
            base_seed=base_seed, kv_budget_bytes=self.kv_budget_bytes,
            prompt_lengths=LengthDistribution.lognormal(median=180.0, sigma=1.1,
                                                        maximum=1024),
            output_lengths=LengthDistribution.lognormal(median=160.0, sigma=0.9,
                                                        maximum=512),
        )

    def make_inputs(self):
        return [{"grid": self._grid(seed)} for seed in _unit_seeds(self.seed, self.grids)]

    def tiny_input(self):
        return {"grid": self._grid(self.seed, num_requests=2, rates_rps=self.rates_rps[:1])}

    def absent(self):
        from repro import sweep

        return [] if hasattr(sweep, "_ENGINE_CACHE") else ["repro.sweep._ENGINE_CACHE"]

    def reset(self, unit) -> None:
        # Cells reuse engines through a per-process cache; a user's sweep starts cold,
        # so every timed sweep starts cold too.  Without the cache (listed as absent in
        # the run record) there is nothing to empty.
        from repro import sweep

        getattr(sweep, "_ENGINE_CACHE", {}).clear()

    def run(self, unit):
        from repro.sweep import run_sweep

        return run_sweep(unit["grid"], parallel=False)

    def summarize(self, unit, payload):
        rows = [{k: v for k, v in row.items() if k != "wall_time_s"}
                for row in payload["cells"]]
        return {"rows": rows, "frontier": payload["frontier"]["points"]}

    def ops(self, unit) -> int:
        return len(unit["grid"].cells())

    def failed(self, summary) -> int:
        return sum(1 for row in summary["rows"]
                   if row["metrics"]["completed_requests"] != self.num_requests)

    def check(self, units, summaries):
        from repro.backend import scheme_output_rmse, weight_quant_scheme

        out = []
        for unit, summary in zip(units, summaries):
            rows = summary["rows"]
            out += checks.cells_complete(rows, self.num_requests)
            # Every cell is one replica with tp 1, so goodput per GPU is its goodput.
            cells = [(row["index"], round(row["metrics"]["goodput_rps"], 4),
                      round(scheme_output_rmse(weight_quant_scheme(row["kernel"])), 6))
                     for row in rows]
            out += checks.frontier_undominated(summary["frontier"], cells)
            out += self._reproduce(unit, rows)
        return out

    def _reproduce(self, unit, rows) -> List[str]:
        """A sampled default-backend cell gives the same row through simulate_serving."""
        from repro.core import simulate_serving
        from repro.serving.metrics import SloSpec

        grid = unit["grid"]
        default = [c for c in grid.cells() if c["kernel"] is None and c["kv_format"] is None]
        cell = default[np.random.default_rng(self.seed).integers(len(default))]
        sim = simulate_serving(
            cell["system"], cell["model"], num_requests=cell["num_requests"],
            arrival_rate_rps=cell["arrival_rate_rps"], seed=cell["seed"],
            prompt_lengths=grid.prompt_lengths, output_lengths=grid.output_lengths,
            scheduling_policy=cell["scheduling_policy"],
            preemption_policy=cell["preemption_policy"],
            kv_budget_bytes=grid.kv_budget_bytes,
            slo=SloSpec(ttft_s=grid.slo_ttft_s, tpot_s=grid.slo_tpot_s),
        )
        got = {
            "completed_requests": sim.stats.completed_requests,
            "generated_tokens": sim.stats.generated_tokens,
            "simulated_time_s": round(sim.stats.simulated_time_s, 6),
            "iterations": sim.stats.num_iterations,
            "preemptions": sim.stats.preemptions,
            "p99_ttft_s": round(sim.slo.p99_ttft_s, 6),
            "goodput_rps": round(sim.slo.goodput_rps, 3),
        }
        row = rows[cell["index"]]["metrics"]
        return checks.same({k: row[k] for k in got}, got,
                           f"sweep cell {cell['index']} and its simulate_serving replay")

    def counts(self, summaries):
        return {"iterations": sum(row["metrics"]["iterations"]
                                  for s in summaries for row in s["rows"])}


class W4A8Layer(Workload):
    name = "w4a8-layer"
    operation = "one weight matrix through prepare_weights and run, plus sampled tiles"
    #: Row slices of llama2-7b projections (K = 4096), one weight distribution each.
    matrices = (("q_proj", "gaussian"), ("k_proj", "student-t"),
                ("o_proj", "outlier-channels"), ("gate_proj", "gaussian"))
    rows, k, tokens, sampled_tiles = 64, 4096, 16, 1

    def _unit(self, label, dist, seed, rows, k, tokens):
        rng = np.random.default_rng(seed)
        if dist == "student-t":
            w = rng.standard_t(4, size=(rows, k)) * 0.02
        else:
            w = rng.normal(0.0, 0.02, size=(rows, k))
        if dist == "outlier-channels":
            w[rng.choice(rows, 4, replace=False)] *= 8.0
        x = rng.normal(0.0, 1.0, size=(tokens, k))
        x[:, rng.choice(k, 8, replace=False)] *= 20.0   # activation outliers
        tiles = [(int(rng.integers(rows // 64)), int(rng.integers(k // 64)))
                 for _ in range(self.sampled_tiles)]
        return {"label": label, "w": w, "x": x, "tiles": tiles}

    def make_inputs(self):
        return [self._unit(label, dist, seed, self.rows, self.k, self.tokens)
                for (label, dist), seed in zip(self.matrices,
                                               _unit_seeds(self.seed, len(self.matrices)))]

    def tiny_input(self):
        return self._unit("warm-up", "gaussian", self.seed, 64, 128, 4)

    def run(self, unit):
        from repro.isa import InstructionStats
        from repro.kernels.liquidgemm import LiquidGemmKernel

        kernel = LiquidGemmKernel()
        prepared = kernel.prepare_weights(unit["w"])
        y = kernel.run(unit["x"], prepared)
        stats = InstructionStats()
        tiles = [kernel.verify_tile_path(prepared, r, c, stats)[0] for r, c in unit["tiles"]]
        return prepared, y, tiles, stats

    def summarize(self, unit, result):
        from repro.quant.liquidquant import lqq_dequantize_int8, lqq_dequantize_int8_reference

        prepared, y, tiles, stats = result
        qw = prepared.payload["lqq"]
        return {"qw": qw, "words": _packed_words(prepared.payload["packed"]),
                "eq12": lqq_dequantize_int8(qw), "eq8": lqq_dequantize_int8_reference(qw),
                "y": y, "tiles": tiles, "instructions": stats.as_dict()}

    def ops(self, unit) -> int:
        return 1

    def digest(self, summary) -> str:
        qw = summary["qw"]
        return _digest(summary["y"].tobytes(), summary["words"].tobytes(),
                       [t.tobytes() for t in summary["tiles"]],
                       sorted(summary["instructions"].items()),
                       qw.q_u4.tobytes(), qw.scale_u8.tobytes(), qw.min_i8.tobytes())

    def check(self, units, summaries):
        from repro.dequant.lqq import lqq_alpha
        from repro.layout.dual_mma import dual_mma_element_order

        order = np.array([dual_mma_element_order(lane // 32, lane % 32) for lane in range(128)])
        out = [] if lqq_alpha() == 7 / 8 else [f"lqq_alpha() = {lqq_alpha()}, not 7/8"]
        for unit, s in zip(units, summaries):
            qw, label = s["qw"], unit["label"]
            eq8 = eq8_dequant(qw.q_u4, qw.scale_u8, qw.min_i8, qw.config.group_size)
            out += checks.codes_roundtrip(s["words"], qw.q_u4, order)
            out += checks.equal_arrays(s["eq8"], eq8, f"{label}: Eq. 8 reference")
            out += checks.equal_arrays(s["eq12"], eq8, f"{label}: Eq. 12")
            for (r, c), tile in zip(unit["tiles"], s["tiles"]):
                out += checks.equal_arrays(tile, eq8[64 * r:64 * r + 64, 64 * c:64 * c + 64],
                                           f"{label}: register-path tile ({r}, {c})")
            out += checks.register_counts(s["instructions"])
            out += checks.equal_arrays(s["y"], int_gemm(unit["x"], eq8, qw.scale_ch),
                                       f"{label}: run() against the int64 product")
            out += checks.relative_error(s["y"], unit["x"] @ unit["w"].T)
        return out


def eq8_dequant(q_u4, scale_u8, min_i8, group: int) -> np.ndarray:
    """Eq. 8 second-level dequantization, ``Q_u4 * s_u8 + min(Q_i8)``, in int32."""
    scale = np.repeat(scale_u8.astype(np.int32), group, axis=1)
    minimum = np.repeat(min_i8.astype(np.int32), group, axis=1)
    return (q_u4.astype(np.int32) * scale + minimum).astype(np.int8)


def int_gemm(x: np.ndarray, w_i8: np.ndarray, scale_ch: np.ndarray) -> np.ndarray:
    """Per-token symmetric INT8 activations times INT8 weights, accumulated in int64."""
    scale = np.maximum(np.abs(x).max(axis=1, keepdims=True) / 127.0,
                       np.finfo(np.float64).tiny)
    q = np.clip(np.round(x / scale), -127, 127).astype(np.int64)
    acc = q @ w_i8.astype(np.int64).T
    return acc.astype(np.float64) * scale * scale_ch.reshape(1, -1)


def _packed_words(packed) -> np.ndarray:
    """``(tiles_n, tiles_k, 128, 4)`` uint32 words of a packed matrix, either storage."""
    tiles = getattr(packed, "tiles", packed)
    if isinstance(tiles, list):
        return np.array([[t.words for t in row] for row in tiles], dtype=np.uint32)
    return np.asarray(tiles, dtype=np.uint32)


WORKLOADS = {cls.name: cls for cls in (ShareGptScale, TenantPrefixCluster, PolicySweep,
                                       W4A8Layer)}
