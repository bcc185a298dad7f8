"""Self-test of the benchmark's correctness checks: none of them passes vacuously.

Run from the repository root:

    python3 hostbench/selftest.py

For each workload it builds a small real result, requires every check to pass on it,
then feeds each check a deliberately corrupted copy and requires that check to fail.
Exits 1 if a clean result fails or a corruption goes unnoticed.
"""

import copy
import os
import sys

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

problems = []


def expect(label: str, messages, fail: bool) -> None:
    if bool(messages) != fail:
        problems.append(f"{label}: expected {'a failure' if fail else 'a pass'}, got {messages}")
    print(f"{'FAIL as expected' if fail and messages else 'ok' if not messages else 'WRONG'}"
          f"  {label}" + (f"  ({messages[0]})" if messages else ""))


def real_result(workload):
    units = workload.make_inputs()
    summaries = []
    for unit in units:
        workload.reset(unit)
        summaries.append(workload.summarize(unit, workload.run(unit)))
    expect(f"{workload.name}: clean result", workload.check(units, summaries), fail=False)
    return units, summaries


def corrupted(summaries, edit):
    bad = copy.deepcopy(summaries)
    edit(bad[0])
    return bad


def with_replay(workload, edit, uncached=False):
    """The workload with one replay result corrupted: the stepwise (fast-forward off)
    replay, or with ``uncached`` the prefix-cache-off run."""
    original = workload._replay

    def replay(unit, **options):
        summary = original(unit, **options)
        if options.get("prefix_caching" if uncached else "fast_forward") is False:
            edit(summary)
        return summary

    clone = copy.copy(workload)
    clone._replay = replay
    return clone


def set_record(summary, position, field, value):
    record = list(summary["records"][position])
    record[field] = value
    summary["records"][position] = tuple(record)


def serving(workload):
    units, good = real_result(workload)
    name = workload.name
    expect(f"{name}: one dropped request",
           workload.check(units, corrupted(good, lambda s: s["records"].pop(3))), True)
    expect(f"{name}: one extra generated token",
           workload.check(units, corrupted(
               good, lambda s: set_record(s, 0, 4, s["records"][0][4] + 1))), True)
    expect(f"{name}: first token before arrival",
           workload.check(units, corrupted(
               good, lambda s: set_record(s, 1, 2, s["records"][1][1] - 1e-3))), True)
    expect(f"{name}: first token after completion",
           workload.check(units, corrupted(
               good, lambda s: set_record(s, 1, 2, s["records"][1][3] + 1e-3))), True)
    expect(f"{name}: simulated time below the roofline floor",
           workload.check(units, corrupted(
               good, lambda s: s["replicas"].__setitem__(
                   0, (s["replicas"][0][0] / 10, s["replicas"][0][1])))), True)

    def one_more_iteration(summary):
        summary["stats"][0]["num_iterations"] += 1

    expect(f"{name}: stepwise replay with different stats",
           with_replay(workload, one_more_iteration).check(units, good), True)

    def later_completion(summary):
        set_record(summary, 0, 3, summary["records"][0][3] + 1e-9)

    expect(f"{name}: stepwise replay with a different timeline",
           with_replay(workload, later_completion).check(units, good), True)
    return units, good


def cluster():
    workload = workloads.TenantPrefixCluster(3)
    workload.traces, workload.requests_per_tenant, workload.replay_prefix = 1, 24, 40
    units, good = serving(workload)

    def one_token_less(summary):
        set_record(summary, 0, 4, summary["records"][0][4] - 1)

    expect("tenant-prefix-cluster: cache-off run serves one token less",
           with_replay(workload, one_token_less, uncached=True).check(units, good), True)
    expect("tenant-prefix-cluster: prefix cache never hit",
           workload.check(units, corrupted(
               good, lambda s: s["stats_sum"].__setitem__("prefix_cache_hits", 0))), True)


def sweep():
    workload = workloads.PolicySweep(5)
    workload.grids, workload.systems, workload.kv_formats = 1, ("liquidserve",), (None,)
    workload.preemption_policies, workload.num_requests = ("recompute",), 8
    units, good = real_result(workload)
    expect("policy-sweep: one cell short of a request",
           workload.check(units, corrupted(
               good, lambda s: s["rows"][1]["metrics"].__setitem__("completed_requests", 7))),
           True)

    def dominated_point(summary):
        from repro.backend import scheme_output_rmse, weight_quant_scheme

        frontier = {p["index"] for p in summary["frontier"]}
        row = next(r for r in summary["rows"] if r["index"] not in frontier)
        summary["frontier"].append(dict(
            summary["frontier"][0], index=row["index"],
            goodput_per_gpu_rps=round(row["metrics"]["goodput_rps"], 4),
            accuracy_rmse=round(scheme_output_rmse(weight_quant_scheme(row["kernel"])), 6)))

    expect("policy-sweep: one dominated frontier point",
           workload.check(units, corrupted(good, dominated_point)), True)
    expect("policy-sweep: frontier point not matching its cell",
           workload.check(units, corrupted(
               good, lambda s: s["frontier"][0].__setitem__(
                   "goodput_per_gpu_rps", s["frontier"][0]["goodput_per_gpu_rps"] + 1))), True)
    def one_more_iteration_everywhere(summary):
        for row in summary["rows"]:
            row["metrics"]["iterations"] += 1

    expect("policy-sweep: sampled cell not reproduced by simulate_serving",
           workload.check(units, corrupted(good, one_more_iteration_everywhere)), True)

    from repro import sweep as sweep_module

    engine_cache = sweep_module._ENGINE_CACHE
    del sweep_module._ENGINE_CACHE
    try:
        expect("policy-sweep: a missing engine cache is listed as absent",
               workload.absent(), True)
    finally:
        sweep_module._ENGINE_CACHE = engine_cache


def w4a8():
    workload = workloads.W4A8Layer(7)
    workload.matrices, workload.k, workload.tokens = workload.matrices[:2], 256, 4
    units, good = real_result(workload)

    def flip(key, index=(0, 0)):
        def edit(summary):
            summary[key][index] ^= 1
        return edit

    expect("w4a8-layer: one altered packed nibble",
           workload.check(units, corrupted(good, flip("words", (0, 0, 0, 0)))), True)
    expect("w4a8-layer: one altered Eq. 12 byte",
           workload.check(units, corrupted(good, flip("eq12"))), True)
    expect("w4a8-layer: one altered Eq. 8 reference byte",
           workload.check(units, corrupted(good, flip("eq8", (5, 9)))), True)

    def tile_byte(summary):
        summary["tiles"][0][3, 4] ^= 1

    expect("w4a8-layer: one altered register-path byte",
           workload.check(units, corrupted(good, tile_byte)), True)
    expect("w4a8-layer: one IMAD missing from the register sequences",
           workload.check(units, corrupted(
               good, lambda s: s["instructions"].__setitem__(
                   "imad.u32", s["instructions"]["imad.u32"] - 1))), True)
    expect("w4a8-layer: an XOR recorded as an AND",
           workload.check(units, corrupted(good, _xor_as_and)), True)

    def ulp(summary):
        summary["y"][0, 0] = np.nextafter(summary["y"][0, 0], np.inf)

    expect("w4a8-layer: run() output one ulp off the int64 product",
           workload.check(units, corrupted(good, ulp)), True)
    expect("w4a8-layer: output error beyond the stated bound",
           checks.relative_error(good[0]["y"] * 2, units[0]["x"] @ units[0]["w"].T), True)

    from repro.dequant import lqq

    real_alpha = lqq.lqq_alpha
    lqq.lqq_alpha = lambda: 1.0
    try:
        expect("w4a8-layer: alpha other than 7/8", workload.check(units, good), True)
    finally:
        lqq.lqq_alpha = real_alpha


def _xor_as_and(summary):
    counts = summary["instructions"]
    counts["xor.b32"] -= 1
    counts["and.b32"] += 1


def digests():
    workload = workloads.ShareGptScale(1)
    workload.traces, workload.requests_per_trace = 1, 30
    units = workload.make_inputs()
    summary = workload.summarize(units[0], workload.run(units[0]))
    bad = copy.deepcopy(summary)
    set_record(bad, 0, 3, bad["records"][0][3] + 1e-12)
    expect("round-to-round / traced-vs-untraced digest sees a changed completion time",
           [] if workload.digest(bad) == workload.digest(summary) else ["digest differs"], True)


if __name__ == "__main__":
    sharegpt = workloads.ShareGptScale(2)
    sharegpt.traces, sharegpt.requests_per_trace, sharegpt.replay_prefix = 1, 80, 40
    serving(sharegpt)
    cluster()
    sweep()
    w4a8()
    digests()
    print(f"{len(problems)} problem(s)")
    for p in problems:
        print("  " + p)
    sys.exit(1 if problems else 0)
