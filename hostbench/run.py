"""Host-time benchmark of the LiquidGEMM reproduction and its serving simulator.

Run from the repository root:

    python3 hostbench/run.py --workload sharegpt-scale --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (ops_per_s, setup_s, peak_rss_mb) from
untraced rounds; ``--trace 1`` also runs one traced round, prints the per-layer metrics
and writes its spans to ``hostbench/out/<workload>-seed<seed>.trace.json.gz``.  The last
line of standard output is one JSON object: correct, attempted, failed, metrics.

Times of units and of set-up are taken in units of a fixed reference computation
(``reference.py``) timed beside them, then converted to seconds with its nominal
time, so that host slowdowns, which stretch both, cancel out (see README).
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from reference import NOMINAL_S, run_reference  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("sharegpt-scale", "tenant-prefix-cluster", "policy-sweep", "w4a8-layer")
#: Set-up runs once per process; this many more processes repeat it for the median.
FRESH_SETUPS = 4


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="host seconds of timed rounds (at least three rounds run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print this process's set-up time as JSON and exit")
    return parser.parse_args(argv)


def setup_in_fresh_process(args) -> dict:
    """Set-up times of one more process, started after this one's timed work ended."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def calibration_loop_s() -> float:
    """Time of a fixed 3M-iteration pure-Python loop: reported, never used to scale."""
    start = time.perf_counter()
    total = 0
    for i in range(3_000_000):
        total += i
    return time.perf_counter() - start


def timed(call) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def run_round(workload, units):
    """Run every unit once, with the reference timed before the first unit and after
    each one; returns per-unit seconds, the ``len(units) + 1`` reference seconds and
    the units' summaries."""
    times, refs, summaries = [], [], []
    for unit in units:
        workload.reset(unit)
        gc.collect()  # each unit and reference starts from a clean heap
        refs.append(timed(run_reference))
        start = time.perf_counter()
        result = workload.run(unit)
        times.append(time.perf_counter() - start)
        summaries.append(workload.summarize(unit, result))
        del result
    gc.collect()
    refs.append(timed(run_reference))
    return times, refs, summaries


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    root = os.getcwd()
    spec_file = os.path.join(root, "BENCHMARK.json")
    if not (os.path.isfile(os.path.join(root, "src", "repro", "__init__.py"))
            and os.path.isfile(spec_file)):
        print("hostbench: run from the repository root (src/repro or BENCHMARK.json not "
              f"found in {root})", file=sys.stderr)
        return 2
    load_at_start = os.getloadavg()[0]
    sys.path.insert(0, os.path.join(root, "src"))

    import numpy as np

    import repro  # noqa: F401  (import time is part of set-up)
    from layers import LayerProbe
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _START
    workload = WORKLOADS[args.workload](args.seed)

    # ---- set-up: imports, input generation (three times, median), a warm-up on a
    # tiny input for the one-time costs.  No timed unit runs here.
    generation = []
    for _ in range(3):
        start = time.perf_counter()
        units = workload.make_inputs()
        generation.append(time.perf_counter() - start)
    start = time.perf_counter()
    workload.warm_up()
    warm_s = time.perf_counter() - start
    setup_host_s = import_s + statistics.median(generation) + warm_s
    # Set-up in references, timed right after it: the same host-speed correction as
    # the timed rounds get (see README, "How timings are taken").
    setup_s = setup_host_s / statistics.median(
        timed(run_reference) for _ in range(3)) * NOMINAL_S
    own_setup = {"setup_s": setup_s, "setup_host_s": setup_host_s}
    if args.setup_only:
        print(json.dumps(own_setup))
        return 0

    # ---- timed rounds (untraced); the first round's outputs are the reference that
    # every later round must reproduce bit for bit.
    budget = args.seconds / 2 if args.trace else args.seconds
    per_unit = [[] for _ in units]
    ratios = [[] for _ in units]
    ref_times = []
    rounds = failed = 0
    reference, nondeterministic = None, []
    deadline = time.perf_counter() + budget
    while True:
        started = time.perf_counter()
        times, refs, summaries = run_round(workload, units)
        rounds += 1
        ref_times += refs
        failed += sum(workload.failed(s) for s in summaries)
        if reference is None:
            reference, digests = summaries, [workload.digest(s) for s in summaries]
        for i, (t, s) in enumerate(zip(times, summaries)):
            per_unit[i].append(t)
            # The unit's time in references: the mean of the calls just before and
            # just after it, which ran under the same host conditions.
            ratios[i].append(t / ((refs[i] + refs[i + 1]) / 2))
            if workload.digest(s) != digests[i]:
                nondeterministic.append(f"unit {i} differs between rounds")
        # Stop when another round of the same length would end past the deadline.
        if rounds >= 3 and 2 * time.perf_counter() - started > deadline:
            break
    # Host contention slows unit and reference alike, so the median over rounds of
    # their ratio repeats where raw times do not (see README, "How timings are taken").
    unit_refs = [statistics.median(r) for r in ratios]
    medians = [statistics.median(ts) for ts in per_unit]
    ops = [workload.ops(u) for u in units]
    ops_per_s = sum(ops) / (sum(unit_refs) * NOMINAL_S)
    ops_per_host_s = sum(ops) / sum(medians)
    attempted = rounds * sum(ops)

    failures = nondeterministic + workload.check(units, reference)
    with open(spec_file) as f:
        spec = json.load(f)

    if args.trace:
        probe = LayerProbe()
        probe.install()
        try:
            traced_units = workload.make_inputs()
            start = time.perf_counter()
            raw = []
            for unit in traced_units:
                workload.reset(unit)
                raw.append(workload.run(unit))
            traced_s = time.perf_counter() - start
        finally:
            probe.uninstall()
        traced = [workload.summarize(u, r) for u, r in zip(traced_units, raw)]
        rounds += 1
        attempted += sum(ops)
        failed += sum(workload.failed(s) for s in traced)
        if [workload.digest(s) for s in traced] != digests:
            failures.append("the traced round's outputs differ from the untraced round's")
        values = probe.metrics(workload.counts(traced), traced_s / sum(medians))
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        span_file = os.path.join(HERE, "out",
                                 f"{args.workload}-seed{args.seed}.trace.json.gz")
        probe.tracer.write_chrome_trace(span_file)
        absent, setups = probe.tracer.absent + workload.absent(), [own_setup]
    else:
        # Set-up happens once per process, so more processes repeat it, one after the
        # other; the median of all of them is reported.
        setups = [own_setup] + [setup_in_fresh_process(args) for _ in range(FRESH_SETUPS)]
        values = {
            "ops_per_s": ops_per_s,
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        span_file, absent = None, workload.absent()

    record = {
        "workload": args.workload, "operation": workload.operation, "seed": args.seed,
        "rounds": rounds, "units": len(units), "ops_per_round": sum(ops),
        "attempted": attempted, "failed": failed,
        "unit_median_s": medians, "unit_median_refs": unit_refs,
        "reference_s": {"nominal": NOMINAL_S, "min": min(ref_times),
                        "median": statistics.median(ref_times)},
        "ops_per_host_s": ops_per_host_s,
        "setup_parts_s": {"imports": import_s, "inputs_median": statistics.median(generation),
                          "warm_up": warm_s},
        "setups_s": [s["setup_s"] for s in setups],
        "setups_host_s": [s["setup_host_s"] for s in setups],
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "loadavg_at_start": load_at_start,
        "calibration_loop_s": calibration_loop_s(),
        "span_file": span_file, "absent_functions": absent,
        "check_failures": failures,
    }
    print("run-record " + json.dumps(record))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
