"""Correctness checks of the workloads' outputs.

Each check takes plain data extracted from a run and returns a list of failure messages
(empty when it passes), so ``selftest.py`` can feed it a corrupted result and see it
fail.  Every check compares against a computation made here, apart from the program,
or against a property the method must have — never against stored output.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

#: (request_id, arrival_s, first_token_s, completion_s, generated, requested_outputs)
RequestRecord = Tuple[int, float, float, float, int, int]

#: Relative Frobenius error allowed between the W4A8 output and the fp64 product.  One
#: UINT4 step spans a group's range / 15, so rounding alone costs range / (15 * sqrt(12)):
#: about 0.11 of the weights' RMS for Gaussian groups of 64 and up to ~0.16 for the
#: heavy-tailed Student-t(4) matrix.  0.25 leaves room for every seed, while a wrong
#: scale or a dropped term gives errors of 0.5 and more.
REL_ERROR_BOUND = 0.25


def requests_complete(records: Sequence[RequestRecord], expected_ids) -> List[str]:
    done = {r[0] for r in records if r[3] is not None}
    missing = sorted(set(expected_ids) - done)
    if missing:
        return [f"{len(missing)} submitted requests did not complete (first: {missing[:5]})"]
    if len(records) != len(set(expected_ids)):
        return [f"{len(records)} completions for {len(set(expected_ids))} requests"]
    return []


def tokens_conserved(records: Sequence[RequestRecord], requested: Mapping[int, int]) -> List[str]:
    generated = sum(r[4] for r in records)
    wanted = sum(requested.values())
    if generated != wanted:
        return [f"generated {generated} tokens, the trace asked for {wanted}"]
    wrong = [r[0] for r in records if r[4] != requested.get(r[0])]
    return [f"requests with the wrong token count: {wrong[:5]}"] if wrong else []


def ttft_within_latency(records: Sequence[RequestRecord]) -> List[str]:
    bad = []
    for rid, arrival, first, done, _, _ in records:
        if first is None or done is None or not 0.0 <= first - arrival <= done - arrival:
            bad.append(rid)
    return [f"requests violating 0 <= ttft <= latency: {bad[:5]}"] if bad else []


def above_roofline(replicas: Sequence[Tuple[float, int]], weight_bytes: float,
                   bandwidth: float) -> List[str]:
    """Each iteration reads every weight once, so no replica beats bytes / bandwidth."""
    out = []
    for index, (simulated_s, iterations) in enumerate(replicas):
        floor = iterations * weight_bytes / bandwidth
        if not simulated_s >= floor:
            out.append(f"replica {index}: {simulated_s:.6g} s simulated is below the "
                       f"roofline floor {floor:.6g} s ({iterations} iterations)")
    return out


def same(a, b, what: str) -> List[str]:
    if a == b:
        return []
    if isinstance(a, dict) and isinstance(b, dict):
        diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        return [f"{what} differ in {diff[:6]}"]
    return [f"{what} differ"]


# ---------------------------------------------------------------------- policy sweep
def cells_complete(rows: Sequence[dict], num_requests: int) -> List[str]:
    bad = [row["index"] for row in rows
           if row["metrics"]["completed_requests"] != num_requests]
    return [f"cells that did not complete all {num_requests} requests: {bad[:5]}"] if bad else []


def frontier_undominated(points: Sequence[dict], cells: Sequence[Tuple[int, float, float]]
                         ) -> List[str]:
    """No frontier point is dominated by a cell.

    ``cells`` holds ``(index, goodput_per_gpu, accuracy_rmse)`` recomputed from the
    cell rows; a point is dominated when a cell is at least as good on both objectives
    and strictly better on one.
    """
    out = []
    by_index = {index: (goodput, rmse) for index, goodput, rmse in cells}
    for p in points:
        goodput, rmse = p["goodput_per_gpu_rps"], p["accuracy_rmse"]
        if by_index.get(p["index"]) != (goodput, rmse):
            out.append(f"frontier point {p['index']} does not match its cell row")
        for index, g, r in cells:
            if g >= goodput and r <= rmse and (g > goodput or r < rmse):
                out.append(f"frontier point {p['index']} is dominated by cell {index}")
                break
    if not points and cells:
        out.append("empty frontier")
    return out


# ---------------------------------------------------------------------- w4a8 numeric path
def equal_arrays(a: np.ndarray, b: np.ndarray, what: str) -> List[str]:
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return [f"{what}: shape {a.shape} != {b.shape}"]
    if a.dtype != b.dtype and not (a.dtype.kind == b.dtype.kind == "f"):
        a, b = a.astype(np.int64), b.astype(np.int64)
    mismatched = int(np.count_nonzero(a != b))
    return [f"{what}: {mismatched} of {a.size} elements differ"] if mismatched else []


def register_counts(counts: Dict[str, int]) -> List[str]:
    """Seven instructions per emulated sequence, two of them IMAD and two XOR."""
    total = sum(counts.values())
    sequences, rest = divmod(total, 7)
    if total == 0 or rest:
        return [f"{total} emulated instructions is not a whole number of 7-op sequences"]
    imad, xor = counts.get("imad.u32", 0), counts.get("xor.b32", 0)
    if imad != 2 * sequences or xor != 2 * sequences:
        return [f"{sequences} sequences recorded {imad} IMAD and {xor} XOR "
                f"(expected {2 * sequences} of each)"]
    return []


def relative_error(y: np.ndarray, y_fp: np.ndarray, bound: float = REL_ERROR_BOUND) -> List[str]:
    err = float(np.linalg.norm(y - y_fp) / np.linalg.norm(y_fp))
    return [] if err <= bound else [f"relative error {err:.4f} exceeds {bound}"]


def codes_roundtrip(words: np.ndarray, q_u4: np.ndarray, order: np.ndarray) -> List[str]:
    """Unpacking the packed dual-MMA words returns the UINT4 code matrix ``q_u4``.

    ``words`` is ``(tiles_n, tiles_k, 128, 4)``: per 64x64 tile, four 32-bit registers
    per lane.  ``order[lane, e]`` is the ``(row, col)`` of the lane's ``e``-th element
    within the tile.  Register ``j`` holds elements ``8j .. 8j+7``; element ``w`` of a
    register sits in byte ``w % 4``, low nibble for ``w < 4`` and high nibble otherwise
    (the interleaved order of the paper's Figure 8).
    """
    tn, tk = words.shape[:2]
    shifts = np.array([8 * (w % 4) + 4 * (w // 4) for w in range(8)], dtype=np.uint32)
    nibbles = (words[..., None] >> shifts) & np.uint32(0xF)      # (tn, tk, 128, 4, 8)
    values = nibbles.reshape(tn, tk, 128, 32).astype(np.uint8)
    out = np.zeros((tn * 64, tk * 64), dtype=np.uint8)
    rows = np.arange(tn)[:, None, None, None] * 64 + order[None, None, :, :, 0]
    cols = np.arange(tk)[None, :, None, None] * 64 + order[None, None, :, :, 1]
    out[rows, cols] = values
    n, k = q_u4.shape
    if out[n:].any() or out[:, k:].any():
        return ["non-zero codes in the padding of the packed matrix"]
    return equal_arrays(out[:n, :k], q_u4, "unpacked codes")
