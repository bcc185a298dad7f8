"""LiquidGEMM: the paper's W4A8 kernel (LiquidQuant + dual-MMA layout + ImFP pipeline).

Offline (``prepare_weights``):

1. two-level LiquidQuant quantization (per-channel protective INT8, per-group shifted UINT4);
2. dual-MMA packed layout reordering of the UINT4 codes (so deployment-ready bytes are
   exactly what the GMEM/SMEM of the real kernel would hold).

Online (``run``), executed through the packed layout:

1. per-token dynamic INT8 activation quantization (SmoothQuant-style, Section 6);
2. dequantization of the packed dual-MMA words back to INT8 through the emulated IMAD/XOR
   register path (Section 5.3, seven instructions per eight elements), run once over every
   register of the matrix with per-register (scale, offset), then scattered back to (N, K)
   through the layout's gather table.  The result is bit-identical to Equation 12
   (``lqq_dequantize_int8``), which stays as the reference the tests compare against;
   ``verify_tile_path`` replays the same path on one tile and counts its instructions;
3. INT8 x INT8 -> INT32 accumulation (the Tensor-Core WGMMA);
4. epilogue: first-level per-channel scale x per-token activation scale.

Performance (``estimate``): full-overlap pipeline (ImFP) on Hopper WGMMA efficiency with the
LQQ alpha measured from the instruction emulation, optionally cross-checked against the
event-driven pipeline simulator.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..costmodel.model import KernelCostParams, PipelineMode
from ..dequant.lqq import lqq_alpha, lqq_dequant_registers, registers_to_int8
from ..gpu.specs import GpuSpec, Precision
from ..isa import InstructionStats
from ..layout.dual_mma import (
    DUAL_MMA_TILE_COLS,
    DUAL_MMA_TILE_ROWS,
    ELEMENTS_PER_THREAD_DUAL,
    PackedWeightMatrix,
    dual_mma_gather_table,
    pack_weight_matrix,
    scatter_lane_elements,
)
from ..pipeline.simulator import PipelineKind
from ..quant.activation import quantize_activation_per_token
from ..quant.liquidquant import (
    LqqConfig,
    LqqQuantizedWeight,
    lqq_dequantize_int8,
    lqq_quantize,
)
from .base import GemmKernel, PreparedWeights
from .library import _DRAM_EFFICIENCY, _HOPPER_TENSOR_EFFICIENCY

__all__ = ["LiquidGemmKernel"]


class LiquidGemmKernel(GemmKernel):
    """The paper's hardware-efficient W4A8 GEMM kernel."""

    name = "liquidgemm"
    pipeline_kind = PipelineKind.IMFP

    def __init__(self, group_size: int = 64, num_compute_warp_groups: int = 2):
        if group_size % 32 != 0:
            # The dual-MMA layout requires every 32-column MMA fragment to fall inside one
            # quantization group so each packed register carries a single (scale, offset).
            raise ValueError("LiquidGEMM requires the group size to be a multiple of 32")
        self.config = LqqConfig(group_size=group_size)
        self.num_compute_warp_groups = num_compute_warp_groups

    # ------------------------------------------------------------------ cost model
    def cost_params(self, gpu: GpuSpec) -> KernelCostParams:
        return KernelCostParams(
            name=self.name,
            weight_precision=Precision.INT4,
            act_precision=Precision.INT8,
            mma_precision=Precision.INT8,
            alpha=lqq_alpha(),
            pipeline=PipelineMode.FULL_OVERLAP,
            tile_m=256,
            tile_n=128,
            tile_k=64,
            # Dual-MMA packed layout: one LDS.128 + one address op per 32 elements.
            load_overhead_alpha=2.0 / 32.0,
            tensor_efficiency=_HOPPER_TENSOR_EFFICIENCY,
            bandwidth_efficiency=_DRAM_EFFICIENCY,
        )

    def _pipeline_kwargs(self):
        # Ablation subclasses reuse this kernel with serial/ExCP pipelines, whose simulators
        # have no notion of multiple compute warp groups.
        if self.pipeline_kind == PipelineKind.IMFP:
            return {"num_compute_wgs": self.num_compute_warp_groups}
        return {}

    # ------------------------------------------------------------------ offline
    def prepare_weights(self, w: np.ndarray) -> PreparedWeights:
        w = np.asarray(w, dtype=np.float64)
        qw = lqq_quantize(w, self.config)
        packed = pack_weight_matrix(qw.q_u4)
        return PreparedWeights(
            kernel=self.name,
            original=w,
            payload={"lqq": qw, "packed": packed},
            deployed_bytes=qw.memory_bytes(),
        )

    # ------------------------------------------------------------------ numeric execution
    def run(self, x: np.ndarray, weights: PreparedWeights) -> np.ndarray:
        qw: LqqQuantizedWeight = weights.payload["lqq"]
        qa = quantize_activation_per_token(x)
        w_i8 = self.dequantize_weights(weights)
        acc = qa.q_i8.astype(np.int64) @ w_i8.astype(np.int64).T
        return acc.astype(np.float64) * qa.scale_tok * qw.scale_ch.reshape(1, -1)

    def dequantize_weights(
        self, weights: PreparedWeights, stats: Optional[InstructionStats] = None
    ) -> np.ndarray:
        """The (N, K) INT8 weights, dequantized from the packed dual-MMA words through the
        IMAD/XOR register path — bit-identical to Equation 12 on the LQQ codes.  ``stats``
        counts one instruction sequence per distinct (scale, offset) pair in each thread's
        four registers, tile by tile."""
        qw: LqqQuantizedWeight = weights.payload["lqq"]
        packed: PackedWeightMatrix = weights.payload["packed"]
        return _register_path(qw, packed.tiles, stats=stats)[: qw.n, : qw.k]

    # ------------------------------------------------------------------ register-path check
    def verify_tile_path(
        self,
        weights: PreparedWeights,
        tile_row: int = 0,
        tile_col: int = 0,
        stats: Optional[InstructionStats] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Dequantize one dual-MMA tile through the emulated register path.

        Returns ``(register_path, reference)`` INT8 tiles of shape (64, 64) so tests and the
        quickstart example can assert bit-exact agreement between the IMAD/XOR register
        sequence operating on the packed layout and the plain Equation-12 reference.  Ragged
        edge tiles are cut to their in-range region.  ``stats`` counts one instruction
        sequence per distinct (scale, offset) pair in each thread's four registers.
        """
        qw: LqqQuantizedWeight = weights.payload["lqq"]
        packed: PackedWeightMatrix = weights.payload["packed"]
        words = packed.tiles[tile_row, tile_col][None, None]
        r0, c0 = tile_row * DUAL_MMA_TILE_ROWS, tile_col * DUAL_MMA_TILE_COLS
        rows = min(DUAL_MMA_TILE_ROWS, qw.n - r0)
        cols = min(DUAL_MMA_TILE_COLS, qw.k - c0)
        out = _register_path(qw, words, (tile_row, tile_col), stats)
        return out[:rows, :cols], _eq12_slice(qw, r0, rows, c0, cols)


def _register_path(
    qw: LqqQuantizedWeight,
    words: np.ndarray,
    first_tile: Tuple[int, int] = (0, 0),
    stats: Optional[InstructionStats] = None,
) -> np.ndarray:
    """Dequantize packed words ``(tn, tk, 128, 4)`` through the IMAD/XOR register path.

    ``words[0, 0]`` is the tile at grid position ``first_tile``.  Returns the INT8 tiles
    reassembled into a ``(64 * tn, 64 * tk)`` matrix.  Each register's eight elements lie
    in one weight row and one quantization group (the group size is a multiple of 32), so
    the register carries that group's (scale, offset); padding reuses scale 1, offset 128.
    """
    tn, tk = words.shape[:2]
    group = qw.config.group_size
    first_elements = dual_mma_gather_table()[:, ::8]            # (128, 4, 2)
    rows = (first_tile[0] + np.arange(tn))[:, None, None, None] * DUAL_MMA_TILE_ROWS \
        + first_elements[..., 0]
    cols = (first_tile[1] + np.arange(tk))[None, :, None, None] * DUAL_MMA_TILE_COLS \
        + first_elements[..., 1]
    inside = (rows < qw.n) & (cols < qw.k)
    rows, groups = np.minimum(rows, qw.n - 1), np.minimum(cols // group, qw.num_groups - 1)
    scales = np.where(inside, qw.scale_u8[rows, groups], 1)
    offsets = np.where(inside, qw.offset_a[rows, groups], 128)
    byte_regs = lqq_dequant_registers(words, scales, offsets, stats)
    values = registers_to_int8(byte_regs)   # (tn, tk, 128, 4, 2, 4): w0..w3, w4..w7
    return scatter_lane_elements(values.reshape(tn, tk, -1, ELEMENTS_PER_THREAD_DUAL))


def _eq12_slice(qw: LqqQuantizedWeight, r0: int, rows: int, c0: int, cols: int) -> np.ndarray:
    """Equation-12 dequantization of ``qw`` rows ``[r0, r0+rows)``, columns ``[c0, c0+cols)``,
    computed on the covering whole groups only."""
    group = qw.config.group_size
    g0, g1 = c0 // group, -(-(c0 + cols) // group)
    part = LqqQuantizedWeight(
        q_u4=qw.q_u4[r0 : r0 + rows, g0 * group : g1 * group],
        scale_u8=qw.scale_u8[r0 : r0 + rows, g0:g1],
        offset_a=qw.offset_a[r0 : r0 + rows, g0:g1],
        min_i8=qw.min_i8[r0 : r0 + rows, g0:g1],
        scale_ch=qw.scale_ch[r0 : r0 + rows],
        config=qw.config,
        original_shape=(rows, (g1 - g0) * group),
    )
    start = c0 - g0 * group
    return lqq_dequantize_int8(part)[:, start : start + cols]
