"""Register-level LiquidQuant dequantization (Section 5.3, Figure 8).

Input: packed 32-bit registers, each holding eight UINT4 codes in the interleaved nibble
order produced by :func:`repro.layout.packing.pack_u4_interleaved` / the dual-MMA layout.
Output: two packed byte registers per input register, each holding four INT8 values (in
two's-complement byte form) ready for the INT8 WGMMA.

Instruction sequence per input register (7 instructions for 8 elements, matching the paper's
"eight elements are dequantized with only seven instructions"):

====  =============================  =================================================
 #    instruction                    effect
====  =============================  =================================================
 1    ``and.b32   r_lo, r, 0x0F0F0F0F``   extract elements w0..w3 into separate bytes
 2    ``and.b32   r_hi, r, 0xF0F0F0F0``   isolate elements w4..w7
 3    ``shr.b32   r_hi, r_hi, 4``          move them into byte position
 4    ``imad.u32  r_lo, r_lo, s, a4``      per-byte ``q*s + a`` (no cross-byte carries)
 5    ``xor.b32   r_lo, r_lo, 0x80808080`` flip MSBs -> two's-complement INT8
 6    ``imad.u32  r_hi, r_hi, s, a4``
 7    ``xor.b32   r_hi, r_hi, 0x80808080``
====  =============================  =================================================

The absence of cross-byte carries in step 4 is exactly the overflow-freedom property proven
in Section 4 (and re-checked at run time by :func:`repro.quant.liquidquant.lqq_dequantize_int8`).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..isa import (
    InstructionStats,
    and_b32,
    broadcast_byte,
    imad_u32,
    shr_b32,
    to_u32,
    xor_b32,
)
from ..layout.packing import unpack_u32_to_u8

__all__ = [
    "LQQ_INSTRUCTIONS_PER_REGISTER",
    "LQQ_ELEMENTS_PER_REGISTER",
    "lqq_alpha",
    "lqq_dequant_register",
    "lqq_dequant_registers",
    "registers_to_int8",
]

LQQ_INSTRUCTIONS_PER_REGISTER = 7
LQQ_ELEMENTS_PER_REGISTER = 8

_LOW_NIBBLE_MASK = 0x0F0F0F0F
_HIGH_NIBBLE_MASK = 0xF0F0F0F0
_SIGN_FLIP = 0x80808080
#: The seven-instruction sequence above, as (opcode, occurrences) for instruction accounting.
_SEQUENCE_OPCODES = (("and.b32", 2), ("shr.b32", 1), ("imad.u32", 2), ("xor.b32", 2))


def lqq_alpha() -> float:
    """Instructions per dequantized element for the LQQ path (the cost-model alpha)."""
    return LQQ_INSTRUCTIONS_PER_REGISTER / LQQ_ELEMENTS_PER_REGISTER


def lqq_dequant_register(
    register,
    scale_u8: int,
    offset_a: int,
    stats: Optional[InstructionStats] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Dequantize one packed register (or an array of registers sharing scale/offset).

    Returns ``(low, high)`` packed byte registers holding elements (w0..w3) and (w4..w7)
    respectively, each byte being the INT8 result in two's-complement form.
    """
    out = lqq_dequant_registers(register, int(scale_u8), int(offset_a), stats)
    return out[..., 0], out[..., 1]


def lqq_dequant_registers(
    registers: np.ndarray,
    scale_u8: np.ndarray,
    offset_a: np.ndarray,
    stats: Optional[InstructionStats] = None,
) -> np.ndarray:
    """Dequantize an array of packed registers with per-register scale/offset.

    ``registers``, ``scale_u8`` and ``offset_a`` must be broadcast-compatible; the result has
    shape ``registers.shape + (2,)`` holding the (low, high) output byte registers.  Each of
    the seven instructions runs once over the whole array, with the scale and the packed
    offset ``a * 0x01010101`` supplied per register.

    Instruction counting note: in SIMT execution, registers processed by *different threads in
    the same instruction* cost one issue each per thread.  The last axis of ``registers`` holds
    one thread's registers, and ``stats`` conservatively records one instruction sequence per
    distinct (scale, offset) pair among them, mirroring a per-thread trace — for a scalar or
    1-D call, one sequence per distinct pair in the call.  Use :func:`lqq_alpha` for the
    analytic per-element cost.
    """
    registers = to_u32(registers)
    scale_u8 = np.broadcast_to(np.asarray(scale_u8), registers.shape)
    offset_a = np.broadcast_to(np.asarray(offset_a), registers.shape)
    if scale_u8.size and (scale_u8.min() < 1 or scale_u8.max() > 16):
        raise ValueError("second-level scale must lie in [1, 16]")
    if offset_a.size and (offset_a.min() < 0 or offset_a.max() > 255):
        raise ValueError("offset a must fit in UINT8")
    scale = scale_u8.astype(np.uint32)
    a_packed = offset_a.astype(np.uint32) * np.uint32(broadcast_byte(1))

    out = np.empty(registers.shape + (2,), dtype=np.uint32)
    r_lo = and_b32(registers, _LOW_NIBBLE_MASK)
    r_hi = and_b32(registers, _HIGH_NIBBLE_MASK)
    r_hi = shr_b32(r_hi, 4)
    out[..., 0] = xor_b32(imad_u32(r_lo, scale, a_packed), _SIGN_FLIP)
    out[..., 1] = xor_b32(imad_u32(r_hi, scale, a_packed), _SIGN_FLIP)

    if stats is not None:
        pairs = scale_u8.astype(np.int64) * 256 + offset_a.astype(np.int64)
        sequences = 0
        if pairs.size:
            threads = np.sort(pairs.reshape(-1, pairs.shape[-1] if pairs.ndim else 1), axis=1)
            sequences = threads.shape[0] + np.count_nonzero(np.diff(threads, axis=1))
        for opcode, per_sequence in _SEQUENCE_OPCODES:
            stats.record(opcode, count=per_sequence * int(sequences))
    return out


def registers_to_int8(byte_registers: np.ndarray) -> np.ndarray:
    """Reinterpret packed byte registers as INT8 values, preserving element order.

    ``byte_registers`` of shape ``(...,)`` yields an array of shape ``(..., 4)`` where byte 0
    (the least significant) comes first — i.e. element order w0, w1, w2, w3 for a low register
    and w4, w5, w6, w7 for a high register.
    """
    return unpack_u32_to_u8(byte_registers).view(np.int8)
