"""Bit-exact emulation of the PTX-level 32-bit register instructions used by W4A8 dequantization.

Every function operates on NumPy ``uint32`` arrays, where each array element models the value
held by one *thread's* 32-bit register.  SIMT execution means one call corresponds to one
hardware instruction issued per thread, regardless of how many threads (lanes) the array
models — which is exactly how the paper counts instructions ("two arithmetic instructions per
four elements").  Each helper therefore records exactly the instructions a real kernel would
issue into an :class:`~repro.isa.counters.InstructionStats`.

Two families matter for the reproduction:

* native single-issue 32-bit ALU ops — ``IMAD``, ``XOR``, ``AND``, ``SHR``, ``LOP3`` … — used
  by LiquidQuant's dequantization (Section 5.3, Figure 8);
* the *emulated* SIMD-within-a-register ops QServe relies on — ``vadd4`` / ``vsub4`` — which
  Hopper does not implement natively and the compiler lowers to a sequence of byte
  extract/add/insert operations, "creating significant pressure on CUDA Cores" (Section 3.2).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .counters import InstructionStats

__all__ = [
    "MASK32",
    "to_u32",
    "pack_bytes",
    "unpack_bytes",
    "broadcast_byte",
    "and_b32",
    "or_b32",
    "xor_b32",
    "not_b32",
    "shr_b32",
    "shl_b32",
    "lop3_b32",
    "add_u32",
    "sub_u32",
    "mul_lo_u32",
    "imad_u32",
    "prmt_b32",
    "bfe_u32",
    "bfi_b32",
    "vadd4_lowered",
    "vsub4_lowered",
    "cvt_sat_s8x4",
]

MASK32 = np.uint32(0xFFFFFFFF)


def to_u32(values) -> np.ndarray:
    """Coerce ``values`` to a ``uint32`` NumPy array (truncating to 32 bits).

    A ``uint32`` array is returned as it is, without a copy.
    """
    arr = np.asarray(values)
    if arr.dtype == np.uint32:
        return arr
    if arr.dtype.kind == "f":
        raise TypeError("register values must be integral")
    return (arr.astype(np.int64) & 0xFFFFFFFF).astype(np.uint32)


def pack_bytes(b0, b1, b2, b3) -> np.ndarray:
    """Pack four byte arrays (b0 = least significant) into uint32 registers."""
    b0, b1, b2, b3 = (np.asarray(b, dtype=np.uint32) & 0xFF for b in (b0, b1, b2, b3))
    return (b0 | (b1 << np.uint32(8)) | (b2 << np.uint32(16)) | (b3 << np.uint32(24))).astype(np.uint32)


def unpack_bytes(reg) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split uint32 registers into four byte arrays (least significant first)."""
    reg = to_u32(reg)
    return (
        (reg & np.uint32(0xFF)).astype(np.uint8),
        ((reg >> np.uint32(8)) & np.uint32(0xFF)).astype(np.uint8),
        ((reg >> np.uint32(16)) & np.uint32(0xFF)).astype(np.uint8),
        ((reg >> np.uint32(24)) & np.uint32(0xFF)).astype(np.uint8),
    )


def broadcast_byte(value: int) -> int:
    """Replicate an 8-bit value into all four bytes of a 32-bit immediate (e.g. 0x80 -> 0x80808080)."""
    if not 0 <= value <= 0xFF:
        raise ValueError("byte value out of range")
    return value * 0x01010101


# --------------------------------------------------------------------------- native ALU ops

def _record(stats: Optional[InstructionStats], opcode: str, issue_slots: int = 1, unit: str = "alu"):
    if stats is not None:
        stats.record(opcode, issue_slots=issue_slots, unit=unit)


def and_b32(a, b, stats: Optional[InstructionStats] = None) -> np.ndarray:
    _record(stats, "and.b32")
    return to_u32(a) & to_u32(b)


def or_b32(a, b, stats: Optional[InstructionStats] = None) -> np.ndarray:
    _record(stats, "or.b32")
    return to_u32(a) | to_u32(b)


def xor_b32(a, b, stats: Optional[InstructionStats] = None) -> np.ndarray:
    _record(stats, "xor.b32")
    return to_u32(a) ^ to_u32(b)


def not_b32(a, stats: Optional[InstructionStats] = None) -> np.ndarray:
    _record(stats, "not.b32")
    return (~to_u32(a)) & MASK32


def shr_b32(a, shift: int, stats: Optional[InstructionStats] = None) -> np.ndarray:
    """Logical shift right."""
    if not 0 <= shift < 32:
        raise ValueError("shift must be in [0, 32)")
    _record(stats, "shr.b32")
    return (to_u32(a) >> np.uint32(shift)) & MASK32


def shl_b32(a, shift: int, stats: Optional[InstructionStats] = None) -> np.ndarray:
    """Logical shift left (truncating at 32 bits)."""
    if not 0 <= shift < 32:
        raise ValueError("shift must be in [0, 32)")
    _record(stats, "shl.b32")
    return (to_u32(a) << np.uint32(shift)) & MASK32


def lop3_b32(a, b, c, lut: int, stats: Optional[InstructionStats] = None) -> np.ndarray:
    """Three-input bitwise logic op (PTX ``lop3.b32``) defined by an 8-entry truth table.

    ``lut`` bit ``(4*a_bit + 2*b_bit + c_bit)`` gives the output bit for that input combination,
    matching the hardware immLut encoding.
    """
    if not 0 <= lut <= 0xFF:
        raise ValueError("lut must be an 8-bit immediate")
    a, b, c = to_u32(a), to_u32(b), to_u32(c)
    _record(stats, "lop3.b32")
    result = np.zeros(np.broadcast(a, b, c).shape, dtype=np.uint32)
    for idx in range(8):
        if not (lut >> idx) & 1:
            continue
        a_bit, b_bit, c_bit = (idx >> 2) & 1, (idx >> 1) & 1, idx & 1
        term = np.full_like(result, MASK32)
        term &= a if a_bit else (~a & MASK32)
        term &= b if b_bit else (~b & MASK32)
        term &= c if c_bit else (~c & MASK32)
        result |= term
    return result


def add_u32(a, b, stats: Optional[InstructionStats] = None) -> np.ndarray:
    """32-bit wrapping addition."""
    _record(stats, "add.u32")
    return (to_u32(a).astype(np.uint64) + to_u32(b).astype(np.uint64)).astype(np.uint32)


def sub_u32(a, b, stats: Optional[InstructionStats] = None) -> np.ndarray:
    """32-bit wrapping subtraction."""
    _record(stats, "sub.u32")
    return (to_u32(a).astype(np.int64) - to_u32(b).astype(np.int64)).astype(np.uint32)


def mul_lo_u32(a, b, stats: Optional[InstructionStats] = None) -> np.ndarray:
    """Low 32 bits of a 32x32 multiply."""
    _record(stats, "mul.lo.u32")
    return ((to_u32(a).astype(np.uint64) * to_u32(b).astype(np.uint64)) & 0xFFFFFFFF).astype(np.uint32)


def imad_u32(a, b, c, stats: Optional[InstructionStats] = None) -> np.ndarray:
    """Integer multiply-add ``a * b + c`` (low 32 bits), the PTX ``mad.lo``/SASS ``IMAD``.

    This is the workhorse of LiquidQuant's dequantization: with ``a`` holding four packed
    dequantization inputs (one per byte, each small enough that ``a_i * b`` stays below 256),
    ``b`` a scalar scale and ``c`` a packed per-byte offset, a *single* IMAD performs four
    byte-wise multiply-adds because no carries cross byte boundaries.
    """
    _record(stats, "imad.u32")
    prod = to_u32(a).astype(np.uint64) * to_u32(b).astype(np.uint64)
    return ((prod + to_u32(c).astype(np.uint64)) & 0xFFFFFFFF).astype(np.uint32)


def prmt_b32(a, b, selector: int, stats: Optional[InstructionStats] = None) -> np.ndarray:
    """Byte-permute (PTX ``prmt.b32``): select 4 bytes out of the 8 bytes of ``{b,a}``.

    Each nibble of ``selector`` picks a source byte index 0-7 (0-3 from ``a``, 4-7 from ``b``);
    the optional sign-replication modes are not modeled because the dequantization kernels in
    this reproduction do not use them.
    """
    if not 0 <= selector <= 0xFFFF:
        raise ValueError("selector must be a 16-bit immediate")
    a, b = to_u32(a), to_u32(b)
    _record(stats, "prmt.b32")
    combined = a.astype(np.uint64) | (b.astype(np.uint64) << np.uint64(32))
    out = np.zeros(np.broadcast(a, b).shape, dtype=np.uint32)
    for dst in range(4):
        src = (selector >> (4 * dst)) & 0x7
        byte = ((combined >> np.uint64(8 * src)) & np.uint64(0xFF)).astype(np.uint32)
        out |= byte << np.uint32(8 * dst)
    return out


def bfe_u32(a, pos: int, length: int, stats: Optional[InstructionStats] = None) -> np.ndarray:
    """Bit-field extract (unsigned)."""
    if not (0 <= pos < 32 and 0 < length <= 32 and pos + length <= 32):
        raise ValueError("invalid bit field")
    _record(stats, "bfe.u32")
    mask = np.uint32((1 << length) - 1)
    return (to_u32(a) >> np.uint32(pos)) & mask


def bfi_b32(src, dst, pos: int, length: int, stats: Optional[InstructionStats] = None) -> np.ndarray:
    """Bit-field insert: place the low ``length`` bits of ``src`` into ``dst`` at ``pos``."""
    if not (0 <= pos < 32 and 0 < length <= 32 and pos + length <= 32):
        raise ValueError("invalid bit field")
    _record(stats, "bfi.b32")
    mask = np.uint32(((1 << length) - 1) << pos)
    inserted = (to_u32(src) << np.uint32(pos)) & mask
    return (to_u32(dst) & ~mask) | inserted


# ------------------------------------------------------------- emulated SIMD-within-register

def vadd4_lowered(a, b, stats: Optional[InstructionStats] = None) -> np.ndarray:
    """Per-byte addition of two packed u8x4 registers, as lowered on Hopper.

    ``vadd4`` is a real PTX intrinsic but Hopper has no hardware SIMD-video unit, so the
    compiler expands it into per-byte extract / add / insert sequences.  We perform that exact
    lowering (3 instructions per byte = 12 ALU ops plus a final move), which is what makes
    QServe's "subtraction after multiplication" step so expensive (Section 3.2: "lowered to a
    dozen low-level operations").
    """
    a, b = to_u32(a), to_u32(b)
    out = np.zeros(np.broadcast(a, b).shape, dtype=np.uint32)
    for byte in range(4):
        lane_a = bfe_u32(a, 8 * byte, 8, stats)
        lane_b = bfe_u32(b, 8 * byte, 8, stats)
        lane_sum = add_u32(lane_a, lane_b, stats) & np.uint32(0xFF)
        out = bfi_b32(lane_sum, out, 8 * byte, 8, stats)
    return out


def vsub4_lowered(a, b, stats: Optional[InstructionStats] = None) -> np.ndarray:
    """Per-byte subtraction ``a - b`` (mod 256 in each byte) with the same lowering cost."""
    a, b = to_u32(a), to_u32(b)
    out = np.zeros(np.broadcast(a, b).shape, dtype=np.uint32)
    for byte in range(4):
        lane_a = bfe_u32(a, 8 * byte, 8, stats)
        lane_b = bfe_u32(b, 8 * byte, 8, stats)
        lane_diff = sub_u32(lane_a, lane_b, stats) & np.uint32(0xFF)
        out = bfi_b32(lane_diff, out, 8 * byte, 8, stats)
    return out


def cvt_sat_s8x4(a, stats: Optional[InstructionStats] = None) -> np.ndarray:
    """Saturate each byte, interpreted as a signed 9-bit intermediate, into INT8 range.

    Used by the W4A16-style and naive dequantization baselines that must clamp after a
    subtraction; costs one instruction per byte on Hopper (``cvt.sat`` per lane).
    """
    a = to_u32(a)
    out = np.zeros(a.shape, dtype=np.uint32)
    for byte in range(4):
        lane = bfe_u32(a, 8 * byte, 8, stats)
        out = bfi_b32(lane, out, 8 * byte, 8, stats)
    return out
