"""Numerical-correctness tests for every GEMM kernel (repro.kernels)."""

import numpy as np
import pytest

from repro.kernels import (
    LiquidGemmKernel,
    QServeW4A8Kernel,
    W8A8Kernel,
    available_kernels,
    default_comparison_set,
    get_kernel,
)

#: Relative Frobenius-error budgets per kernel, reflecting their quantization precision.
ERROR_BUDGETS = {
    "fp16": 0.002,
    "w8a8": 0.03,
    "fp8": 0.08,
    "w4a16": 0.15,
    "qserve-w4a8": 0.15,
    "liquidgemm": 0.15,
}


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(7)
    w = rng.normal(0.0, 0.02, (256, 512))
    x = rng.normal(0.0, 1.0, (32, 512))
    return x, w, x @ w.T


class TestAllKernelsNumerics:
    @pytest.mark.parametrize("name", sorted(ERROR_BUDGETS))
    def test_output_close_to_reference(self, problem, name):
        x, w, reference = problem
        kernel = get_kernel(name)
        prepared = kernel.prepare_weights(w)
        y = kernel.run(x, prepared)
        assert y.shape == reference.shape
        rel = np.linalg.norm(y - reference) / np.linalg.norm(reference)
        assert rel < ERROR_BUDGETS[name], f"{name}: rel error {rel:.4f}"

    @pytest.mark.parametrize("name", sorted(ERROR_BUDGETS))
    def test_deterministic(self, problem, name):
        x, w, _ = problem
        kernel = get_kernel(name)
        prepared = kernel.prepare_weights(w)
        assert np.array_equal(kernel.run(x, prepared), kernel.run(x, prepared))

    @pytest.mark.parametrize("name", ["liquidgemm", "qserve-w4a8", "w4a16"])
    def test_4bit_kernels_compress_4x(self, problem, name):
        _, w, _ = problem
        prepared = get_kernel(name).prepare_weights(w)
        assert prepared.compression_ratio() > 3.5

    def test_w8a8_compresses_2x(self, problem):
        _, w, _ = problem
        assert W8A8Kernel().prepare_weights(w).compression_ratio() > 1.9

    def test_registry_contains_all_paper_kernels(self):
        names = available_kernels()
        for expected in ("fp16", "w8a8", "fp8", "w4a16", "qserve-w4a8", "liquidgemm"):
            assert expected in names

    def test_registry_unknown(self):
        with pytest.raises(KeyError):
            get_kernel("int2")

    def test_comparison_set_is_figure12_set(self):
        assert set(default_comparison_set()) == {
            "fp16", "w8a8", "fp8", "w4a16", "qserve-w4a8", "liquidgemm"
        }


class TestLiquidGemmSpecifics:
    def test_group_size_must_be_multiple_of_32(self):
        with pytest.raises(ValueError):
            LiquidGemmKernel(group_size=48)

    def test_register_tile_path_bit_exact(self, problem):
        """The emulated IMAD/XOR register path on the packed layout must agree bit-for-bit
        with the vectorized Equation-12 dequantization (the core kernel-correctness claim)."""
        _, w, _ = problem
        kernel = LiquidGemmKernel()
        prepared = kernel.prepare_weights(w)
        for tile_row, tile_col in [(0, 0), (1, 3), (3, 7)]:
            register_path, reference = kernel.verify_tile_path(prepared, tile_row, tile_col)
            assert np.array_equal(register_path, reference)

    def test_register_tile_path_instruction_count(self, problem):
        from repro.isa import InstructionStats

        _, w, _ = problem
        kernel = LiquidGemmKernel()
        prepared = kernel.prepare_weights(w)
        stats = InstructionStats()
        kernel.verify_tile_path(prepared, 0, 0, stats=stats)
        # 128 lanes x 4 registers x 7 instructions, grouped by shared (scale, offset): at most
        # that many, at least one sequence per register row group.
        assert 0 < stats.total_instructions <= 128 * 4 * 7
        assert stats.count("imad.u32") > 0 and stats.count("xor.b32") > 0

    def test_quickstart_tile_instruction_count_pinned(self):
        """The quickstart's tile (0, 0): one 7-op sequence per distinct (scale, offset)
        pair in each thread's four registers, 252 sequences in all."""
        from repro.isa import InstructionStats

        # The quickstart's first 64 rows (row-major draws), which alone fix tile (0, 0).
        w = np.random.default_rng(0).normal(0.0, 0.02, (64, 4096))
        kernel = LiquidGemmKernel()
        stats = InstructionStats()
        register_path, reference = kernel.verify_tile_path(kernel.prepare_weights(w), stats=stats)
        assert np.array_equal(register_path, reference)
        assert stats.as_dict() == {"and.b32": 504, "shr.b32": 252, "imad.u32": 504, "xor.b32": 504}
        assert stats.total_instructions == 1764

    @pytest.mark.parametrize(
        "shape, group", [((100, 192), 64), ((256, 512), 64), ((130, 256), 128), ((70, 96), 32)]
    )
    def test_whole_matrix_register_path_is_bit_exact(self, rng, shape, group):
        from repro.quant.liquidquant import lqq_dequantize_int8, lqq_dequantize_int8_reference

        kernel = LiquidGemmKernel(group_size=group)
        prepared = kernel.prepare_weights(rng.normal(0, 0.02, shape))
        qw = prepared.payload["lqq"]
        w_i8 = kernel.dequantize_weights(prepared)
        assert w_i8.dtype == np.int8 and w_i8.shape == shape
        assert np.array_equal(w_i8, lqq_dequantize_int8(qw))
        assert np.array_equal(w_i8, lqq_dequantize_int8_reference(qw))

    @pytest.mark.parametrize("prepare_group, run_group", [(128, 64), (32, 128)])
    def test_register_path_follows_the_weights_group_size(self, rng, prepare_group, run_group):
        """A kernel running weights prepared with another group size uses the weights' own
        groups, in run() and in verify_tile_path alike."""
        from repro.quant.activation import quantize_activation_per_token
        from repro.quant.liquidquant import lqq_dequantize_int8

        w = rng.normal(0, 0.02, (100, 256))
        x = rng.normal(0, 1.0, (3, 256))
        prepared = LiquidGemmKernel(group_size=prepare_group).prepare_weights(w)
        runner = LiquidGemmKernel(group_size=run_group)
        qw = prepared.payload["lqq"]
        w_i8 = lqq_dequantize_int8(qw)
        assert np.array_equal(runner.dequantize_weights(prepared), w_i8)
        qa = quantize_activation_per_token(x)
        acc = qa.q_i8.astype(np.int64) @ w_i8.astype(np.int64).T
        expected = acc.astype(np.float64) * qa.scale_tok * qw.scale_ch.reshape(1, -1)
        assert np.array_equal(runner.run(x, prepared), expected)
        for tile_row, tile_col in ((0, 0), (1, 3)):
            register_path, reference = runner.verify_tile_path(prepared, tile_row, tile_col)
            assert np.array_equal(register_path, reference)

    def test_run_executes_through_packed_words(self, rng, monkeypatch):
        """run() reads the packed words, never the Eq. 12 reference, and its output is the
        exact INT64 product of the Eq. 12 weights."""
        from repro.kernels import liquidgemm
        from repro.quant.activation import quantize_activation_per_token
        from repro.quant.liquidquant import lqq_dequantize_int8

        w = rng.normal(0, 0.02, (100, 192))
        x = rng.normal(0, 1.0, (5, 192))
        kernel = LiquidGemmKernel()
        prepared = kernel.prepare_weights(w)
        qw = prepared.payload["lqq"]
        qa = quantize_activation_per_token(x)
        acc = qa.q_i8.astype(np.int64) @ lqq_dequantize_int8(qw).astype(np.int64).T
        expected = acc.astype(np.float64) * qa.scale_tok * qw.scale_ch.reshape(1, -1)

        def forbidden(*_args, **_kwargs):
            raise AssertionError("run() called the Eq. 12 reference")

        monkeypatch.setattr(liquidgemm, "lqq_dequantize_int8", forbidden)
        assert np.array_equal(kernel.run(x, prepared), expected)
        prepared.payload["packed"].tiles[0, 0, 0, 0] ^= 0x1
        assert not np.array_equal(kernel.run(x, prepared), expected)

    def test_more_accurate_than_or_equal_to_qserve(self, problem):
        x, w, reference = problem
        liquid = LiquidGemmKernel()
        qserve = QServeW4A8Kernel()
        err_liquid = np.linalg.norm(liquid.run(x, liquid.prepare_weights(w)) - reference)
        err_qserve = np.linalg.norm(qserve.run(x, qserve.prepare_weights(w)) - reference)
        assert err_liquid <= err_qserve * 1.1

    def test_ragged_shapes_supported(self, rng):
        """N and K need not be multiples of the tile size for the numeric path."""
        w = rng.normal(0, 0.02, (100, 192))
        x = rng.normal(0, 1.0, (5, 192))
        kernel = LiquidGemmKernel()
        y = kernel.run(x, kernel.prepare_weights(w))
        rel = np.linalg.norm(y - x @ w.T) / np.linalg.norm(x @ w.T)
        assert rel < 0.2
