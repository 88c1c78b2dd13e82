"""Tests for the sampling-based ratio-quality model."""

import hashlib
import importlib.util
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.compression import SZCompressor
from repro.data import NyxGenerator
from repro.errors import CompressionError, ModelingError
from repro.modeling import RatioQualityModel, sample_partition_stats

from helpers import make_smooth_field


class TestRatioPredictionAccuracy:
    def test_accuracy_in_normal_regime(self):
        """Paper claim: estimation accuracy consistently above 90% in the
        operating band (bit-rates ~2-8)."""
        g = NyxGenerator((48, 48, 48), seed=11)
        for name in g.field_names:
            data = g.field(name)
            codec = SZCompressor(bound=g.error_bound(name), mode="abs")
            pred = RatioQualityModel(codec).predict(data)
            actual = len(codec.compress(data))
            rel_err = abs(pred.predicted_nbytes - actual) / actual
            assert rel_err < 0.15, f"{name}: {rel_err:.1%}"

    def test_degrades_at_extreme_ratio(self):
        """Paper Section III-D: the model performs poorly above ratio ~32
        (bit-rate < 1) because of the RLE-based lossless analysis.  Compare
        mean error at extreme vs. normal bounds over several fields."""
        g = NyxGenerator((48, 48, 48), seed=12)

        def mean_error(bound_scale: float) -> tuple[float, float]:
            errs, ratios = [], []
            for name in ("baryon_density", "temperature", "velocity_x"):
                data = g.field(name)
                codec = SZCompressor(
                    bound=g.error_bound(name) * bound_scale, mode="abs"
                )
                pred = RatioQualityModel(codec).predict(data)
                actual = len(codec.compress(data))
                errs.append(abs(pred.predicted_nbytes - actual) / actual)
                ratios.append(data.nbytes / actual)
            return float(np.mean(errs)), float(np.mean(ratios))

        err_normal, ratio_normal = mean_error(1.0)
        err_extreme, ratio_extreme = mean_error(100.0)
        assert ratio_normal < 32 < ratio_extreme
        assert err_extreme > 2 * err_normal

    def test_prediction_monotone_in_bound(self):
        data = make_smooth_field((32, 32, 32))
        sizes = []
        for eb in (1e-4, 1e-3, 1e-2):
            codec = SZCompressor(bound=eb, mode="rel")
            sizes.append(RatioQualityModel(codec).predict(data).predicted_nbytes)
        assert sizes[0] > sizes[1] > sizes[2]

    def test_derived_quantities(self):
        data = make_smooth_field((24, 24, 24))
        codec = SZCompressor(bound=1e-3, mode="rel")
        pred = RatioQualityModel(codec).predict(data)
        assert pred.bit_rate == pytest.approx(
            8 * pred.predicted_nbytes / data.size
        )
        assert pred.ratio == pytest.approx(data.nbytes / pred.predicted_nbytes)
        assert pred.n_values == data.size

    def test_sampling_is_much_cheaper_than_compression(self):
        """Paper: prediction overhead <10% of compression time."""
        data = make_smooth_field((48, 48, 48))
        codec = SZCompressor(bound=1e-3, mode="rel")
        model = RatioQualityModel(codec)
        model.predict(data)  # warm-up
        # Alternating pairs, best of each side: a slow spell of the host
        # lands on both sides of a round instead of on one side only.
        t_pred = t_comp = float("inf")
        for _ in range(7):
            t_pred = min(t_pred, self._timed(lambda: model.predict(data)))
            t_comp = min(t_comp, self._timed(lambda: codec.compress(data)))
        # The ratio reads 0.19-0.20 in a fresh process and 0.28-0.29 once
        # the process has freed a few-MB buffer (any earlier test does):
        # glibc then stops mmap-ing compress's temporaries and compress
        # gets ~40 % faster.  It read 0.16 / 0.22 while compress ran zlib
        # over the whole Huffman bitstream; now only the code table and
        # the outliers are wrapped, and predict, whose sampled histogram
        # here is not skewed, skips its sample encode and RLE pass (with
        # them the ratio reads 0.24 / 0.35-0.36).  Above the paper's 10 %
        # at this size: the Huffman code build over the sampled histogram
        # costs about as much on a 48^3 field as on a 2 MiB partition.
        assert t_pred < 0.35 * t_comp

    @staticmethod
    def _timed(fn):
        import time

        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0


class TestEstimatorVariants:
    #: (edge, field) -> (predicted_nbytes, lossless_factor) of
    #: ``NyxGenerator((edge,) * 3, seed=14)`` at 30x the field's bound, abs
    #: mode: the cells whose sampled histogram is skewed and whose RLE
    #: factor exceeds 1 (every other field there predicts a factor of 1.0).
    SKEWED = {
        (48, "baryon_density"): (8779, 1.7454545454545454),
        (48, "dark_matter_density"): (3446, 4.2823529411764705),
        (24, "baryon_density"): (425, 6.0),
        (24, "dark_matter_density"): (184, 32.0),
    }

    @pytest.mark.parametrize("edge", [48, 24])
    def test_rle_factor_on_skewed_cells(self, edge):
        gen = NyxGenerator((edge,) * 3, seed=14)
        for name in gen.field_names:
            codec = SZCompressor(bound=gen.error_bound(name) * 30, mode="abs")
            pred = RatioQualityModel(codec).predict(gen.field(name))
            got = (pred.predicted_nbytes, pred.lossless_factor)
            assert got == self.SKEWED.get((edge, name), (got[0], 1.0)), name

    def test_lossless_none_codec_factor_is_one(self):
        data = make_smooth_field((24, 24, 24))
        codec = SZCompressor(bound=1e-2, mode="rel", lossless="none")
        pred = RatioQualityModel(codec).predict(data)
        assert pred.lossless_factor == 1.0

    def test_unknown_estimator_rejected(self):
        # "rle" is the one estimator; the retired "zlib-sample" and "none"
        # are refused like any other name.
        codec = SZCompressor()
        for name in ("lz4", "zlib-sample", "none"):
            with pytest.raises(ModelingError):
                RatioQualityModel(codec, lossless_estimator=name)

    def test_prediction_independent_of_instance(self):
        data = make_smooth_field((16, 16, 16))
        codec = SZCompressor(bound=1e-3, mode="rel")
        a = RatioQualityModel(codec).predict(data).predicted_nbytes
        b = RatioQualityModel(codec).predict(data).predicted_nbytes
        assert a == b


@lru_cache(maxsize=1)
def _perfbench_inputs():
    """``perfbench/inputs.py``, the benchmark's seeded input kinds."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("_perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _kind(kind):
    return lambda: _perfbench_inputs().field(kind, 32, seed=0)


#: id: (field, bound, mode, fraction, block_edge, radius, sha256 of the
#: sampled symbol stream, n_sampled, outlier_fraction).  Recorded with the
#: per-block sampler this one replaced (one quantize + Lorenzo per sampled
#: block); the stream, and so every predicted size, must not move.
SAMPLED_STREAM_GOLDEN = {
    "1d-ragged": (
        lambda: make_smooth_field((101,), dtype=np.float64), 1e-3, "rel", 0.3, 8, 32768,
        "70d18663019713233d586c837f81c4d39ead87eb6c0eeb2145c161f2aeaaf6f3", 32, 0.0,
    ),
    "2d-ragged": (
        lambda: make_smooth_field((13, 21)), 1e-3, "abs", 0.25, 8, 32768,
        "b85113cbdde8128b3fdf0d380d9ce70a324161e66bcd900652043a359e1b7b2f", 104, 0.0,
    ),
    "3d-ragged": (
        lambda: make_smooth_field((9, 17, 11)), 1e-3, "rel", 0.2, 4, 32768,
        "56ca6c2a9d9d3990332a29a8f893474eda565ec3a4f29c368f8e5ae3040aaf69", 396, 0.0,
    ),
    "4d-ragged": (
        lambda: make_smooth_field((5, 9, 3, 10)), 1e-2, "abs", 0.2, 4, 32768,
        "65a4409f1543da419b0e06b190d95c8a6fd5afbe0efd51e47ff406eae3fce059", 480, 0.0,
    ),
    "unit-axes": (
        lambda: make_smooth_field((1, 37, 1)), 1e-3, "rel", 0.5, 8, 32768,
        "b5bad0ca8d5a49c44ed569bc5b01e540a362fbfdd90b636ed0413fbd8e6b9af1", 16, 0.0,
    ),
    "one-value": (
        lambda: make_smooth_field((1,)), 1e-3, "abs", 0.05, 8, 32768,
        "26f20187459707e0f1543928bdd92a9400e163a5856a7a0833ca59e74a1018c8", 1, 0.0,
    ),
    "full-3d": (
        lambda: make_smooth_field((9, 17, 11)), 1e-3, "abs", 1.0, 4, 32768,
        "87028b57f25b2c47baa5f5a77e08b275e7910e1d61b044cc019d810144ad8f07", 1683, 0.0,
    ),
    "full-4d": (
        lambda: make_smooth_field((5, 9, 3, 10)), 1e-3, "rel", 1.0, 4, 32768,
        "42c7ae1c3f9f5fc59052323628eac8f4428ad6a9ccc4c1715c7cfd30d3f5dd56", 1350, 0.0,
    ),
    "k1": (
        lambda: make_smooth_field((24, 24, 24)), 1e-3, "rel", 0.001, 8, 32768,
        "954f20f20d8c9b4efd61a4dbb674d255e47203f3c7792344181ebff269e403d8", 512, 0.0,
    ),
    "outliers": (
        lambda: make_smooth_field((16, 16, 16)), 1e-3, "rel", 0.5, 8, 16,
        "d9e315dcb2d30fda497f84493c8b13790957ab8f0c60a717fd327cca704e1c80", 2048, 0.474609375,
    ),
    "smooth-32": (
        _kind("smooth"), 1e-3, "abs", 0.05, 8, 32768,
        "7401cc19469bac5a0ecdf970eeac25318769994583656065183d065a042efa06", 1536, 0.0,
    ),
    "turb-32": (
        _kind("turb"), 1e-3, "abs", 0.05, 8, 32768,
        "e0e768e77ac5b2ed242c92035230713e699a52dbe387521648cdb4e952718c27", 1536, 0.0,
    ),
    "rough-32": (
        _kind("rough"), 1e-3, "abs", 0.05, 8, 32768,
        "7b9ceea27b80579481f2e3d9f2c98185f34003c9297e6322acc43960e3d21490", 1536, 0.0,
    ),
    "mixed-32": (
        _kind("mixed"), 1e-3, "abs", 0.05, 8, 32768,
        "7cccc9f411b84643362c2c241cf2101813df6ef9bd61bb009cbf998d351f6c48", 1536, 0.0,
    ),
}


class TestSampledStreamGolden:
    """The sampled symbol stream is the model's whole input: pinned
    bitwise on ragged 1-D..4-D shapes, unit axes, full and one-block
    fractions, both bound modes, and the four benchmark input kinds."""

    @pytest.mark.parametrize("case", sorted(SAMPLED_STREAM_GOLDEN))
    def test_stream_is_pinned(self, case):
        make, bound, mode, fraction, edge, radius, digest, n, outliers = (
            SAMPLED_STREAM_GOLDEN[case]
        )
        stats = sample_partition_stats(
            make(), bound, mode, radius=radius, fraction=fraction, block_edge=edge
        )
        assert stats.sampled_symbols.dtype == np.int64
        assert hashlib.sha256(stats.sampled_symbols.tobytes()).hexdigest() == digest
        assert stats.n_sampled == n
        assert stats.outlier_fraction == outliers

    # 32^3 in 8^3 blocks at 5 %: blocks 0, 21 and 42 of 64, i.e. block
    # origins (0, 0, 0), (8, 8, 8) and (16, 16, 16).
    @pytest.mark.parametrize(
        "where, raises",
        [
            ((3, 3, 3), True),  # inside sampled block 0
            ((7, 8, 8), True),  # the layer in front of sampled block 21
            ((0, 0, 12), False),  # block 1: neither sampled nor in front of one
        ],
    )
    def test_nan_is_checked_in_sampled_blocks_only(self, where, raises):
        data = make_smooth_field((32, 32, 32))
        data[where] = np.nan
        if raises:
            with pytest.raises(CompressionError):
                sample_partition_stats(data, 1e-3, "abs")
        else:
            stats = sample_partition_stats(data, 1e-3, "abs")
            assert stats.n_sampled == 3 * 512
