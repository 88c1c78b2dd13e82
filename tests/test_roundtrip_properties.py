"""Property-based round-trip tests for the compression stages.

The verification subsystem certifies whole files; these properties pin the
individual lossy/lossless stages underneath it: the quantizer's point-wise
bound, Huffman's exactness over arbitrary bounded symbol streams, and the
full SZ container round trip across random dtypes, bounds and shapes.
Everything runs under seeded hypothesis strategies so failures replay.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.huffman import huffman_decode, huffman_encode
from repro.compression.quantizer import LinearQuantizer
from repro.compression.sz import SZCompressor
from repro.utils.stats import value_range, violates_bound


def _finite_arrays(dtype, max_side=40, magnitude=1e4):
    """1-D/2-D finite float arrays of the given dtype."""
    return st.tuples(
        st.integers(1, max_side),
        st.integers(1, 4),
        st.integers(0, 2**31 - 1),
        st.floats(-magnitude, magnitude),
        st.floats(0.01, magnitude / 10.0),
    ).map(
        lambda t: (
            t[3]
            + t[4]
            * np.random.default_rng(t[2]).normal(0.0, 1.0, (t[0], t[1]))
        ).astype(dtype)
    )


class TestQuantizerProperties:
    @given(
        data=st.one_of(_finite_arrays(np.float32), _finite_arrays(np.float64)),
        bound=st.floats(1e-6, 1e2),
    )
    @settings(max_examples=60, deadline=None)
    def test_abs_bound_holds_pointwise(self, data, bound):
        """|x - dequantize(quantize(x))| <= bound for every element (up to
        the float64 arithmetic slack the shared oracle allows)."""
        q = LinearQuantizer(bound, "abs")
        spec = q.resolve(data)
        recon = q.dequantize(q.quantize(data, spec), spec)
        assert not violates_bound(data, recon, bound)

    @given(
        data=st.one_of(_finite_arrays(np.float32), _finite_arrays(np.float64)),
        rel=st.floats(1e-5, 0.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_rel_bound_resolves_to_range(self, data, rel):
        """Relative mode resolves to bound * value_range and then holds."""
        q = LinearQuantizer(rel, "rel")
        spec = q.resolve(data)
        rng = value_range(data)
        if rng > 0:
            assert spec.abs_bound == pytest.approx(rel * rng)
        recon = q.dequantize(q.quantize(data, spec), spec)
        assert not violates_bound(data, recon, spec.abs_bound)

    @given(bound=st.floats(1e-6, 1e2))
    @settings(max_examples=20, deadline=None)
    def test_grid_values_reconstruct_exactly(self, bound):
        """Values already on the 2*eb grid survive the round trip exactly."""
        q = LinearQuantizer(bound, "abs")
        codes = np.arange(-8, 9, dtype=np.int64)
        data = codes.astype(np.float64) * (2.0 * bound)
        spec = q.resolve(data)
        assert np.array_equal(q.quantize(data, spec), codes)
        assert np.array_equal(q.dequantize(codes, spec), data)


class TestHuffmanProperties:
    @given(
        nsymbols=st.integers(2, 600),
        n=st.integers(0, 4000),
        seed=st.integers(0, 2**31 - 1),
        skew=st.floats(0.0, 6.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_exact(self, nsymbols, n, seed, skew):
        """Any bounded symbol stream decodes to exactly what was encoded."""
        rng = np.random.default_rng(seed)
        # Zipf-ish skew: realistic Huffman inputs are heavily non-uniform.
        weights = 1.0 / (np.arange(1, nsymbols + 1) ** skew if skew else np.ones(nsymbols))
        weights /= weights.sum()
        symbols = rng.choice(nsymbols, size=n, p=weights).astype(np.int64)
        blob = huffman_encode(symbols, nsymbols)
        decoded, consumed = huffman_decode(blob)
        assert consumed <= len(blob)
        assert decoded.size == symbols.size
        assert np.array_equal(decoded, symbols)

    @given(symbol=st.integers(0, 1000), n=st.integers(1, 5000))
    @settings(max_examples=25, deadline=None)
    def test_degenerate_single_symbol_stream(self, symbol, n):
        """A one-symbol alphabet (zero-entropy stream) round-trips."""
        symbols = np.full(n, symbol, dtype=np.int64)
        decoded, _ = huffman_decode(huffman_encode(symbols, symbol + 1))
        assert np.array_equal(decoded, symbols)


class TestSZRoundtripProperties:
    @given(
        data=st.one_of(
            _finite_arrays(np.float32, max_side=24, magnitude=1e3),
            _finite_arrays(np.float64, max_side=24, magnitude=1e3),
        ),
        bound=st.floats(1e-5, 1.0),
        lossless=st.sampled_from(["zlib", "none"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_full_pipeline_bound_and_dtype(self, data, bound, lossless):
        """The whole SZ container honors the bound (up to storage-dtype
        representability) and restores shape/dtype for random inputs."""
        codec = SZCompressor(bound=bound, mode="abs", lossless=lossless)
        recon = codec.decompress(codec.compress(data))
        assert recon.shape == data.shape
        assert recon.dtype == data.dtype
        assert not violates_bound(data, recon, bound)

    @pytest.mark.slow
    @given(
        shape=st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 12)),
        seed=st.integers(0, 2**31 - 1),
        bound_exp=st.floats(-6.0, 0.0),
        mode=st.sampled_from(["abs", "rel"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_3d_pipeline_sweep(self, shape, seed, bound_exp, mode):
        """Heavier 3-D sweep across bound magnitudes and both bound modes."""
        rng = np.random.default_rng(seed)
        data = rng.normal(0.0, 1.0, shape).astype(np.float32)
        bound = 10.0**bound_exp
        codec = SZCompressor(bound=bound, mode=mode)
        recon = codec.decompress(codec.compress(data))
        abs_bound = bound if mode == "abs" else max(
            bound * value_range(data), bound * max(1.0, float(np.max(np.abs(data))))
        )
        assert not violates_bound(data, recon, abs_bound)
