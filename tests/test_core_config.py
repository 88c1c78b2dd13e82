"""Tests for pipeline config, extra-space policy (Eq. 3, Fig. 9)."""

from dataclasses import fields

import numpy as np
import pytest

from repro.core.config import (
    EXTRA_SPACE_MAX,
    EXTRA_SPACE_MIN,
    PipelineConfig,
    extra_space_for_weight,
)
from repro.core.offsets import HIGH_RATIO_THRESHOLD, effective_extra_space
from repro.errors import ConfigError
from repro.hdf5.properties import FileAccessProps
from repro.modeling.sampling import DEFAULT_FRACTION


class TestExtraSpaceDomain:
    def test_paper_interval(self):
        """Section III-D: only Rspace in [1.1, 1.43] is supported."""
        assert EXTRA_SPACE_MIN == 1.1
        assert EXTRA_SPACE_MAX == 1.43

    def test_default_is_paper_default(self):
        assert PipelineConfig().extra_space_ratio == 1.25

    @pytest.mark.parametrize("bad", [1.0, 1.05, 1.5, 2.0, 0.9])
    def test_out_of_interval_rejected(self, bad):
        with pytest.raises(ConfigError):
            PipelineConfig(extra_space_ratio=bad)

    @pytest.mark.parametrize("ok", [1.1, 1.25, 1.43])
    def test_interval_accepted(self, ok):
        assert PipelineConfig(extra_space_ratio=ok).extra_space_ratio == ok


class TestWeightMapping:
    def test_endpoints(self):
        assert extra_space_for_weight(0.0) == pytest.approx(EXTRA_SPACE_MIN)
        assert extra_space_for_weight(1.0) == pytest.approx(EXTRA_SPACE_MAX)

    def test_monotone(self):
        vals = [extra_space_for_weight(w / 10) for w in range(11)]
        assert vals == sorted(vals)

    def test_midpoint_near_default(self):
        assert extra_space_for_weight(0.5) == pytest.approx(1.25, abs=0.03)

    def test_domain_validated(self):
        with pytest.raises(ConfigError):
            extra_space_for_weight(-0.1)
        with pytest.raises(ConfigError):
            extra_space_for_weight(1.1)

    def test_from_weight_constructor(self):
        cfg = PipelineConfig.from_weight(0.5)
        assert EXTRA_SPACE_MIN <= cfg.extra_space_ratio <= EXTRA_SPACE_MAX


class TestEq3:
    def test_no_boost_below_threshold(self):
        assert effective_extra_space(1.25, 10.0) == 1.25
        assert effective_extra_space(1.25, HIGH_RATIO_THRESHOLD) == 1.25

    def test_boost_above_threshold(self):
        """Eq. (3): rspace -> min(2, 1 + (Rspace-1)*4) for ratio > 32."""
        assert effective_extra_space(1.25, 100.0) == pytest.approx(2.0)
        assert effective_extra_space(1.1, 100.0) == pytest.approx(1.4)
        assert effective_extra_space(1.2, 50.0) == pytest.approx(1.8)

    def test_boost_capped_at_two(self):
        assert effective_extra_space(1.43, 1000.0) == 2.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            effective_extra_space(0.9, 10.0)
        with pytest.raises(ConfigError):
            effective_extra_space(np.array([1.25, 0.9]), np.array([10.0, 10.0]))

    def test_boost_applies_per_slot(self):
        """Per-slot ratios broadcast: each slot is boosted from its own r,
        and only where its own predicted ratio exceeds 32."""
        rspace = np.array([[1.1, 1.25], [1.2, 1.43]])
        ratios = np.array([[100.0, 100.0], [10.0, 50.0]])
        got = effective_extra_space(rspace, ratios)
        assert got.shape == (2, 2)
        np.testing.assert_allclose(got, [[1.4, 2.0], [1.2, 2.0]])
        for ix in np.ndindex(got.shape):  # the scalar rule, one slot at a time
            r = float(rspace[ix])
            assert got[ix] == (min(2.0, 1.0 + (r - 1.0) * 4.0) if ratios[ix] > 32.0 else r)


class TestConfigValidation:
    """The extra-space ratio is the one setting; every retired field is a
    ``TypeError``, and the constants it became stay readable."""

    def test_one_setting(self):
        assert [f.name for f in fields(PipelineConfig)] == ["extra_space_ratio"]

    def test_sample_fraction(self):
        with pytest.raises(TypeError):
            PipelineConfig(sample_fraction=0.1)
        assert PipelineConfig.sample_fraction == DEFAULT_FRACTION

    def test_alignment(self):
        with pytest.raises(TypeError):
            PipelineConfig(slot_alignment=16)
        with pytest.raises(TypeError):
            FileAccessProps(alignment=16)

    def test_async_workers(self):
        with pytest.raises(TypeError):
            PipelineConfig(async_workers=2)
        # One write-pool width: the facade's file and a bare engine file agree.
        assert PipelineConfig.async_workers == FileAccessProps().async_workers == 4
        with pytest.raises(ConfigError):
            FileAccessProps(async_workers=0)

    def test_lossless_estimator(self):
        with pytest.raises(TypeError):
            PipelineConfig(lossless_estimator="zlib-sample")
        assert PipelineConfig.lossless_estimator == "rle"

    def test_verify(self):
        with pytest.raises(TypeError):
            PipelineConfig(verify=True)
