"""Configuration dataclasses: validation and the paper's presets."""

import pytest

from repro.common.config import (
    ARBConfig,
    CacheGeometry,
    ProcessorConfig,
    SVCConfig,
    SVCFeatures,
    UpdatePolicy,
)
from repro.common.errors import ConfigError


class TestCacheGeometry:
    def test_paper_8kb(self):
        geometry = CacheGeometry(size_bytes=8 * 1024, associativity=4, line_size=16)
        assert geometry.n_sets == 128

    def test_direct_mapped_32kb(self):
        geometry = CacheGeometry(size_bytes=32 * 1024, associativity=1, line_size=16)
        assert geometry.n_sets == 2048

    def test_rejects_fractional_sets(self):
        with pytest.raises(ConfigError):
            CacheGeometry(size_bytes=1000, associativity=3, line_size=16)

    def test_set_index_wraps(self):
        geometry = CacheGeometry(size_bytes=256, associativity=2, line_size=16)
        assert geometry.n_sets == 8
        assert geometry.set_index(0x0) == geometry.set_index(8 * 16)


class TestSVCFeatures:
    def test_design_progression_flags(self):
        assert not SVCFeatures.base().lazy_commit
        assert SVCFeatures.ec().lazy_commit
        assert SVCFeatures.ec().stale_bit
        assert not SVCFeatures.ec().architectural_bit
        assert SVCFeatures.ecs().architectural_bit
        assert SVCFeatures.hr().snarfing

    def test_final_default_policy_is_hybrid(self):
        assert SVCFeatures.final().update_policy == UpdatePolicy.HYBRID

    def test_a_bit_requires_c_bit(self):
        with pytest.raises(ConfigError):
            SVCFeatures(architectural_bit=True)

    def test_stale_bit_requires_lazy_commit(self):
        with pytest.raises(ConfigError):
            SVCFeatures(stale_bit=True)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            SVCFeatures(update_policy="write-through")


class TestSVCConfig:
    def test_paper_presets(self):
        small = SVCConfig.paper_32kb()
        large = SVCConfig.paper_64kb()
        assert small.n_caches == 4
        assert small.geometry.size_bytes == 8 * 1024
        assert large.geometry.size_bytes == 16 * 1024
        assert small.bus.transaction_cycles == 3
        assert small.hit_cycles == 1
        assert small.miss_penalty_cycles == 10

    def test_needs_two_caches(self):
        with pytest.raises(ConfigError):
            SVCConfig(n_caches=1)


class TestARBConfig:
    def test_paper_preset(self):
        config = ARBConfig.paper_32kb(hit_cycles=3)
        assert config.n_rows == 256
        assert config.n_stages == 5
        assert config.hit_cycles == 3
        assert config.cache_geometry.associativity == 1

    def test_64kb_preset(self):
        config = ARBConfig.paper_64kb()
        assert config.cache_geometry.size_bytes == 64 * 1024


class TestProcessorConfig:
    def test_paper_defaults(self):
        config = ProcessorConfig()
        assert config.n_pus == 4
        assert config.issue_width == 2

    def test_rejects_zero_pus(self):
        with pytest.raises(ConfigError):
            ProcessorConfig(n_pus=0)
