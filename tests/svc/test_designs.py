"""Design presets: the section-3 progression as configurations."""

import pytest

from repro.common.config import SVCConfig, UpdatePolicy
from repro.svc.designs import DESIGNS, design_config


def test_all_designs_resolvable():
    for name in ("base", "ec", "ecs", "hr", "rl", "final"):
        assert name in DESIGNS
        config = design_config(name)
        assert config.n_caches == 4


def test_unknown_design_rejected():
    with pytest.raises(KeyError):
        design_config("mesif")


def test_base_through_hr_use_one_word_lines():
    for name in ("base", "ec", "ecs", "hr"):
        config = design_config(name, SVCConfig.paper_32kb())
        assert config.geometry.line_size == 4
        assert config.geometry.address_map.blocks_per_line == 1
        # Capacity and associativity are preserved.
        assert config.geometry.size_bytes == 8 * 1024
        assert config.geometry.associativity == 4


def test_rl_and_final_keep_realistic_lines():
    for name in ("rl", "final"):
        config = design_config(name, SVCConfig.paper_32kb())
        assert config.geometry.line_size == 16


def test_feature_monotonicity():
    """Each design level only adds capability."""
    base = design_config("base").features
    ec = design_config("ec").features
    ecs = design_config("ecs").features
    hr = design_config("hr").features
    final = design_config("final").features
    assert not base.lazy_commit and ec.lazy_commit
    assert not ec.architectural_bit and ecs.architectural_bit
    assert not ecs.snarfing and hr.snarfing
    assert final.update_policy == UpdatePolicy.HYBRID


def test_final_policy_override():
    config = design_config("final")
    invalidate = design_config("final")
    from repro.svc.designs import final_design

    config = final_design(update_policy=UpdatePolicy.INVALIDATE)
    assert config.features.update_policy == UpdatePolicy.INVALIDATE
