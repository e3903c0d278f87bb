"""API contracts and validation behaviour across the package."""

import pytest

from repro.cpu.config import CoreConfig
from repro.workloads.generator import (build_workload, k_stream_load,
                                       k_stream_store)


def test_core_config_validates_widths():
    with pytest.raises(ValueError, match="commit width"):
        CoreConfig(decode_width=4, commit_width=2)


def test_core_config_validates_rob_multiple():
    with pytest.raises(ValueError, match="multiple"):
        CoreConfig(rob_entries=130)


def test_stream_kernels_require_power_of_two():
    with pytest.raises(ValueError, match="power of two"):
        k_stream_load("k", 10, 0x1000, 3000)
    with pytest.raises(ValueError, match="power of two"):
        k_stream_store("k", 10, 0x1000, 3000)


def test_build_workload_requires_kernels():
    with pytest.raises(ValueError, match="at least one kernel"):
        build_workload("empty", [])


def test_public_api_imports():
    import repro
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_subpackage_all_exports():
    import repro.analysis
    import repro.core
    import repro.cpu
    import repro.isa
    import repro.mem
    import repro.workloads
    for module in (repro.analysis, repro.core, repro.cpu, repro.isa,
                   repro.mem, repro.workloads):
        for name in module.__all__:
            assert hasattr(module, name), (module.__name__, name)


def test_profiler_policy_registry_complete():
    from repro.harness.experiment import ALL_POLICIES, POLICIES
    assert set(ALL_POLICIES) <= set(POLICIES)
    assert "NCI+ILP" in POLICIES


def test_version_string():
    import repro
    assert repro.__version__.count(".") == 2


def test_reprs_do_not_crash():
    from repro.core.samples import Sample
    from repro.core.sampling import SampleSchedule
    from repro.cpu.core import CoreStats
    from repro.workloads import build
    assert "sample" in repr(Sample(5, 5, [(0x1000, 1.0)]))
    assert "periodic" in repr(SampleSchedule(10))
    assert "stats" in repr(CoreStats())
    assert "workload" in repr(build("lbm", scale=0.02))


def test_memory_config_is_per_core_config():
    a = CoreConfig.boom_4wide()
    b = CoreConfig.boom_4wide()
    a.memory.l1d_mshrs = 1
    assert b.memory.l1d_mshrs == 8  # no shared mutable default
