"""Unit tests for the kernel roofline model."""

import dataclasses
import math

import pytest

from repro.gpu import Kernel, KernelGroup


def test_kernel_validation():
    with pytest.raises(ValueError):
        Kernel(flops=-1, bytes_moved=0, max_sms=1)
    with pytest.raises(ValueError):
        Kernel(flops=0, bytes_moved=0, max_sms=1)
    with pytest.raises(ValueError):
        Kernel(flops=1, bytes_moved=0, max_sms=0)
    with pytest.raises(ValueError):
        Kernel(flops=1, bytes_moved=0, max_sms=1, efficiency=0.0)
    with pytest.raises(ValueError):
        Kernel(flops=1, bytes_moved=0, max_sms=1, efficiency=1.5)


@pytest.mark.parametrize("fields", [
    {"flops": math.nan}, {"flops": math.inf},
    {"bytes_moved": math.nan}, {"bytes_moved": math.inf},
    {"max_sms": math.nan}, {"max_sms": math.inf},
], ids=["nan-flops", "inf-flops", "nan-bytes", "inf-bytes", "nan-sms",
        "inf-sms"])
def test_kernel_rejects_non_finite_values(fields):
    # NaN flops would read as memory-bound and inf flops would sit
    # resident at rate 0 forever; a NaN test must fail, not pass.
    with pytest.raises(ValueError, match="finite"):
        Kernel(**{"flops": 1e9, "bytes_moved": 1e6, "max_sms": 8, **fields})


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(Kernel)])
def test_kernel_is_frozen(field):
    """Kernels are immutable values (the allocator caches by ``kid``)."""
    k = Kernel(flops=1.0, bytes_moved=1.0, max_sms=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(k, field, getattr(k, field))


def test_arithmetic_intensity():
    k = Kernel(flops=100.0, bytes_moved=50.0, max_sms=10)
    assert k.arithmetic_intensity == pytest.approx(2.0)
    pure = Kernel(flops=100.0, bytes_moved=0.0, max_sms=10)
    assert pure.arithmetic_intensity == float("inf")


def test_duration_compute_bound():
    k = Kernel(flops=1e12, bytes_moved=1.0, max_sms=100, efficiency=1.0)
    # 10 SMs at 1e10 flops/s/SM each -> 10 s.
    assert k.duration(sms=10, flops_per_sm=1e10, bandwidth=1e12) == pytest.approx(10.0)


def test_duration_memory_bound():
    k = Kernel(flops=1.0, bytes_moved=1e9, max_sms=100, efficiency=1.0)
    assert k.duration(sms=100, flops_per_sm=1e12, bandwidth=1e9) == pytest.approx(1.0)


def test_duration_plateaus_at_max_sms():
    """More SMs than the grid can use must not shorten the kernel (Fig 2)."""
    k = Kernel(flops=1e12, bytes_moved=0.0, max_sms=20, efficiency=1.0)
    t20 = k.duration(sms=20, flops_per_sm=1e10, bandwidth=1e12)
    t108 = k.duration(sms=108, flops_per_sm=1e10, bandwidth=1e12)
    assert t20 == pytest.approx(t108)
    t10 = k.duration(sms=10, flops_per_sm=1e10, bandwidth=1e12)
    assert t10 == pytest.approx(2 * t20)


def test_duration_efficiency_scales_compute():
    k_full = Kernel(flops=1e12, bytes_moved=0.0, max_sms=10, efficiency=1.0)
    k_half = Kernel(flops=1e12, bytes_moved=0.0, max_sms=10, efficiency=0.5)
    t_full = k_full.duration(10, 1e10, 1e12)
    t_half = k_half.duration(10, 1e10, 1e12)
    assert t_half == pytest.approx(2 * t_full)


def test_scaled():
    k = Kernel(flops=10.0, bytes_moved=4.0, max_sms=8)
    s = k.scaled(3.0)
    assert s.flops == pytest.approx(30.0)
    assert s.bytes_moved == pytest.approx(12.0)
    assert s.max_sms == 8
    with pytest.raises(ValueError):
        k.scaled(0)


def test_group_totals():
    g = KernelGroup([
        Kernel(flops=10.0, bytes_moved=1.0, max_sms=4),
        Kernel(flops=20.0, bytes_moved=2.0, max_sms=8),
    ])
    assert g.total_flops == pytest.approx(30.0)
    assert g.total_bytes == pytest.approx(3.0)
    assert len(g) == 2


def test_group_requires_kernels():
    with pytest.raises(ValueError):
        KernelGroup([])


def test_fused_preserves_work():
    g = KernelGroup([
        Kernel(flops=10.0, bytes_moved=1.0, max_sms=4, efficiency=1.0),
        Kernel(flops=30.0, bytes_moved=3.0, max_sms=8, efficiency=0.5),
    ])
    f = g.fused()
    assert f.flops == pytest.approx(40.0)
    assert f.bytes_moved == pytest.approx(4.0)
    # FLOP-weighted: max_sms = (10*4 + 30*8)/40 = 7; eff = (10*1+30*.5)/40.
    assert f.max_sms == 7
    assert f.efficiency == pytest.approx(0.625)


def test_concat():
    g1 = KernelGroup([Kernel(flops=1.0, bytes_moved=0.0, max_sms=1)])
    g2 = KernelGroup([Kernel(flops=2.0, bytes_moved=0.0, max_sms=1)])
    cat = KernelGroup.concat([g1, g2])
    assert cat.total_flops == pytest.approx(3.0)
    assert len(cat) == 2
