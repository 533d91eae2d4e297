"""Tests for the fixed-latency bandwidth-limited memory model."""

import pytest

from repro.memory.dram import MainMemory, MemoryConfig, bandwidth_bound_cycles


class TestConfig:
    def test_table1_defaults(self):
        cfg = MemoryConfig()
        assert cfg.channels == 8
        assert cfg.bandwidth_bytes_per_cycle == 600.0
        assert cfg.access_latency_cycles == 100
        assert cfg.channel_bandwidth == 75.0

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryConfig(channels=0)
        with pytest.raises(ValueError):
            MemoryConfig(bandwidth_bytes_per_cycle=0)
        with pytest.raises(ValueError):
            MemoryConfig(access_latency_cycles=-1)


class TestAccess:
    def test_single_access_latency(self):
        mem = MainMemory(MemoryConfig(channels=1, bandwidth_bytes_per_cycle=100))
        done = mem.access(cycle=0, size_bytes=100, address=0)
        # 1 cycle transfer + 100 latency.
        assert done == pytest.approx(101.0)

    def test_same_channel_serializes(self):
        mem = MainMemory(MemoryConfig(channels=1, bandwidth_bytes_per_cycle=100))
        first = mem.access(0, 100, address=0)
        second = mem.access(0, 100, address=0)
        assert second == pytest.approx(first + 1.0)

    def test_different_channels_overlap(self):
        cfg = MemoryConfig(channels=2, bandwidth_bytes_per_cycle=200)
        mem = MainMemory(cfg)
        # Addresses 0 and 256 interleave to different channels (256 B granule).
        a = mem.access(0, 100, address=0)
        b = mem.access(0, 100, address=256)
        assert a == b  # fully parallel

    def test_round_robin_without_address(self):
        cfg = MemoryConfig(channels=2, bandwidth_bytes_per_cycle=200)
        mem = MainMemory(cfg)
        a = mem.access(0, 100)
        b = mem.access(0, 100)
        assert a == b  # round-robin lands on distinct channels

    def test_idle_channel_starts_at_request_cycle(self):
        mem = MainMemory()
        done = mem.access(cycle=500, size_bytes=75, address=0)
        assert done == pytest.approx(500 + 1 + 100)

    def test_counters(self):
        mem = MainMemory()
        mem.access(0, 64, 0)
        mem.access(0, 64, 0)
        assert mem.total_accesses == 2
        assert mem.total_bytes == 128

    def test_reset(self):
        mem = MainMemory()
        mem.access(0, 64, 0)
        mem.reset()
        assert mem.total_accesses == 0
        assert mem.earliest_free() == 0.0

    def test_rejects_empty_access(self):
        mem = MainMemory()
        with pytest.raises(ValueError):
            mem.access(0, 0)


class TestBandwidthBound:
    def test_zero_bytes(self):
        assert bandwidth_bound_cycles(0) == 0.0

    def test_scales_linearly(self):
        assert bandwidth_bound_cycles(600) == pytest.approx(1.0)
        assert bandwidth_bound_cycles(6000) == pytest.approx(10.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bandwidth_bound_cycles(-1)

    def test_saturated_stream_approaches_bound(self):
        cfg = MemoryConfig(channels=8, bandwidth_bytes_per_cycle=600)
        mem = MainMemory(cfg)
        total = 0
        # Issue far more traffic than one cycle can carry; drain time must
        # approach the aggregate bandwidth bound.
        for i in range(4096):
            mem.access(0, 256, address=i * 256)
            total += 256
        drain = mem.drain_cycle()
        bound = bandwidth_bound_cycles(total, cfg)
        assert drain == pytest.approx(bound, rel=0.01)
