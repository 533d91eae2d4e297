"""Fixed-latency, bandwidth-limited main-memory model.

Following the paper's methodology (Section II-C): "we modeled the memory
system as having fixed latency and bandwidth rather than employing a
cycle-level DRAM simulator".  Table I gives 8 channels, 600 GB/s aggregate
bandwidth and 100 cycles access latency at a 1 GHz NPU clock — i.e.
600 bytes/cycle aggregate, 75 bytes/cycle per channel.

The model is a simple multi-channel queueing server: each request occupies
its channel for ``size / channel_bandwidth`` cycles and completes a fixed
``latency`` after service starts.  Only DMA data transactions occupy the
channels.  A page-table walk never does: it takes ``levels accessed x
walk_latency_per_level`` cycles in the walker pool (``core/ptw.py``), and
its level reads are charged only to energy (``walk_level_accesses`` in
``energy/accounting.py``).  Walk traffic therefore steals no bandwidth
from data in this model; PRMB's merging (Section IV-A) pays off as fewer
walks and shorter walker stalls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class MemoryConfig:
    """Main-memory parameters (Table I defaults)."""

    channels: int = 8
    bandwidth_bytes_per_cycle: float = 600.0
    access_latency_cycles: int = 100

    def __post_init__(self) -> None:
        if self.channels <= 0:
            raise ValueError(f"channels must be positive, got {self.channels}")
        if self.bandwidth_bytes_per_cycle <= 0:
            raise ValueError("bandwidth must be positive")
        if self.access_latency_cycles < 0:
            raise ValueError("latency cannot be negative")

    @property
    def channel_bandwidth(self) -> float:
        """Bytes per cycle per channel."""
        return self.bandwidth_bytes_per_cycle / self.channels


class MainMemory:
    """Stateful multi-channel memory server.

    Time is the caller's cycle counter; the server tracks, per channel, the
    cycle at which the channel next becomes free.  Requests are issued with
    :meth:`access` which returns the completion cycle.
    """

    def __init__(self, config: MemoryConfig | None = None) -> None:
        self.config = config or MemoryConfig()
        self._channel_free = [0.0] * self.config.channels
        self._rr_next = 0
        self.total_bytes = 0
        self.total_accesses = 0

    def reset(self) -> None:
        """Clear all queueing state and counters.

        ``_channel_free`` is cleared in place: the translation engine's
        fused paths bind the list itself, so its identity must survive
        resets.
        """
        self._channel_free[:] = [0.0] * self.config.channels
        self._rr_next = 0
        self.total_bytes = 0
        self.total_accesses = 0

    def _pick_channel(self, address: int | None) -> int:
        if address is None:
            # Round-robin for requests with no meaningful address.
            channel = self._rr_next
            self._rr_next = (self._rr_next + 1) % self.config.channels
            return channel
        # Interleave at 256 B granularity across channels, a common HBM
        # policy; the exact hash is immaterial to the paper's results.
        return (address >> 8) % self.config.channels

    def access(self, cycle: float, size_bytes: int, address: int | None = None) -> float:
        """Issue a ``size_bytes`` access at ``cycle``; return completion cycle.

        Service is FIFO per channel; completion = service start + transfer
        time + fixed access latency.
        """
        if size_bytes <= 0:
            raise ValueError(f"access size must be positive, got {size_bytes}")
        channel = self._pick_channel(address)
        start = max(cycle, self._channel_free[channel])
        transfer = size_bytes / self.config.channel_bandwidth
        self._channel_free[channel] = start + transfer
        self.total_bytes += size_bytes
        self.total_accesses += 1
        return start + transfer + self.config.access_latency_cycles

    def earliest_free(self) -> float:
        """Cycle at which at least one channel is idle."""
        return min(self._channel_free)

    def drain_cycle(self) -> float:
        """Cycle at which every channel is idle (ignores in-flight latency)."""
        return max(self._channel_free)


def bandwidth_bound_cycles(total_bytes: int, config: MemoryConfig | None = None) -> float:
    """Lower bound on cycles to move ``total_bytes`` at full aggregate bandwidth.

    The oracular MMU's memory phase is this bound plus one access latency
    (Section III-C normalization baseline).
    """
    cfg = config or MemoryConfig()
    if total_bytes < 0:
        raise ValueError("total_bytes cannot be negative")
    return total_bytes / cfg.bandwidth_bytes_per_cycle
