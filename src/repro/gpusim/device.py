"""Hardware specifications for the simulated devices.

The paper's testbed (Section IV): a workstation with two Xeon E5-2640v4
10-core CPUs (40 hardware threads), 256 GB of RAM, and an NVIDIA Titan X
Pascal with 12 GB of device memory; GPU-GBDT was additionally validated on a
Tesla P100 and a Tesla K20.  The specs below encode the published hardware
parameters of those parts; the cost model (:mod:`repro.gpusim.costmodel`)
converts recorded kernel work into modeled seconds using these numbers.

Prices are the ones the paper itself uses for the performance-price study
(Fig. 10a): $1,200 for the Titan X and $1,878 for the pair of Xeons, "at the
time of writing" (2017).
"""

from __future__ import annotations

import dataclasses

__all__ = [
    "DeviceSpec",
    "CpuSpec",
    "DiskSpec",
    "A100_80GB",
    "NVME_SSD",
    "TITAN_X_PASCAL",
    "TESLA_P100",
    "TESLA_K20",
    "XEON_E5_2640V4_X2",
    "GIB",
]

GIB = 1024**3


@dataclasses.dataclass(frozen=True)
class DeviceSpec:
    """Static description of a simulated CUDA device.

    Attributes mirror the quantities the paper's design reasons about:
    SM count (the Customized SetKey formula divides segments over SMs),
    global-memory capacity (RLE exists to fit datasets into it), memory
    bandwidth with an irregular-access penalty (the paper's first challenge),
    kernel-launch latency (why one-block-per-segment is slow), and PCIe
    bandwidth ("one order of magnitude slower than accessing the GPU global
    memory").
    """

    name: str
    sm_count: int
    cores_per_sm: int
    clock_ghz: float
    global_mem_bytes: int
    mem_bandwidth_gbs: float
    pcie_bandwidth_gbs: float
    kernel_launch_us: float
    price_usd: float
    warp_size: int = 32
    max_threads_per_block: int = 1024
    max_blocks_per_sm: int = 32
    #: fraction of a fully-coalesced cache line that an irregular (gather/
    #: scatter) access actually uses; 128-byte lines serving 8-byte words
    #: give 1/16, but L2 hits soften that in practice.
    irregular_efficiency: float = 0.085
    #: sustained fraction of peak DRAM bandwidth for streaming kernels
    stream_efficiency: float = 0.55

    def __post_init__(self) -> None:
        if self.sm_count <= 0 or self.cores_per_sm <= 0:
            raise ValueError("SM geometry must be positive")
        if self.global_mem_bytes <= 0:
            raise ValueError("global memory must be positive")
        if not (0 < self.irregular_efficiency <= 1):
            raise ValueError("irregular_efficiency must be in (0, 1]")

    @property
    def total_cores(self) -> int:
        """Total CUDA cores on the device."""
        return self.sm_count * self.cores_per_sm

    @property
    def peak_gflops(self) -> float:
        """Single-precision peak throughput in GFLOP/s (1 FMA = 2 flops)."""
        return self.total_cores * self.clock_ghz * 2.0

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.name}: {self.sm_count} SMs x {self.cores_per_sm} cores @ "
            f"{self.clock_ghz:.3f} GHz, {self.global_mem_bytes / GIB:.0f} GiB @ "
            f"{self.mem_bandwidth_gbs:.0f} GB/s, PCIe {self.pcie_bandwidth_gbs:.0f} GB/s, "
            f"${self.price_usd:.0f}"
        )


@dataclasses.dataclass(frozen=True)
class CpuSpec:
    """Static description of the (simulated) CPU host.

    ``per_thread_bandwidth_gbs`` models the well-known fact that a single
    core cannot saturate the socket's DRAM controllers -- it is what makes a
    40-thread run roughly 6-10x faster than 1 thread on memory-bound scans,
    matching the xgbst-1 / xgbst-40 gap in Table II.
    """

    name: str
    cores: int
    threads: int  # hardware threads (with SMT)
    clock_ghz: float
    flops_per_cycle: float  # per core, scalar+SIMD sustained
    mem_bandwidth_gbs: float  # aggregate, all sockets
    per_thread_bandwidth_gbs: float
    price_usd: float
    #: overhead of entering/leaving an OpenMP-style parallel region
    parallel_region_us: float = 4.0
    #: SMT yield: extra throughput from threads beyond physical cores
    smt_yield: float = 0.25
    #: efficiency loss from load imbalance / NUMA when using many threads
    scaling_efficiency: float = 0.78
    #: Amdahl serial fraction of each parallel region (bookkeeping, reduction
    #: tails) -- what keeps 40-thread XGBoost at ~6-10x over 1 thread
    serial_fraction: float = 0.015
    #: effective fraction of bandwidth for data-dependent gathers (caches
    #: make CPU gathers far cheaper than GPU uncoalesced accesses)
    random_access_efficiency: float = 0.5

    def __post_init__(self) -> None:
        if self.cores <= 0 or self.threads <= 0:
            raise ValueError("core counts must be positive")
        if self.threads < self.cores:
            raise ValueError("threads must be >= physical cores")

    def effective_cores(self, threads: int) -> float:
        """Effective parallel compute capacity for a given thread count."""
        if threads <= 0:
            raise ValueError("threads must be positive")
        threads = min(threads, self.threads)
        if threads <= self.cores:
            base = float(threads)
        else:
            base = self.cores + (threads - self.cores) * self.smt_yield
        if threads == 1:
            return 1.0
        return base * self.scaling_efficiency

    def effective_bandwidth(self, threads: int) -> float:
        """Aggregate memory bandwidth reachable by ``threads`` threads (GB/s)."""
        if threads <= 0:
            raise ValueError("threads must be positive")
        threads = min(threads, self.threads)
        return min(threads * self.per_thread_bandwidth_gbs, self.mem_bandwidth_gbs)

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.name}: {self.cores} cores / {self.threads} threads @ "
            f"{self.clock_ghz:.1f} GHz, {self.mem_bandwidth_gbs:.0f} GB/s, "
            f"${self.price_usd:.0f}"
        )


@dataclasses.dataclass(frozen=True)
class DiskSpec:
    """Static description of the host's secondary storage.

    Out-of-core training (:mod:`repro.stream`) spills compressed column
    blocks to disk and streams them back, so disk IO joins PCIe as a
    first-class transfer class in the cost ledger: a block read of ``B``
    bytes is modeled as ``latency_s + B / (read_bandwidth_gbs * 1e9)``
    (writes use the write bandwidth).  Like PCIe -- "one order of magnitude
    slower than accessing the GPU global memory" -- disk is another order
    down again, which is exactly why the prefetch pipeline that overlaps
    block IO with compute matters (Ou, arXiv:2005.09148).
    """

    name: str
    read_bandwidth_gbs: float
    write_bandwidth_gbs: float
    latency_s: float

    def __post_init__(self) -> None:
        if self.read_bandwidth_gbs <= 0 or self.write_bandwidth_gbs <= 0:
            raise ValueError("disk bandwidth must be positive")
        if self.latency_s < 0:
            raise ValueError("disk latency must be non-negative")

    def read_seconds(self, nbytes: float) -> float:
        """Modeled seconds to read ``nbytes`` in one request."""
        return self.latency_s + nbytes / (self.read_bandwidth_gbs * 1e9)

    def write_seconds(self, nbytes: float) -> float:
        """Modeled seconds to write ``nbytes`` in one request."""
        return self.latency_s + nbytes / (self.write_bandwidth_gbs * 1e9)

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.name}: {self.read_bandwidth_gbs:.1f}/"
            f"{self.write_bandwidth_gbs:.1f} GB/s r/w, "
            f"{self.latency_s * 1e6:.0f} us latency"
        )


#: A PCIe 3.0 x4 NVMe SSD of the paper's era -- the default spill target.
NVME_SSD = DiskSpec(
    name="NVMe SSD (PCIe 3.0 x4)",
    read_bandwidth_gbs=3.0,
    write_bandwidth_gbs=1.8,
    latency_s=90e-6,
)


#: The paper's main GPU: NVIDIA Titan X (Pascal), 28 SMs x 128 cores,
#: 12 GB GDDR5X at 480 GB/s.
TITAN_X_PASCAL = DeviceSpec(
    name="Titan X (Pascal)",
    sm_count=28,
    cores_per_sm=128,
    clock_ghz=1.417,
    global_mem_bytes=12 * GIB,
    mem_bandwidth_gbs=480.0,
    pcie_bandwidth_gbs=12.0,
    kernel_launch_us=5.0,
    price_usd=1200.0,
)

#: Tesla P100 (16 GB HBM2) -- the paper reports nearly sublinear scaling in
#: core count across K20 / Titan X / P100.
TESLA_P100 = DeviceSpec(
    name="Tesla P100",
    sm_count=56,
    cores_per_sm=64,
    clock_ghz=1.328,
    global_mem_bytes=16 * GIB,
    mem_bandwidth_gbs=732.0,
    pcie_bandwidth_gbs=12.0,
    kernel_launch_us=5.0,
    price_usd=5899.0,
)

#: A "what-if" modern datacenter part (A100 80GB, 2020): not in the paper,
#: used by the forward-looking device experiments to ask what GPU-GBDT's
#: margins become on newer silicon.
A100_80GB = DeviceSpec(
    name="A100 80GB",
    sm_count=108,
    cores_per_sm=64,
    clock_ghz=1.41,
    global_mem_bytes=80 * GIB,
    mem_bandwidth_gbs=2039.0,
    pcie_bandwidth_gbs=25.0,
    kernel_launch_us=4.0,
    price_usd=15_000.0,
)

#: Tesla K20 (Kepler, 5 GB GDDR5).
TESLA_K20 = DeviceSpec(
    name="Tesla K20",
    sm_count=13,
    cores_per_sm=192,
    clock_ghz=0.706,
    global_mem_bytes=5 * GIB,
    mem_bandwidth_gbs=208.0,
    pcie_bandwidth_gbs=8.0,
    kernel_launch_us=7.0,
    price_usd=3000.0,
)

#: The paper's CPU host: 2x Xeon E5-2640 v4 (Broadwell, 10 cores each,
#: 2.4 GHz base, ~68.3 GB/s per socket).
XEON_E5_2640V4_X2 = CpuSpec(
    name="2x Xeon E5-2640 v4",
    cores=20,
    threads=40,
    clock_ghz=2.4,
    flops_per_cycle=8.0,
    mem_bandwidth_gbs=136.6,
    per_thread_bandwidth_gbs=11.0,
    price_usd=1878.0,
)
