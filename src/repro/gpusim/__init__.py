"""Simulated GPU substrate: device specs, memory, kernels, cost model.

See DESIGN.md Section 2 for why a simulator is the right substrate here:
the paper's kernels execute functionally (exact arithmetic) while their
resource demands are charged to an analytic Titan-X-class cost model.
"""

from .device import (
    A100_80GB,
    GIB,
    NVME_SSD,
    TESLA_K20,
    TESLA_P100,
    TITAN_X_PASCAL,
    XEON_E5_2640V4_X2,
    CpuSpec,
    DeviceSpec,
    DiskSpec,
)
from .kernel import CostLedger, GpuDevice, KernelLaunch, Transfer, Work
from .memory import Allocation, DeviceOutOfMemory, GlobalMemory
from .scheduler import Occupancy, occupancy
from .timeline import PhaseSlice, format_profile, profile
from .trace import chrome_trace_events

__all__ = [
    "A100_80GB",
    "GIB",
    "NVME_SSD",
    "TESLA_K20",
    "TESLA_P100",
    "TITAN_X_PASCAL",
    "XEON_E5_2640V4_X2",
    "CpuSpec",
    "DeviceSpec",
    "DiskSpec",
    "CostLedger",
    "GpuDevice",
    "KernelLaunch",
    "Transfer",
    "Work",
    "Allocation",
    "DeviceOutOfMemory",
    "GlobalMemory",
    "Occupancy",
    "occupancy",
    "PhaseSlice",
    "format_profile",
    "profile",
    "chrome_trace_events",
]
