"""Kernel-launch recording and the simulated GPU device object.

Execution model
---------------
The trainer's "kernels" run functionally on host NumPy arrays (bit-for-bit
the arithmetic a CUDA kernel would perform), and every launch is recorded in
a :class:`CostLedger` with a :class:`Work` descriptor.  The cost model
(:mod:`repro.gpusim.costmodel`) later converts the ledger into modeled
seconds for a given :class:`~repro.gpusim.device.DeviceSpec`.

Scale extrapolation
-------------------
Datasets are *generated* at a reduced cardinality so the functional run is
fast, but declared with their full-scale cardinality (see
:mod:`repro.data.datasets`).  ``GpuDevice.work_scale`` multiplies
element-linear quantities (elements, bytes) and ``GpuDevice.seg_scale``
multiplies segment-count-linear quantities (grid sizes driven by
``#nodes x #attributes``).  Kernel-launch *counts* depend only on tree depth
and the number of trees, so they are never scaled.  DESIGN.md Section 2
discusses why this extrapolation preserves the paper's performance shape.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Iterator, List

from .device import DeviceSpec, DiskSpec, NVME_SSD, TITAN_X_PASCAL
from .memory import GlobalMemory

__all__ = ["Work", "KernelLaunch", "Transfer", "CostLedger", "GpuDevice"]


@dataclasses.dataclass(frozen=True)
class Work:
    """Resource demand of one (logical) kernel launch.

    Quantities are totals over the whole grid, *after* scale extrapolation.

    Attributes
    ----------
    elements:
        Number of work items processed.
    flops_per_element:
        Arithmetic per item (floating or integer ops).
    coalesced_bytes:
        DRAM traffic with fully-coalesced access (streams, scans).
    irregular_bytes:
        DRAM traffic through data-dependent gathers/scatters -- the paper's
        "irregular memory accesses" (challenge 1, Section III-A).
    """

    elements: float
    flops_per_element: float = 1.0
    coalesced_bytes: float = 0.0
    irregular_bytes: float = 0.0

    def __post_init__(self) -> None:
        if self.elements < 0 or self.coalesced_bytes < 0 or self.irregular_bytes < 0:
            raise ValueError("work quantities must be non-negative")

    @property
    def total_flops(self) -> float:
        return self.elements * self.flops_per_element

    @property
    def total_bytes(self) -> float:
        return self.coalesced_bytes + self.irregular_bytes


@dataclasses.dataclass(frozen=True)
class KernelLaunch:
    """One recorded kernel launch (possibly standing for ``launches`` real ones)."""

    name: str
    work: Work
    blocks: int
    threads_per_block: int
    launches: int
    phase: str

    def __post_init__(self) -> None:
        if self.blocks <= 0 or self.threads_per_block <= 0 or self.launches <= 0:
            raise ValueError("launch geometry must be positive")


@dataclasses.dataclass(frozen=True)
class Transfer:
    """One recorded data movement.

    ``channel`` selects the link the bytes move over: ``"pcie"`` is the
    classic host<->device copy (directions ``h2d`` / ``d2h``); ``"disk"``
    is secondary-storage IO recorded by the out-of-core block store
    (directions ``read`` / ``write``), costed against a
    :class:`~repro.gpusim.device.DiskSpec` instead of the PCIe link.
    """

    name: str
    nbytes: float
    direction: str  # pcie: "h2d" | "d2h"; disk: "read" | "write"
    phase: str
    channel: str = "pcie"

    _DIRECTIONS = {"pcie": ("h2d", "d2h"), "disk": ("read", "write")}

    def __post_init__(self) -> None:
        if self.channel not in self._DIRECTIONS:
            raise ValueError(f"bad transfer channel {self.channel!r}")
        if self.direction not in self._DIRECTIONS[self.channel]:
            raise ValueError(
                f"bad {self.channel} transfer direction {self.direction!r}"
            )
        if self.nbytes < 0:
            raise ValueError("transfer size must be non-negative")


class CostLedger:
    """Append-only record of kernel launches and PCIe transfers."""

    def __init__(self) -> None:
        self.kernels: List[KernelLaunch] = []
        self.transfers: List[Transfer] = []

    def clear(self) -> None:
        """Drop every recorded launch and transfer."""
        self.kernels.clear()
        self.transfers.clear()

    @property
    def n_launches(self) -> int:
        """Total number of physical kernel launches recorded."""
        return sum(k.launches for k in self.kernels)

    @property
    def total_elements(self) -> float:
        return sum(k.work.elements for k in self.kernels)

    @property
    def total_bytes(self) -> float:
        return sum(k.work.total_bytes for k in self.kernels)

    @property
    def transfer_bytes(self) -> float:
        return sum(t.nbytes for t in self.transfers)

    @property
    def disk_bytes(self) -> float:
        """Total bytes moved over the disk channel."""
        return sum(t.nbytes for t in self.transfers if t.channel == "disk")

    def phases(self) -> List[str]:
        """Distinct phase labels in first-appearance order."""
        seen: dict[str, None] = {}
        for k in self.kernels:
            seen.setdefault(k.phase)
        for t in self.transfers:
            seen.setdefault(t.phase)
        return list(seen)


class GpuDevice:
    """A simulated CUDA device: spec + global memory + cost ledger.

    Parameters
    ----------
    spec:
        Hardware description (defaults to the paper's Titan X Pascal).
    work_scale:
        Multiplier applied to element-linear work (see module docstring).
    seg_scale:
        Multiplier applied to segment-count-driven grid sizes.
    """

    def __init__(
        self,
        spec: DeviceSpec = TITAN_X_PASCAL,
        *,
        work_scale: float = 1.0,
        seg_scale: float = 1.0,
        disk: DiskSpec = NVME_SSD,
    ) -> None:
        if work_scale <= 0 or seg_scale <= 0:
            raise ValueError("scales must be positive")
        self.spec = spec
        self.disk = disk
        self.memory = GlobalMemory(spec.global_mem_bytes)
        self.ledger = CostLedger()
        self.work_scale = float(work_scale)
        self.seg_scale = float(seg_scale)
        self._phase_stack: List[str] = []

    # ----------------------------------------------------------------- phase
    @property
    def current_phase(self) -> str:
        return self._phase_stack[-1] if self._phase_stack else "unphased"

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Tag all launches inside the block with ``name`` (for Fig.-style
        phase breakdowns such as "95% of time in finding the best split")."""
        self._phase_stack.append(name)
        try:
            yield
        finally:
            self._phase_stack.pop()

    # ---------------------------------------------------------------- launch
    def launch(
        self,
        name: str,
        elements: float,
        *,
        flops_per_element: float = 1.0,
        coalesced_bytes: float = 0.0,
        irregular_bytes: float = 0.0,
        threads_per_block: int = 256,
        blocks: int | None = None,
        blocks_scale: bool = False,
        launches: int = 1,
        scale: bool = True,
    ) -> KernelLaunch:
        """Record one logical kernel launch.

        ``blocks=None`` derives the grid from the (scaled) element count.
        An explicit ``blocks`` is taken as-is unless ``blocks_scale`` is set,
        in which case it is multiplied by ``seg_scale`` (grids proportional
        to ``#segments``, e.g. one-block-per-segment with SetKey disabled).
        """
        s = self.work_scale if scale else 1.0
        eff_elements = elements * s
        work = Work(
            elements=eff_elements,
            flops_per_element=flops_per_element,
            coalesced_bytes=coalesced_bytes * s,
            irregular_bytes=irregular_bytes * s,
        )
        if blocks is None:
            grid = max(1, int(-(-eff_elements // threads_per_block)))
        else:
            grid = max(1, int(blocks * (self.seg_scale if blocks_scale else 1.0)))
        launch = KernelLaunch(
            name=name,
            work=work,
            blocks=grid,
            threads_per_block=threads_per_block,
            launches=launches,
            phase=self.current_phase,
        )
        self.ledger.kernels.append(launch)
        return launch

    def transfer(
        self, name: str, nbytes: float, direction: str = "h2d", *, scale: bool = True
    ) -> Transfer:
        """Record a PCIe transfer (scaled like element-linear work)."""
        t = Transfer(
            name=name,
            nbytes=nbytes * (self.work_scale if scale else 1.0),
            direction=direction,
            phase=self.current_phase,
        )
        self.ledger.transfers.append(t)
        return t

    def disk_transfer(
        self,
        name: str,
        nbytes: float,
        direction: str = "read",
        *,
        scale: bool = True,
        phase: str | None = None,
    ) -> Transfer:
        """Record disk IO (block spill/fetch), costed against :attr:`disk`.

        ``phase`` overrides the phase-stack label: the block store books all
        its IO under ``stream_io``, whatever phase the trainer is in.
        """
        t = Transfer(
            name=name,
            nbytes=nbytes * (self.work_scale if scale else 1.0),
            direction=direction,
            phase=phase if phase is not None else self.current_phase,
            channel="disk",
        )
        self.ledger.transfers.append(t)
        return t

    # ---------------------------------------------------------------- timing
    def elapsed_seconds(self) -> float:
        """Modeled wall time of everything recorded so far."""
        from .costmodel import total_time

        return total_time(self.spec, self.ledger, self.disk)

    def reset(self) -> None:
        """Clear ledger and free all device memory (new experiment)."""
        self.ledger.clear()
        self.memory.free_all()
        self._phase_stack.clear()
