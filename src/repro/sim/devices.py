"""Device models for the paper's evaluation platforms (Table 1 + Section 5.8).

We do not have the paper's GPUs; the throughput and memory figures are
regenerated by an analytic performance model whose inputs are exactly the
hardware numbers Table 1 reports (memory sizes, memory bandwidths, PCIe
bandwidth) plus public FLOPs figures. The paper itself explains its results
through two ratios — GPU:CPU memory bandwidth (``R_bw``) and active:total
Gaussians — so a bandwidth-level model preserves every trend the evaluation
discusses.
"""

from __future__ import annotations

from dataclasses import dataclass

GB = 1000**3
GiB = 1024**3
TB = 1000**4


@dataclass(frozen=True)
class GPUSpec:
    """A GPU's capacity, bandwidth, and compute rate.

    Attributes:
        name: marketing name.
        memory_bytes: VRAM capacity.
        mem_bw: memory bandwidth, bytes/s.
        flops: peak fp32 throughput, FLOP/s.
    """

    name: str
    memory_bytes: int
    mem_bw: float
    flops: float


#: Fraction of sequential bandwidth achieved by the deferred update's scattered row accesses.
RANDOM_ACCESS_EFFICIENCY = 0.38
#: Additional multiplier on random-access bandwidth when ``numa_nodes > 1`` (remote-node misses).
NUMA_RANDOM_PENALTY = 0.55


@dataclass(frozen=True)
class CPUSpec:
    """A host CPU + DRAM subsystem.

    Attributes:
        name: marketing name.
        mem_bw: sequential DRAM bandwidth, bytes/s (Table 1).
        flops: peak fp32 throughput, FLOP/s.
        framework_bw: effective bandwidth sustained by *unfused* framework
            (PyTorch) CPU tensor chains — launch overheads and temporaries
            keep weak mobile CPUs far below DRAM bandwidth while many-core
            desktops/servers approach it. Drives the baseline's CPU culling
            and dense-update costs (Challenges 1-2).
        numa_nodes: sockets; >1 penalizes random access (Section 5.7).
    """

    name: str
    mem_bw: float
    flops: float
    framework_bw: float = 0.0
    numa_nodes: int = 1

    def __post_init__(self):
        if self.framework_bw == 0.0:
            object.__setattr__(self, "framework_bw", 0.5 * self.mem_bw)

    @property
    def random_bw(self) -> float:
        """Effective bandwidth for scattered row-granularity access."""
        bw = self.mem_bw * RANDOM_ACCESS_EFFICIENCY
        if self.numa_nodes > 1:
            bw *= NUMA_RANDOM_PENALTY
        return bw


@dataclass(frozen=True)
class Platform:
    """A complete evaluation platform (Table 1 row).

    Attributes:
        key: registry key.
        kind: "laptop", "desktop", or "server".
        gpu: GPU spec.
        cpu: CPU spec.
        pcie_bw: host<->device interconnect bandwidth, bytes/s.
        host_memory_bytes: DRAM capacity (bounds offloaded state).
        disk_bw: sustained NVMe bandwidth, bytes/s — the tier below host
            DRAM that the out-of-core system pages shard state through.
            Table 1 does not report disks, so every platform defaults to
            a mainstream PCIe 3/4 NVMe figure.
    """

    key: str
    kind: str
    gpu: GPUSpec
    cpu: CPUSpec
    pcie_bw: float
    host_memory_bytes: int
    disk_bw: float = 3.5 * GB

    @property
    def r_bw(self) -> float:
        """GPU:CPU memory bandwidth ratio (Table 1's R_bw column)."""
        return self.gpu.mem_bw / self.cpu.mem_bw


_I7_13620H = CPUSpec(
    name="Intel Core i7-13620H",
    mem_bw=83.2 * GB,
    flops=0.3e12,
    framework_bw=35 * GB,  # 10-core mobile part: launch-bound torch chains
)
_I9_13900K = CPUSpec(
    name="Intel Core i9-13900K",
    mem_bw=89.6 * GB,
    flops=1.1e12,
    framework_bw=85 * GB,  # 24 cores keep unfused chains near DRAM bound
)
_XEON_6530_X2 = CPUSpec(
    name="2x Intel Xeon Gold 6530",
    mem_bw=614.4 * GB,
    flops=4.0e12,
    framework_bw=250 * GB,
    numa_nodes=2,
)

PLATFORMS = {
    "laptop_4070m": Platform(
        key="laptop_4070m",
        kind="laptop",
        gpu=GPUSpec("RTX 4070 Mobile", 8 * GiB, 256 * GB, 15.6e12),
        cpu=_I7_13620H,
        pcie_bw=16 * GB,
        host_memory_bytes=32 * GiB,
    ),
    "desktop_4080s": Platform(
        key="desktop_4080s",
        kind="desktop",
        gpu=GPUSpec("RTX 4080 Super", 16 * GiB, 736 * GB, 52.2e12),
        cpu=_I9_13900K,
        pcie_bw=32 * GB,
        host_memory_bytes=64 * GiB,
    ),
    "server_h100": Platform(
        key="server_h100",
        kind="server",
        gpu=GPUSpec("H100 PCIe 80GB", 80 * GiB, 2040 * GB, 51.2e12),
        cpu=_XEON_6530_X2,
        pcie_bw=64 * GB,
        host_memory_bytes=1 * TB,
    ),
    # Section 5.8 GPU-sensitivity desktops (same i9 host)
    "desktop_4070s": Platform(
        key="desktop_4070s",
        kind="desktop",
        gpu=GPUSpec("RTX 4070 Super", 12 * GiB, 504.2 * GB, 35.5e12),
        cpu=_I9_13900K,
        pcie_bw=32 * GB,
        host_memory_bytes=64 * GiB,
    ),
    "desktop_4090": Platform(
        key="desktop_4090",
        kind="desktop",
        gpu=GPUSpec("RTX 4090", 24 * GiB, 1010 * GB, 82.6e12),
        cpu=_I9_13900K,
        pcie_bw=32 * GB,
        host_memory_bytes=64 * GiB,
    ),
}


def get_platform(key: str) -> Platform:
    """Look up a platform by registry key."""
    if key not in PLATFORMS:
        raise KeyError(f"unknown platform {key!r}; available: {sorted(PLATFORMS)}")
    return PLATFORMS[key]
