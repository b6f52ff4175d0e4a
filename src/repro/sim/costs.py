"""Per-stage cost model of one 3DGS training iteration.

Every stage time is derived from first-order work estimates (bytes moved /
bandwidth, FLOPs / compute rate) with a small set of named calibration
constants. The constants are fit to the paper's coarse anchors — baseline
host offloading ~4x slower than GPU-only on the laptop (Section 4.1),
GS-Scale ~1.22x / ~0.84x of GPU-only on laptop / desktop (Section 5.3) —
and then *every* figure is regenerated from the same constants; nothing is
per-figure tuned.

Key modeling choices, each traceable to the paper:

* Rasterization forward/backward is **memory-bandwidth-bound** per
  splat-pixel intersection (Section 5.4: "lower GPU memory bandwidth slows
  down the memory bound backward pass ... providing enough time for CPU
  updates to be pipelined").
* Optimizer updates are **bandwidth-bound** at 7 words per element
  (Section 4.3.2). The fused GPU/deferred-CPU kernels move exactly that;
  the framework (PyTorch) CPU path multiplies traffic by an unfused-pass
  factor — the paper implemented deferred updates as a custom C++/OpenMP
  extension precisely because the stock CPU path is this slow.
* The deferred update's scattered row access runs at the CPU's random-access
  bandwidth, further derated on multi-socket hosts (Section 5.7's NUMA
  observation).
"""

from __future__ import annotations

from ..gaussians import layout
from .devices import Platform
from .memory import TRANSFER_CHUNK_BYTES

# ---------------------------------------------------------------------------
# calibration constants
# ---------------------------------------------------------------------------

#: Average pixels covered per projected splat (3-sigma footprint after tile
#: binning) — sets blending work per active Gaussian.
MEAN_SPLAT_COVERAGE = 150.0

#: Bytes of GPU traffic per splat-pixel intersection, forward pass
#: (fetch splat record, read-modify-write pixel state).
FWD_BYTES_PER_INTERSECTION = 64.0

#: Bytes per intersection in the backward pass (re-fetch, atomic gradient
#: accumulation; DISTWAR-class works exist because this dominates).
BWD_BYTES_PER_INTERSECTION = 160.0

#: Per-splat projection/SH work, forward + backward (bytes-equivalent).
SPLAT_SETUP_BYTES = 600.0

#: GPU frustum culling reads the geometric block once and writes masks.
CULL_BYTES_PER_GAUSSIAN_GPU = 48.0

#: CPU frustum culling through framework tensor ops materializes dozens of
#: (N, k) temporaries (camera transform, Jacobian, 2D covariance, radii,
#: masks); the traffic is served at the CPU's *framework* bandwidth.
CULL_BYTES_PER_GAUSSIAN_CPU = 700.0

#: Framework (unfused) CPU optimizer passes re-read/re-write tensors per op;
#: traffic multiplier vs the fused 7-words-per-element ideal, served at the
#: framework bandwidth.
CPU_UNFUSED_UPDATE_FACTOR = 1.2

#: Parameter forwarding's peek reads param/m/v and writes a send buffer
#: (5 words per element vs 7 for a full update).
PEEK_WORDS_PER_ELEMENT = 5

#: Fixed per-iteration orchestration overhead (kernel launches, Python
#: driver, synchronization), seconds.
ITERATION_OVERHEAD_S = 1.5e-3

#: Per-transfer-chunk launch latency, seconds.
CHUNK_LATENCY_S = 30e-6

#: Per-paging-operation latency (file-system + queueing), seconds.
DISK_IO_LATENCY_S = 100e-6

_WORD = 4  # float32 bytes


class CostModel:
    """Stage-time calculator for one platform."""

    def __init__(self, platform: Platform):
        self.platform = platform

    # -- culling ---------------------------------------------------------
    def gpu_cull(self, n_total: int) -> float:
        """Frustum culling on the GPU (selective offloading keeps the
        geometric block resident, Section 4.2.1)."""
        bytes_ = n_total * CULL_BYTES_PER_GAUSSIAN_GPU
        flops = n_total * 250.0
        return max(bytes_ / self.platform.gpu.mem_bw, flops / self.platform.gpu.flops)

    def cpu_cull(self, n_total: int) -> float:
        """Frustum culling on the host CPU (baseline; Challenge 1)."""
        return (
            n_total * CULL_BYTES_PER_GAUSSIAN_CPU / self.platform.cpu.framework_bw
        )

    # -- rendering -------------------------------------------------------
    def forward_backward(self, n_active: int, num_pixels: int) -> float:
        """GPU forward + backward over the visible subset."""
        intersections = min(
            n_active * MEAN_SPLAT_COVERAGE, num_pixels * 512.0
        )
        bytes_ = intersections * (
            FWD_BYTES_PER_INTERSECTION + BWD_BYTES_PER_INTERSECTION
        )
        bytes_ += n_active * SPLAT_SETUP_BYTES
        bytes_ += num_pixels * 48.0  # image-space read/write
        return bytes_ / self.platform.gpu.mem_bw

    # -- optimizer updates -------------------------------------------------
    def gpu_dense_update(self, n_rows: int, dim: int = layout.PARAM_DIM) -> float:
        """Fused Adam on the GPU (GPU-only system; also the geometric
        M.S.Q. update under selective offloading with dim=10)."""
        bytes_ = 7 * n_rows * dim * _WORD
        return bytes_ / self.platform.gpu.mem_bw

    def cpu_dense_update(self, n_rows: int, dim: int = layout.PARAM_DIM) -> float:
        """Framework (unfused) dense Adam on the CPU — the Challenge-2
        bottleneck of the baseline and the w/o-deferred variant."""
        bytes_ = 7 * n_rows * dim * _WORD * CPU_UNFUSED_UPDATE_FACTOR
        return bytes_ / self.platform.cpu.framework_bw

    def cpu_deferred_update(
        self, n_updated: int, n_total: int, dim: int = layout.NON_GEOMETRIC_DIM
    ) -> float:
        """Fused deferred update (custom kernel): 7 words per updated
        element at random-access bandwidth + 2 counter bytes per Gaussian."""
        float_bytes = 7 * n_updated * dim * _WORD
        counter_bytes = 2 * n_total
        return (
            float_bytes / self.platform.cpu.random_bw
            + counter_bytes / self.platform.cpu.mem_bw
        )

    def cpu_forward_peek(self, n_rows: int, dim: int = layout.NON_GEOMETRIC_DIM) -> float:
        """Parameter forwarding's pre-update of next-iteration rows
        (Section 4.2.2): gather rows, compute, write the send buffer."""
        bytes_ = PEEK_WORDS_PER_ELEMENT * n_rows * dim * _WORD
        return bytes_ / self.platform.cpu.random_bw

    # -- transfers ---------------------------------------------------------
    def transfer(self, num_bytes: float) -> float:
        """PCIe transfer time including per-chunk launch latency."""
        if num_bytes <= 0:
            return 0.0
        chunks = max(int(-(-num_bytes // TRANSFER_CHUNK_BYTES)), 1)
        return num_bytes / self.platform.pcie_bw + chunks * CHUNK_LATENCY_S

    def h2d_params(self, n_rows: int, dim: int) -> float:
        """Host-to-device parameter staging."""
        return self.transfer(n_rows * dim * _WORD)

    def d2h_grads(self, n_rows: int, dim: int) -> float:
        """Device-to-host gradient return."""
        return self.transfer(n_rows * dim * _WORD)

    def disk_page(self, num_bytes: float) -> float:
        """Host<->disk paging time (out-of-core spill/prefetch)."""
        if num_bytes <= 0:
            return 0.0
        return num_bytes / self.platform.disk_bw + DISK_IO_LATENCY_S
