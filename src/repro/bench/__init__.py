"""Benchmark support: quality-scaling model and report harness."""

from .harness import Table, output_dir, traced_peak_bytes, write_report
from .quality_model import (
    LPIPS_DECADE_FACTOR,
    PSNR_REL_SLOPE,
    SSIM_REL_SLOPE,
    TABLE3_QUALITY,
    QualityModel,
    QualityPoint,
)

__all__ = [
    "LPIPS_DECADE_FACTOR",
    "PSNR_REL_SLOPE",
    "QualityModel",
    "QualityPoint",
    "SSIM_REL_SLOPE",
    "TABLE3_QUALITY",
    "Table",
    "output_dir",
    "traced_peak_bytes",
    "write_report",
]
