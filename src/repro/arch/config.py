"""GPU architecture configurations (Tables 3 and 4).

The baseline mirrors the paper's GPGPU-Sim setup: a GTX-480-like chip
with 15 SMs, 128 KB registers and 48 KB shared memory per SM, 16 KB
4-way L1D with 128 B lines, a 6-bank 768 KB unified L2, 32 B NoC flits,
six memory channels and a GTO warp scheduler.

Table 4's capacity study scales the per-SM and L2 SRAM sizes to the
Tesla-P100 and Tesla-K80 footprints (SM count is held at the baseline's
15 so the same traces replay across configurations; the study measures
energy reduction on the BVF units only, which is capacity- not
count-sensitive).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

__all__ = ["GPUConfig", "BASELINE_CONFIG", "CAPACITY_CONFIGS", "SCHEDULERS"]

SCHEDULERS = ("gto", "lrr", "two_level")


@dataclass(frozen=True)
class GPUConfig:
    """One simulated GPU configuration."""

    # A label only: no simulation reads it, so it stays out of
    # equality and hashing (the per-config result-cache key).
    name: str = field(default="gtx480-baseline", compare=False)
    # System overview (Table 3)
    n_sms: int = 15
    lanes: int = 32
    freq_mhz: int = 700
    # Per-SM resources
    warps_per_sm: int = 48
    reg_kb_per_sm: int = 128
    sme_kb_per_sm: int = 48
    mshrs_per_sm: int = 32
    max_blocks_per_sm: int = 8
    # L1 caches (per SM)
    l1i_kb: int = 2
    l1d_kb: int = 16
    l1c_kb: int = 8
    l1t_kb: int = 12
    l1_line_bytes: int = 128
    l1d_assoc: int = 4
    l1i_assoc: int = 4
    l1c_assoc: int = 4
    l1t_assoc: int = 4
    # Unified L2
    l2_kb: int = 768
    l2_banks: int = 6
    l2_line_bytes: int = 128
    l2_assoc: int = 16
    # Interconnect / DRAM
    noc_flit_bytes: int = 32
    n_mem_channels: int = 6
    # Scheduling
    scheduler: str = "gto"
    two_level_active_warps: int = 8
    # Latencies (cycles), coarse GPGPU-Sim-like figures
    lat_alu: int = 2
    lat_sfu: int = 8
    lat_sme: int = 24
    lat_l1_hit: int = 28
    lat_l2_hit: int = 120
    lat_dram: int = 320

    def __post_init__(self):
        if self.scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; known: {SCHEDULERS}"
            )
        if self.l2_kb % self.l2_banks:
            raise ValueError("L2 capacity must divide evenly across banks")

    @property
    def l2_kb_per_bank(self) -> int:
        return self.l2_kb // self.l2_banks

    @property
    def lanes_bits(self) -> int:
        return self.lanes * 32

    def with_scheduler(self, scheduler: str) -> "GPUConfig":
        return replace(self, scheduler=scheduler,
                       name=f"{self.name}+{scheduler}")

    def describe(self) -> str:
        """Human-readable Table-3-style summary."""
        return (
            f"{self.n_sms} SMs, {self.lanes} threads/warp, "
            f"{self.freq_mhz}MHz | {self.warps_per_sm} warps/SM, "
            f"{self.reg_kb_per_sm}KB REG, {self.sme_kb_per_sm}KB SME, "
            f"{self.mshrs_per_sm} MSHRs | L1D {self.l1d_kb}KB "
            f"{self.l1d_assoc}-way {self.l1_line_bytes}B lines | "
            f"L2 {self.l2_kb}KB x{self.l2_banks} banks "
            f"{self.l2_assoc}-way | NoC {self.noc_flit_bytes}B flits | "
            f"{self.n_mem_channels} DRAM channels | {self.scheduler}"
        )


BASELINE_CONFIG = GPUConfig()

# Table 4: SRAM capacities of three GPU generations. The paper's row
# labels pair GTX-480/Fermi, Tesla-P100/Pascal and Tesla-K80/Kepler.
CAPACITY_CONFIGS: Dict[str, GPUConfig] = {
    "GTX-480": BASELINE_CONFIG,
    "Tesla-P100": replace(
        BASELINE_CONFIG, name="tesla-p100-capacity",
        reg_kb_per_sm=256, l1i_kb=16, l1d_kb=16, l2_kb=1536,
        l1t_kb=48, l1c_kb=8, sme_kb_per_sm=112,
    ),
    "Tesla-K80": replace(
        BASELINE_CONFIG, name="tesla-k80-capacity",
        reg_kb_per_sm=512, l1i_kb=16, l1d_kb=48, l2_kb=4096 - (4096 % 6),
        l1t_kb=48, l1c_kb=10, sme_kb_per_sm=64, l2_banks=6,
    ),
}
