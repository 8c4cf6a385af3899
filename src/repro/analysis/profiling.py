"""Workload data profiling: the paper's Figures 8, 9, 11 and 12 metrics.

The profiler hooks into phase-1 functional execution and accumulates,
per application:

* **narrow-value profile** (Fig 8): mean leading-zero count of global
  load/store values, with negative values bit-inverted first — the
  paper's `clz`-based P100 measurement (average ~9 of 32 bits);
* **bit ratio** (Fig 9): total 0s vs 1s in global data values (~22:10);
* **lane Hamming profile** (Fig 11): for each warp lane, its mean
  Hamming distance to the other 31 lanes over register write-backs —
  the evidence that a middle lane (the paper: lane 21) is a better
  value-similarity pivot than lane 0;
* **pivot comparison** (Fig 12): lane-21's mean distance relative to
  the per-application optimal lane.

Register blocks are sampled (default 1-in-4) because the lane-distance
matrix costs a 32x32 popcount per block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core.bitutils import popcount32, signed_leading_zeros32

__all__ = ["Profiler", "NarrowValueProfile", "LaneHammingProfile"]

LANES = 32

#: Sampled blocks whose 32x32 distance matrices are computed at once.
_DISTANCE_CHUNK = 64


@dataclass
class NarrowValueProfile:
    """Aggregated Figure-8/9 statistics for one application."""

    values: int = 0
    leading_zero_bits: int = 0
    one_bits: int = 0

    @property
    def mean_leading_zeros(self) -> float:
        return self.leading_zero_bits / self.values if self.values else 0.0

    @property
    def zero_fraction(self) -> float:
        total = self.values * 32
        return (total - self.one_bits) / total if total else 0.0

    @property
    def mean_zero_bits_per_word(self) -> float:
        """The Fig-9 y-axis: average count of 0 bits in a 32-bit word."""
        return 32.0 * self.zero_fraction


@dataclass
class LaneHammingProfile:
    """Aggregated Figure-11/12 statistics for one application."""

    blocks: int = 0
    # Sum over sampled blocks of each lane's mean distance to the others.
    distance_sums: np.ndarray = field(
        default_factory=lambda: np.zeros(LANES, dtype=np.float64)
    )

    @property
    def mean_distances(self) -> np.ndarray:
        """Per-lane mean Hamming distance to the other 31 lanes (bits)."""
        if not self.blocks:
            return np.zeros(LANES)
        return self.distance_sums / self.blocks

    @property
    def optimal_lane(self) -> int:
        if not self.blocks:
            return 0
        return int(np.argmin(self.mean_distances))

    def normalized(self) -> np.ndarray:
        """Distances normalised to lane 0, the paper's Fig-11 y-axis."""
        d = self.mean_distances
        return d / d[0] if d[0] else d

    def pivot_excess(self, pivot: int = 21) -> float:
        """Fig 12: pivot lane's distance relative to the optimal lane's."""
        d = self.mean_distances
        best = d[self.optimal_lane]
        return float(d[pivot] / best) if best else 1.0


class Profiler:
    """Phase-1 hook collecting narrow-value and lane-similarity stats."""

    def __init__(self, reg_sample_every: int = 4):
        if reg_sample_every < 1:
            raise ValueError("sampling period must be >= 1")
        self.narrow = NarrowValueProfile()
        self.lanes = LaneHammingProfile()
        self._sample_every = reg_sample_every
        self._reg_counter = 0

    # -- hooks called by the warp context --------------------------------

    def on_global_data(self, values: np.ndarray,
                       active: Optional[np.ndarray]) -> None:
        vals = values if active is None else values[active]
        if vals.size == 0:
            return
        self.narrow.values += int(vals.size)
        self.narrow.leading_zero_bits += int(
            signed_leading_zeros32(vals).sum()
        )
        self.narrow.one_bits += int(popcount32(vals).sum())

    def on_reg_block(self, values: np.ndarray,
                     active: Optional[np.ndarray] = None) -> None:
        """Record register write-backs: one ``(32,)`` block, or
        ``(rows, 32)`` blocks in issue order.

        Every ``reg_sample_every``-th write-back is sampled. ``active``
        is not consulted: inactive lanes hold 0 and are measured as
        such, since divergent blocks are where lane 0's disadvantage
        shows up, exactly as the hardware profiling in the paper would
        see them.
        """
        rows = np.asarray(values, dtype=np.uint32).reshape(-1, LANES)
        first = -(self._reg_counter + 1) % self._sample_every
        self._reg_counter += rows.shape[0]
        sampled = rows[first::self._sample_every]
        # Distance matrices in bounded chunks; sums added in issue
        # order, so the float totals do not depend on the chunking.
        for start in range(0, sampled.shape[0], _DISTANCE_CHUNK):
            chunk = sampled[start:start + _DISTANCE_CHUNK]
            dist = popcount32(chunk[:, :, None] ^ chunk[:, None, :])
            for lane_sums in dist.sum(axis=2) / (LANES - 1):
                self.lanes.distance_sums += lane_sums
        self.lanes.blocks += sampled.shape[0]
