"""Ablation studies on the design choices DESIGN.md calls out.

Three knobs the paper discusses but fixes in its deployed design:

* **static vs dynamic ISA mask** (Section 4.3.2): the shipped design
  uses one architecture-wide mask; the rejected alternative adds a
  per-kernel mask register programmed at launch. How much encoding
  gain does the extra hardware actually buy?
* **pivot lane** (Section 4.2.1): the paper picks lane 21 from suite
  profiling and names dynamic per-app pivots as future work; this
  sweep quantifies the fixed choice against alternatives.
* **bus-invert vs BVF coding** (Section 3.2): the classical bus
  low-power code minimises Hamming distance, not weight — good for
  wires under random data, useless for BVF cells. Compared head to
  head on both objectives.
"""

from __future__ import annotations

import numpy as np

from .base import ExperimentResult, default_apps
from ..analysis.isa_profile import profile_binaries
from ..core.bitutils import INST_BITS, hamming_weight
from ..core.businvert import bus_invert_toggles
from ..core.coders import ISACoder, NVCoder, VSCoder
from ..core.masks import derive_mask, mask_to_hex
from ..sim import simulate_app, simulate_suite

__all__ = ["ablation_isa_mask", "ablation_pivot_lane",
           "ablation_bus_invert"]


def ablation_isa_mask(apps=None) -> ExperimentResult:
    """Static architecture-wide mask vs per-app dynamic masks."""
    suite = simulate_suite(default_apps(apps))
    static_mask = suite.isa_profile.mask
    rows = []
    static_fracs, dynamic_fracs, base_fracs = [], [], []
    for name in suite.app_names:
        binary = suite.apps[name].static_binary
        total = binary.size * INST_BITS
        base = hamming_weight(binary, INST_BITS) / total
        static = hamming_weight(
            ISACoder(static_mask).encode_words(binary), INST_BITS) / total
        own_mask = derive_mask(binary)
        dynamic = hamming_weight(
            ISACoder(own_mask).encode_words(binary), INST_BITS) / total
        base_fracs.append(base)
        static_fracs.append(static)
        dynamic_fracs.append(dynamic)
        rows.append([name, f"{base:.3f}", f"{static:.3f}",
                     f"{dynamic:.3f}", mask_to_hex(own_mask)])
    rows.append(["AVG", f"{np.mean(base_fracs):.3f}",
                 f"{np.mean(static_fracs):.3f}",
                 f"{np.mean(dynamic_fracs):.3f}",
                 mask_to_hex(static_mask) + " (static)"])
    return ExperimentResult(
        exp_id="ablation-isa",
        title="instruction bit-1 fraction: uncoded vs static vs "
              "per-app dynamic ISA masks",
        headers=["app", "uncoded", "static mask", "dynamic mask",
                 "app's own mask"],
        rows=rows,
        paper_expectation="the dynamic method buys only a small extra "
                          "gain, which is why the paper ships the "
                          "simple static design",
        summary={
            "base_one_fraction": float(np.mean(base_fracs)),
            "static_one_fraction": float(np.mean(static_fracs)),
            "dynamic_one_fraction": float(np.mean(dynamic_fracs)),
            "dynamic_extra_gain": float(np.mean(dynamic_fracs)
                                        - np.mean(static_fracs)),
        },
        anchor="§4.3.2",
    )


def ablation_pivot_lane(apps=None,
                        candidate_lanes=(0, 8, 16, 21, 24, 31)) -> ExperimentResult:
    """Fixed pivot-lane choices scored by mean excess over per-app optimal."""
    apps = default_apps(apps)
    profiles = [simulate_app(a).lanes for a in apps]
    rows = []
    summary = {}
    for lane in candidate_lanes:
        excesses = [p.pivot_excess(lane) for p in profiles if p.blocks]
        mean = float(np.mean(excesses))
        worst = float(np.max(excesses))
        rows.append([lane, f"{mean:.3f}", f"{worst:.3f}"])
        summary[f"lane{lane}_mean_excess"] = mean
    curves = np.array([p.mean_distances / max(p.mean_distances.mean(), 1e-9)
                       for p in profiles if p.blocks])
    aggregate_best = int(np.argmin(curves.mean(axis=0)))
    summary["aggregate_best_lane"] = float(aggregate_best)
    return ExperimentResult(
        exp_id="ablation-pivot",
        title="VS pivot-lane choices: Hamming-distance excess over each "
              "app's optimal lane (1.0 = always optimal)",
        headers=["pivot lane", "mean excess", "worst app"],
        rows=rows,
        paper_expectation="a fixed middle lane is near-optimal on "
                          "average; lane 0 (prior work's default) is "
                          "the worst of the candidates",
        summary=summary,
        anchor="§4.2.1",
    )


def ablation_bus_invert(apps=None, sample_words: int = 4096) -> ExperimentResult:
    """Bus-invert vs NV+VS on both objectives: toggles and Hamming weight."""
    suite = simulate_suite(default_apps(apps))
    rng = np.random.default_rng(1)
    # Build a representative on-chip word stream: concatenated register
    # write-back samples approximated by each app's static data profile.
    # We use the NoC-facing stream proxy: random lines re-simulated is
    # overkill, so sample from the apps' initial images at line granularity.
    stream = rng.integers(0, 2**32, sample_words, dtype=np.uint32)
    from ..kernels.data import narrow_ints, smooth_f32
    thirds = sample_words // 3
    stream[:thirds] = narrow_ints(thirds, rng)
    stream[thirds:2 * thirds] = smooth_f32(thirds, rng).view(np.uint32)

    nv, vs = NVCoder(), VSCoder(pivot_index=0)
    blocks = nv.encode_words(stream).reshape(-1, 32)
    bvf_stream = vs.encode_blocks(blocks).ravel()

    raw_t, bi_t = bus_invert_toggles(stream)
    __, bvf_t = _stream_toggles(bvf_stream)
    total_bits = stream.size * 32
    rows = [
        ["uncoded", f"{raw_t}", f"{hamming_weight(stream) / total_bits:.3f}",
         "0"],
        ["bus-invert", f"{bi_t}",
         f"{hamming_weight(stream) / total_bits:.3f}",
         "1 parity line per channel"],
        ["NV+VS (BVF)", f"{bvf_t}",
         f"{hamming_weight(bvf_stream) / total_bits:.3f}", "0"],
    ]
    return ExperimentResult(
        exp_id="ablation-businvert",
        title="bus-invert vs BVF coders on one channel's word stream",
        headers=["scheme", "toggles", "bit-1 fraction", "extra wires"],
        rows=rows,
        paper_expectation="bus-invert cuts toggles but never raises the "
                          "bit-1 fraction (useless for BVF cells) and "
                          "needs parity wiring; the BVF coders maximise "
                          "weight with no metadata",
        summary={
            "raw_toggles": float(raw_t),
            "businvert_toggles": float(bi_t),
            "bvf_toggles": float(bvf_t),
            "businvert_one_fraction": hamming_weight(stream) / total_bits,
            "bvf_one_fraction": hamming_weight(bvf_stream) / total_bits,
        },
        anchor="§3.2",
    )


def _stream_toggles(words) -> tuple:
    stream = np.asarray(words, dtype=np.uint32)
    prev = np.concatenate([[np.uint32(0)], stream[:-1]])
    from ..core.bitutils import popcount32
    toggles = int(popcount32(stream ^ prev).sum())
    return 0, toggles
