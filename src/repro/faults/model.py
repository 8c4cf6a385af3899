"""Deterministic bit-fault injection for the simulated storage hierarchy.

Section 7.1 shows why BVF cannot simply be retrofitted onto 6T arrays:
with the BVF precharge, reading a stored 0 becomes *destructive* once a
bitline is shared by more than 16 cells at 28 nm. The circuit model
(:mod:`repro.circuits.reliability`) predicts that threshold
analytically; this module turns the prediction into actual injected bit
errors so the architecture simulation can measure how the encoding
gains and chip energy behave past the cliff.

A :class:`FaultModel` is seeded and fully deterministic: given the same
seed and the same (deterministic) sequence of array reads, it injects
the same flips. It models the Section-7.1 mechanism, read disturbance:
each stored 0 bit of a read flips to 1 with the configured probability,
and the flip is persistent (the cell content is destroyed, so the
replay writes the corrupted value back into its memory image). Writes
and fills read no array and draw nothing.

On the NoC flit path faults are transient and symmetric (wires do not
store state), and the same physical flip mask is applied to every coder
variant's payload so the per-variant toggle statistics stay comparable.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..circuits.technology import TechnologyNode, TECH_28NM

__all__ = ["FaultModel"]


class FaultModel:
    """Seeded injector of bit faults into array reads and NoC flits."""

    def __init__(self, p_flip: float = 0.0, seed: int = 0):
        if not 0.0 <= p_flip <= 1.0:
            raise ValueError(f"p_flip must be in [0, 1], got {p_flip}")
        self.p_flip = float(p_flip)
        self.seed = int(seed)
        self._rng = np.random.default_rng(seed)
        # Exposure and flip counters, arrays and NoC kept apart so the
        # Section-7.1 read-flip rate is not diluted by channel traffic.
        self.array_bits = 0
        self.array_flips = 0
        self.noc_bits = 0
        self.noc_flips = 0
        self.line_fills: Dict[str, int] = {}

    @classmethod
    def from_reliability(cls, cells_per_bitline: int,
                         tech: TechnologyNode = TECH_28NM,
                         vdd: Optional[float] = None,
                         seed: int = 0) -> "FaultModel":
        """Read-disturb model at the rate §7.1's physics implies."""
        from ..circuits.reliability import flip_probability
        p = flip_probability(cells_per_bitline, tech, vdd)
        return cls(p_flip=p, seed=seed)

    # ------------------------------------------------------------------
    # Injection
    # ------------------------------------------------------------------

    def _chosen(self, n_candidates: int) -> Optional[np.ndarray]:
        """Indices (into the candidate set) of the bits that flip."""
        if n_candidates == 0 or self.p_flip == 0.0:
            return None
        k = int(self._rng.binomial(n_candidates, self.p_flip))
        if k == 0:
            return None
        return self._rng.choice(n_candidates, size=k, replace=False)

    def corrupt_line(self, line: np.ndarray) -> np.ndarray:
        """Read-disturb one array read, a uint8 block of any shape.

        The whole block is one draw: each of its stored 0 bits flips to
        1 independently with probability ``p_flip``. Returns a copy.
        """
        data = np.ascontiguousarray(line, dtype=np.uint8)
        bits = np.unpackbits(data)
        self.array_bits += bits.size
        zeros = np.flatnonzero(bits == 0)
        chosen = self._chosen(zeros.size)
        if chosen is None:
            return data.copy()
        bits[zeros[chosen]] = 1
        self.array_flips += chosen.size
        return np.packbits(bits).reshape(data.shape)

    def corrupt_words(self, words: np.ndarray) -> np.ndarray:
        """Corrupt a typed word array (dtype- and shape-preserving)."""
        arr = np.ascontiguousarray(np.atleast_1d(words))
        return self.corrupt_line(arr.view(np.uint8)).view(arr.dtype)

    def corrupt_payloads(self, payload: np.ndarray) -> np.ndarray:
        """Transient channel faults on a NoC packet.

        ``payload`` is the packet's ``(variants, bytes)`` uint8 array.
        One physical flip mask is drawn for the channel and XORed
        across the variant axis: the variants are alternative encodings
        travelling the same wires, so they must see the same upsets.
        """
        n_bits = payload.shape[-1] * 8
        self.noc_bits += n_bits
        chosen = self._chosen(n_bits)
        if chosen is None:
            return payload
        mask_bits = np.zeros(n_bits, dtype=np.uint8)
        mask_bits[chosen] = 1
        self.noc_flips += chosen.size
        return payload ^ np.packbits(mask_bits)

    def note_fill(self, cache_name: str, line_addr: int) -> None:
        """Record a line fill (a disturb-exposure event) per cache."""
        self.line_fills[cache_name] = self.line_fills.get(cache_name, 0) + 1

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    @property
    def array_flip_rate(self) -> float:
        """Injected flips per array bit read — the §7.1 metric."""
        return self.array_flips / self.array_bits if self.array_bits else 0.0

    @property
    def noc_flip_rate(self) -> float:
        return self.noc_flips / self.noc_bits if self.noc_bits else 0.0

    def report(self) -> Dict[str, float]:
        return {
            "p_flip": self.p_flip,
            "array_bits": float(self.array_bits),
            "array_flips": float(self.array_flips),
            "array_flip_rate": self.array_flip_rate,
            "noc_bits": float(self.noc_bits),
            "noc_flips": float(self.noc_flips),
            "noc_flip_rate": self.noc_flip_rate,
            "line_fills": float(sum(self.line_fills.values())),
        }
