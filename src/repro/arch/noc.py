"""The SM <-> L2-bank crossbar NoC with flit-level toggle accounting.

Data movement energy on chip interconnect is proportional to the
toggling rate — the fraction of wires switching between consecutive
flits on the same physical channel (Section 3.2). The crossbar has one
request channel per L2 bank (all SMs' request flits serialise at the
bank's input port) and one response channel per SM; every packet's
payload is presented under all coder variants — one ``(variants,
bytes)`` array per packet — so the toggle counters capture each
coder's effect in a single replay pass.

Request/write headers travel on a separate narrow control (address)
network, as in real GPU interconnects, so only *data* flits — read
responses and write payloads — contribute to the counted toggles; the
control network's traffic is value-independent and identical across
variants, so it cancels out of every relative comparison.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from .stats import NoCStats

__all__ = ["Crossbar"]


class Crossbar:
    """Packet interface over :class:`~repro.arch.stats.NoCStats`."""

    def __init__(self, n_sms: int, n_banks: int, flit_bytes: int,
                 fault_model=None):
        if n_sms < 1 or n_banks < 1:
            raise ValueError("crossbar dimensions must be positive")
        self.n_sms = n_sms
        self.n_banks = n_banks
        self.stats = NoCStats(flit_bytes)
        self.packets = 0
        self.control_flits = 0
        #: optional :class:`repro.faults.FaultModel`; data flits pick up
        #: transient upsets on the wires (the same physical flip mask is
        #: applied to every variant's payload).
        self.fault_model = fault_model

    def bank_of(self, line_addr: int, line_bytes: int) -> int:
        """Address-interleaved L2 bank selection."""
        return (line_addr // line_bytes) % self.n_banks

    def send_request(self, sm: int, bank: int, line_addr: int) -> None:
        """Address-only request, SM -> bank, on the control network."""
        self.packets += 1
        self.control_flits += 1

    def send_response(self, sm: int, bank: int,
                      payload: np.ndarray) -> None:
        """Data response, bank -> SM; ``payload`` is the packet's
        ``(variants, bytes)`` array."""
        self.packets += 1
        if self.fault_model is not None:
            payload = self.fault_model.corrupt_payloads(payload)
        self.stats.send(("resp", sm), payload)

    def send_write(self, sm: int, bank: int, line_addr: int,
                   payload: np.ndarray) -> None:
        """Store packet: control-network header + data flits, SM -> bank."""
        self.packets += 1
        self.control_flits += 1
        if self.fault_model is not None:
            payload = self.fault_model.corrupt_payloads(payload)
        self.stats.send(("req", bank), payload)

    @property
    def toggles(self) -> Dict[str, int]:
        return dict(self.stats.toggles)

    def toggle_rate(self, variant: str) -> float:
        return self.stats.toggle_rate(variant)
