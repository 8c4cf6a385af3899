"""The SM <-> L2-bank crossbar NoC with flit-level toggle accounting.

Data movement energy on chip interconnect is proportional to the
toggling rate — the fraction of wires switching between consecutive
flits on the same physical channel (Section 3.2). The crossbar has one
request channel per L2 bank (all SMs' request flits serialise at the
bank's input port) and one response channel per SM; every packet's
payload is presented under all coder variants — one ``(variants,
bytes)`` array per packet — so the toggle counters capture each
coder's effect in a single replay pass.

Packets are sent raw and encoded in bulk: the crossbar records each
packet's words, and a drain encodes every pending packet of a stream
in one call before handing the payloads to the toggle counters in send
order.

Request/write headers travel on a separate narrow control (address)
network, as in real GPU interconnects, so only *data* flits — read
responses and write payloads — contribute to the counted toggles; the
control network's traffic is value-independent and identical across
variants, so it cancels out of every relative comparison.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from .stats import VARIANTS, Encoders, NoCStats
from ..core.spaces import Unit

__all__ = ["Crossbar", "PENDING_PACKETS", "encode_packets"]

#: Raw packets a :class:`Crossbar` holds before it encodes them: bounds
#: memory on long traces. Encoding is per packet, so the bound never
#: changes a payload.
PENDING_PACKETS = 1024


def encode_packets(encoders: Encoders, packets: Sequence[np.ndarray],
                   masks: Optional[Sequence] = None) -> List[np.ndarray]:
    """Each raw packet's ``(variants, bytes)`` uint8 payload, rows in
    :data:`VARIANTS` order.

    A packet is a 1-D uint32 array of data words (a line, or a store's
    lane words), coded as a NoC line block (VS pivot: its element 0),
    or a uint64 array of instruction words. All data packets encode in
    one segmented call, all instruction packets in another. ``masks``
    holds, per packet, a uint8 flip mask of its byte length (or None),
    XORed onto every variant.
    """
    payloads: List[Optional[np.ndarray]] = [None] * len(packets)
    for is_inst in (False, True):
        members = [i for i, p in enumerate(packets)
                   if (p.dtype == np.uint64) is is_inst]
        if not members:
            continue
        group = [packets[i] for i in members]
        words = np.concatenate(group)
        if is_inst:
            variants = encoders.inst_variants(words)
        else:
            variants = encoders.data_variants(
                Unit.NOC, words, "line", sizes=[p.size for p in group])
        wire = np.stack([variants[v] for v in VARIANTS]).view(np.uint8)
        ends = np.cumsum([p.nbytes for p in group]).tolist()
        starts = [0] + ends[:-1]
        if masks is not None and any(masks[i] is not None for i in members):
            flips = np.zeros(wire.shape[1], dtype=np.uint8)
            for i, start, end in zip(members, starts, ends):
                if masks[i] is not None:
                    flips[start:end] = masks[i]
            wire ^= flips
        for i, start, end in zip(members, starts, ends):
            payloads[i] = wire[:, start:end]
    return payloads


class Crossbar:
    """Packet interface over :class:`~repro.arch.stats.NoCStats`."""

    def __init__(self, n_sms: int, n_banks: int, flit_bytes: int,
                 encoders: Encoders, fault_model=None):
        if n_sms < 1 or n_banks < 1:
            raise ValueError("crossbar dimensions must be positive")
        self.n_sms = n_sms
        self.n_banks = n_banks
        self.stats = NoCStats(flit_bytes)
        self.encoders = encoders
        self.packets = 0
        self.control_flits = 0
        #: Times the pending packets were encoded and counted.
        self.drains = 0
        #: optional :class:`repro.faults.FaultModel`; data flits pick up
        #: transient upsets on the wires (the same physical flip mask is
        #: applied to every variant's payload).
        self.fault_model = fault_model
        #: ``(channel, words, flip mask)`` per packet not yet encoded,
        #: in send order.
        self._pending: list = []

    def bank_of(self, line_addr: int, line_bytes: int) -> int:
        """Address-interleaved L2 bank selection."""
        return (line_addr // line_bytes) % self.n_banks

    def send_request(self, sm: int, bank: int, line_addr: int) -> None:
        """Address-only request, SM -> bank, on the control network."""
        self.packets += 1
        self.control_flits += 1

    def send_response(self, sm: int, bank: int, words: np.ndarray) -> None:
        """Data response, bank -> SM; ``words`` is the raw packet: a
        uint32 line, or a uint64 instruction line."""
        self.packets += 1
        self._record(("resp", sm), words)

    def send_write(self, sm: int, bank: int, line_addr: int,
                   words: np.ndarray) -> None:
        """Store packet: control-network header + data flits, SM -> bank;
        ``words`` are the store's uint32 lane words for the line."""
        self.packets += 1
        self.control_flits += 1
        self._record(("req", bank), words)

    def _record(self, channel, words: np.ndarray) -> None:
        """Hold a raw packet; its fault mask is drawn now, in send order."""
        mask = None
        if self.fault_model is not None:
            mask = self.fault_model.payload_mask(words.nbytes)
        self._pending.append((channel, words, mask))
        if len(self._pending) >= PENDING_PACKETS:
            self._drain()

    def flush(self) -> None:
        """Encode and count every packet sent so far."""
        self._drain()
        self.stats.flush()

    def _drain(self) -> None:
        """Encode the pending packets in bulk and hand each payload to
        the toggle counters, in send order."""
        pending = self._pending
        if not pending:
            return
        self._pending = []
        self.drains += 1
        payloads = encode_packets(self.encoders,
                                  [words for __, words, __ in pending],
                                  [mask for __, __, mask in pending])
        send = self.stats.send
        for (channel, __, __), payload in zip(pending, payloads):
            send(channel, payload)

    @property
    def toggles(self) -> Dict[str, int]:
        return dict(self.stats.toggles)

    def toggle_rate(self, variant: str) -> float:
        return self.stats.toggle_rate(variant)
