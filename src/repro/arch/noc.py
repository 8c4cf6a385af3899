"""The SM <-> L2-bank crossbar NoC with flit-level toggle accounting.

Data movement energy on chip interconnect is proportional to the
toggling rate — the fraction of wires switching between consecutive
flits on the same physical channel (Section 3.2). The crossbar has one
request channel per L2 bank (all SMs' request flits serialise at the
bank's input port) and one response channel per SM; every packet's
payload is presented under all coder variants — one ``(variants,
bytes)`` array per packet — so the toggle counters capture each
coder's effect in a single replay pass.

Packets are sent raw and counted in bulk: the crossbar records each
packet's words (an access's missed lines as one block), and a drain
encodes every pending packet in one call per stream and hands the
whole drain to the toggle counters, which count all channels in one
segmented pass.

Request/write headers travel on a separate narrow control (address)
network, as in real GPU interconnects, so only *data* flits — read
responses and write payloads — contribute to the counted toggles; the
control network's traffic is value-independent and identical across
variants, so it cancels out of every relative comparison.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from .stats import VARIANTS, Encoders, NoCStats
from ..core.spaces import Unit

__all__ = ["Crossbar", "PENDING_PACKETS", "encode_packets"]

#: Raw packets a :class:`Crossbar` holds before it encodes and counts
#: them: bounds memory on long traces. Encoding is per packet and
#: toggle sums are order-exact, so the bound never changes a count.
PENDING_PACKETS = 1024


def encode_packets(encoders: Encoders, records: Sequence) -> tuple:
    """Encode a drain's ``(channel, words, masks)`` packet records.

    ``words`` is one data packet (a 1-D uint32 array: a line, or a
    store's lane words, coded as a NoC line block with its element 0
    as the VS pivot), a ``(packets, words)`` uint32 block of data
    packets, one per row, or one instruction packet (a uint64 array).
    ``masks`` is None or one uint8 flip mask (or None) per packet,
    XORed onto every variant.

    Returns ``(channels, starts, sizes, payload)``: per packet in send
    order its channel, and the byte offset and length of its bytes in
    ``payload``, a ``(variants, bytes)`` uint8 block with rows in
    :data:`VARIANTS` order. All data packets encode in one segmented
    call, all instruction packets in another.
    """
    channels: List[int] = []
    sizes: List[int] = []
    is_inst: List[bool] = []
    packet_masks: list = []
    data, data_sizes, inst = [], [], []
    for channel, words, masks in records:
        if words.dtype == np.uint64:
            inst.append(words)
            n = 1
            is_inst.append(True)
            sizes.append(words.nbytes)
        elif words.ndim == 2:
            n, width = words.shape
            data.append(words.ravel())
            data_sizes += [width] * n
            is_inst += [False] * n
            sizes += [4 * width] * n
        else:
            n = 1
            data.append(words)
            data_sizes.append(words.size)
            is_inst.append(False)
            sizes.append(words.nbytes)
        channels += [channel] * n
        packet_masks += masks if masks is not None else [None] * n
    wires = []
    if data:
        variants = encoders.data_variants(Unit.NOC, np.concatenate(data),
                                          "line", sizes=data_sizes)
        wires.append(np.stack([variants[v] for v in VARIANTS]).view(np.uint8))
    if inst:
        variants = encoders.inst_variants(np.concatenate(inst))
        wires.append(np.stack([variants[v] for v in VARIANTS]).view(np.uint8))
    payload = wires[0] if len(wires) == 1 else np.concatenate(wires, axis=1)
    sizes_a = np.array(sizes, dtype=np.int64)
    inst_a = np.array(is_inst, dtype=bool)
    starts = np.empty_like(sizes_a)
    data_bytes = 0
    for members in (~inst_a, inst_a):
        block = sizes_a[members]
        starts[members] = data_bytes + np.cumsum(block) - block
        data_bytes += int(block.sum())
    if any(mask is not None for mask in packet_masks):
        flips = np.zeros(payload.shape[1], dtype=np.uint8)
        for mask, start, size in zip(packet_masks, starts.tolist(), sizes):
            if mask is not None:
                flips[start:start + size] = mask
        payload ^= flips
    return (np.array(channels, dtype=np.int64), starts, sizes_a, payload)


class Crossbar:
    """Packet interface over :class:`~repro.arch.stats.NoCStats`.

    Channel ids: SM ``s``'s response channel is ``s``, and L2 bank
    ``b``'s request channel is ``n_sms + b``.
    """

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
        #: ``(channel, words, flip masks)`` records not yet encoded, in
        #: send order, and the packets they hold.
        self._pending: list = []
        self.pending_packets = 0

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
        self._record(sm, words, 1)

    def send_responses(self, sm: int, lines: np.ndarray) -> None:
        """Data responses, banks -> SM, for a ``(lines, words)`` uint32
        block: one packet per line, in row order, held as one record."""
        n = lines.shape[0]
        self.packets += n
        self._record(sm, lines, n)

    def send_write(self, sm: int, bank: int, line_addr: int,
                   words: np.ndarray) -> None:
        """Store packet: control-network header + data flits, SM -> bank;
        ``words`` are the store's uint32 lane words for the line."""
        self.packets += 1
        self.control_flits += 1
        self._record(self.n_sms + bank, words, 1)

    def _record(self, channel: int, words: np.ndarray, n: int) -> None:
        """Hold raw packets; their fault masks are drawn now, one per
        packet, in send order."""
        masks = None
        if self.fault_model is not None:
            n_bytes = words.nbytes // n
            masks = [self.fault_model.payload_mask(n_bytes)
                     for __ in range(n)]
        self._pending.append((channel, words, masks))
        self.pending_packets += n
        if self.pending_packets >= PENDING_PACKETS:
            self._drain()

    def flush(self) -> None:
        """Encode and count every packet sent so far."""
        self._drain()
        self.stats.flush()

    def _drain(self) -> None:
        """Encode the pending packets in bulk and count them."""
        if not self._pending:
            return
        pending = self._pending
        self._pending = []
        self.pending_packets = 0
        self.drains += 1
        self.stats.count(*encode_packets(self.encoders, pending))

    @property
    def toggles(self) -> Dict[str, int]:
        return dict(self.stats.toggles)

    def toggle_rate(self, variant: str) -> float:
        return self.stats.toggle_rate(variant)
