"""Deterministic fault injection (Section 7.1's destructive reads).

A :class:`FaultModel` corrupts the replay's array reads (read
disturbance: a stored 0 flips to 1 when read, and stays flipped) and
its NoC data flits (transient wire upsets).
"""

from .model import FaultModel

__all__ = ["FaultModel"]
