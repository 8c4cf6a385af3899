"""Application API and registry for the 58-app workload suite.

Each application mirrors one of the paper's benchmarks: it allocates
device buffers with realistic data, then returns one or more kernel
launches whose bodies are written against the block-level SIMT API
(:class:`~repro.arch.warp.WarpCtx`). Applications register themselves
under their paper abbreviation and suite.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

from ..arch.engine import Launch
from ..arch.memory import GlobalMemory

__all__ = ["GPUApp", "register", "get_app", "all_apps", "apps_by_suite",
           "APP_REGISTRY", "SUITES"]

SUITES = ("rodinia", "parboil", "sdk", "shoc", "lonestar", "polybench",
          "gpgpusim")

APP_REGISTRY: Dict[str, "GPUApp"] = {}


@dataclass
class GPUApp:
    """One benchmark application."""

    name: str                       # paper abbreviation, e.g. "ATA"
    suite: str
    description: str
    builder: Callable[[GlobalMemory, np.random.Generator], List[Launch]]
    memory_bytes: int = 2 << 20
    tags: tuple = field(default_factory=tuple)

    @property
    def seed(self) -> int:
        """Deterministic per-app RNG seed (stable across sessions)."""
        return zlib.crc32(self.name.encode()) & 0x7FFFFFFF

    def build(self, mem: GlobalMemory,
              rng: np.random.Generator) -> List[Launch]:
        return self.builder(mem, rng)

    def __hash__(self):
        return hash(self.name)


def register(name: str, suite: str, description: str,
             memory_bytes: int = 8 << 20, tags: tuple = ()):
    """Decorator registering a builder function as an application."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; known: {SUITES}")

    def wrap(builder):
        if name in APP_REGISTRY:
            raise ValueError(f"duplicate app {name!r}")
        app = GPUApp(name=name, suite=suite, description=description,
                     builder=builder, memory_bytes=memory_bytes, tags=tags)
        APP_REGISTRY[name] = app
        return builder

    return wrap


def get_app(name: str) -> GPUApp:
    _ensure_loaded()
    try:
        return APP_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown app {name!r}; known: {sorted(APP_REGISTRY)}"
        ) from None


def all_apps() -> List[GPUApp]:
    """Every registered application, in stable (name) order."""
    _ensure_loaded()
    return [APP_REGISTRY[k] for k in sorted(APP_REGISTRY)]


def apps_by_suite(suite: str) -> List[GPUApp]:
    _ensure_loaded()
    return [a for a in all_apps() if a.suite == suite]


def _ensure_loaded() -> None:
    """Import the suite modules so their @register decorators run."""
    from . import (  # noqa: F401
        rodinia, parboil, sdk, shoc, lonestar, polybench, gpgpusim,
    )
