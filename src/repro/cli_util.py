"""Shared CLI name-resolution helpers with did-you-mean hints.

Every subcommand that takes a name from a closed set — applications,
experiments, fidelity scales, chaos campaigns — routes its
failure through :func:`unknown_name`, so the suggestion behaviour and
the exit-2 usage contract can never drift between subcommands. The
comparators' numeric bars parse through :func:`nonneg_float`, and time
limits through :func:`positive_float`, for the same reason.
"""

from __future__ import annotations

import argparse
import difflib
import math
import sys

__all__ = ["unknown_name", "lookup_app", "resolve_apps",
           "resolve_experiments", "nonneg_float", "positive_float"]


def unknown_name(kind: str, name: str, known) -> "SystemExit":
    """Shared did-you-mean usage error: print a hint, exit 2.

    Returned (not raised) so call sites can choose ``raise
    unknown_name(...)`` or use it as a sentinel.
    """
    close = difflib.get_close_matches(name, list(known), n=3, cutoff=0.4)
    hint = f"; did you mean {', '.join(close)}?" if close else ""
    print(f"unknown {kind} {name!r}{hint}", file=sys.stderr)
    return SystemExit(2)


def lookup_app(name: str, known):
    """One app by name; exit 2 with a did-you-mean hint when unknown."""
    from .kernels import get_app
    try:
        return get_app(name)
    except KeyError:
        raise unknown_name("app", name, known)


def resolve_apps(spec):
    """Parse a comma-separated app spec; exit 2 with suggestions if bad.

    An empty/None spec resolves to None ("the full suite") so callers
    can pass it straight to the drivers.
    """
    if not spec:
        return None
    from .kernels import all_apps
    known = [app.name for app in all_apps()]
    return [lookup_app(name, known)
            for name in (n.strip() for n in spec.split(",")) if name]


def resolve_experiments(spec):
    """Parse a comma-separated experiment-id spec ('all'/empty -> None).

    Unknown ids exit 2 with a did-you-mean hint, mirroring
    :func:`resolve_apps`.
    """
    if not spec or spec == "all":
        return None
    from .experiments import EXPERIMENTS
    ids = [n.strip() for n in spec.split(",") if n.strip()]
    for exp_id in ids:
        if exp_id not in EXPERIMENTS:
            raise unknown_name("experiment", exp_id, EXPERIMENTS)
    return ids


def nonneg_float(raw: str) -> float:
    """argparse ``type=`` for a comparator bar: a finite number >= 0.

    NaN compares false against everything and infinity exceeds every
    shift, so either would silently grade every delta ok; argparse
    turns the error into a usage message and exit 2.
    """
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a finite number >= 0, not {raw!r}")
    return value


def positive_float(raw: str) -> float:
    """argparse ``type=`` for a time limit: a finite number > 0.

    Zero and negatives would silently disable a limit, NaN never
    compares true against a deadline, and infinity
    overflows the timer it arms; argparse turns the error into a usage
    message and exit 2.
    """
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, not {raw!r}")
    return value
