"""Resilient sweep engine: checkpoint/resume, retry, soft timeouts,
supervised process-pool execution with bounded re-dispatch, poison-unit
quarantine, and graceful signal draining."""

from .checkpoint import (CHECKPOINT_SCHEMA_VERSION, CHECKPOINT_VERSION,
                         Checkpoint, CheckpointError, unit_key)
from .pool import (DEFAULT_MAX_DISPATCHES, UnitTask, UnitTimeout,
                   call_with_wall_clock_limit, error_report,
                   execute_unit_task, quarantine_record,
                   run_unit_attempts, run_units_parallel, seed_unit_rngs,
                   sigalrm_usable, soft_time_limit, unit_seed,
                   validate_unit_record)
from .sweep import SweepInterrupted, SweepRunner, SweepStats

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION", "CHECKPOINT_VERSION", "Checkpoint",
    "CheckpointError", "unit_key",
    "SweepInterrupted", "SweepRunner", "SweepStats",
    "UnitTimeout", "error_report",
    "soft_time_limit", "call_with_wall_clock_limit", "sigalrm_usable",
    "UnitTask", "unit_seed", "seed_unit_rngs", "run_unit_attempts",
    "execute_unit_task", "run_units_parallel",
    "validate_unit_record", "quarantine_record",
    "DEFAULT_MAX_DISPATCHES",
]
