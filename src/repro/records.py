"""Shared loader for schema-versioned JSON history records.

Both record families — ``repro-bench`` records (the reports of the
end-to-end benchmark, ``benchmarks/e2e``) and ``FIDELITY_*.json`` (the
paper-fidelity scorecard) — follow the same envelope: a ``schema`` tag
naming the record family, an integer ``schema_version`` readers refuse
to read past, and one mandatory payload table. This module is the one
place that envelope is validated, so the two families cannot drift
apart.
"""

from __future__ import annotations

import json

__all__ = ["RecordError", "load_schema_record"]


class RecordError(Exception):
    """A record file is missing, malformed, or a newer schema."""


def load_schema_record(path: str, schema: str, max_version: int,
                       table: str,
                       error_cls: type = RecordError) -> dict:
    """Load and envelope-validate one schema-versioned record file.

    ``table`` names the mandatory payload dict (``"scenarios"`` for
    BENCH records, ``"claims"`` for FIDELITY records). Raises
    ``error_cls`` — a :class:`RecordError` subclass — so each record
    family keeps its own exception type for callers to catch.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
    except OSError as exc:
        raise error_cls(f"cannot read {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise error_cls(f"{path!r} is not valid JSON: {exc}") from exc
    if not isinstance(record, dict) or record.get("schema") != schema:
        raise error_cls(
            f"{path!r} is not a {schema} record "
            f"(schema={record.get('schema')!r})"
            if isinstance(record, dict) else
            f"{path!r} is not a {schema} record")
    version = record.get("schema_version")
    if not isinstance(version, int) or version > max_version:
        raise error_cls(
            f"{path!r} has schema_version {version!r}; this build "
            f"understands <= {max_version}")
    if not isinstance(record.get(table), dict):
        raise error_cls(f"{path!r} has no {table} table")
    return record
