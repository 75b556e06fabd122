"""JSONL persistence with exact-key schema checks."""

from __future__ import annotations

import json
import os
from pathlib import Path

from .errors import SchemaViolation


def check_keys(rec: dict, schema: tuple[str, ...], where: str) -> None:
    if not isinstance(rec, dict):
        raise SchemaViolation(f"{where}: record must be a JSON object, got {json.dumps(rec, default=repr)}")
    keys, want = set(rec), set(schema)
    if keys != want:
        missing = sorted(want - keys)
        extra = sorted(keys - want)
        raise SchemaViolation(
            f"{where}: record keys do not match schema"
            f" (missing={missing}, unknown={extra})"
        )


def write_jsonl(path: str | Path, records: list[dict], schema: tuple[str, ...] | None = None) -> None:
    """Write one compact JSON object per line; validates keys when a schema is given.

    The lines go to a sibling ``.tmp`` file that replaces ``path`` only once
    every record is written, so a failure leaves the old file as it was.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            for i, rec in enumerate(records):
                if schema is not None:
                    check_keys(rec, schema, f"{path}:{i + 1}")
                fh.write(json.dumps(rec, ensure_ascii=False))
                fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_jsonl(path: str | Path, schema: tuple[str, ...] | None = None) -> list[dict]:
    """Read a JSONL file back into dicts; blank lines are skipped."""
    path = Path(path)
    records: list[dict] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaViolation(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if schema is not None:
                check_keys(rec, schema, f"{path}:{lineno}")
            records.append(rec)
    return records
