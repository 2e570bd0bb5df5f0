"""Crash-safe campaigns: the write-ahead run journal.

:mod:`repro.checkpoint.journal` is an append-only, fsync'd, per-record
checksummed JSONL write-ahead log of campaign/sweep progress, so every
campaign runner takes finished runs' results from it and skips those
runs on restart (torn trailing records from the crash are tolerated).
Resuming is seeded replay at run granularity: a run that did not
finish is simply run again from its seed, so no live engine,
event-queue, or RNG state is ever serialized (lint rule ``DET106``
flags it outside this package).
"""

from .journal import (JournalReadResult, JournalWriter, canonical_json,
                      frame_record, read_journal, record_checksum)

__all__ = [
    "JournalReadResult",
    "JournalWriter",
    "canonical_json",
    "frame_record",
    "read_journal",
    "record_checksum",
]
