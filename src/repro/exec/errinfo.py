"""Structured exception payloads for journal records.

A ``scenario-error`` violation used to carry only ``str(exc)`` — enough
to know a run died, useless for diagnosing *where*.
:func:`exception_payload` turns a caught exception into a JSON-clean
dict (type, message, frame summaries) that rides along in the
violation's ``data`` field, so quarantined runs and shrunk soak
reproducers are diagnosable straight from the journal.

Two properties matter for the determinism contract:

* **Executor frames are filtered out.**  The same scenario failure is
  caught by :class:`~repro.exec.SerialExecutor` in-process but by the
  worker main loop under :class:`~repro.exec.ParallelExecutor`;
  keeping harness frames would make the payload depend on the executor
  and break the pinned serial == parallel bit-exactness.  Frames from
  ``repro/exec/executors.py`` are dropped; everything else (including
  the deliberate raise sites in ``repro/exec/faultinject.py``) is kept.
* **Paths are repo-relative.**  Frame files are trimmed to their
  ``repro/...`` suffix (or basename) so a journal written by a
  subprocess compares equal to one written in-process.
"""

from __future__ import annotations

import traceback
from typing import Dict, List

#: Innermost frames kept per payload; deep recursions are truncated
#: from the *outer* end so the raise site always survives.
_MAX_FRAMES = 12

#: The harness file whose frames differ between executors (see module
#: docstring) and are therefore excluded from payloads.
_HARNESS_SUFFIX = "repro/exec/executors.py"

#: Path component used to relativise frame filenames.
_PACKAGE_MARKER = "/repro/"


def _relative_file(filename: str) -> str:
    """Trim an absolute frame path to its ``repro/...`` suffix."""
    normalized = filename.replace("\\", "/")
    marker = normalized.rfind(_PACKAGE_MARKER)
    if marker >= 0:
        return normalized[marker + 1:]
    return normalized.rsplit("/", 1)[-1]


def _is_harness_frame(filename: str) -> bool:
    return filename.endswith(_HARNESS_SUFFIX)


def exception_payload(exc: BaseException) -> Dict[str, object]:
    """JSON-clean summary of ``exc``: type, message, frame summaries.

    ``frames`` lists the kept frames outermost-first, each as
    ``{"file", "line", "function", "code"}``; ``truncated`` counts
    outer frames dropped by the :data:`_MAX_FRAMES` cap (absent when
    zero).  The payload is a pure function of the exception and the
    source tree — no paths outside the package, no timestamps — so it
    may enter journal records and golden comparisons.
    """
    summary = traceback.TracebackException.from_exception(exc)
    frames: List[Dict[str, object]] = []
    for frame in summary.stack:
        relative = _relative_file(frame.filename)
        if _is_harness_frame(relative):
            continue
        frames.append({
            "file": relative,
            "line": int(frame.lineno or 0),
            "function": frame.name,
            "code": (frame.line or "").strip(),
        })
    payload: Dict[str, object] = {
        "type": type(exc).__name__,
        "message": str(exc),
        "frames": frames[-_MAX_FRAMES:],
    }
    truncated = len(frames) - _MAX_FRAMES
    if truncated > 0:
        payload["truncated"] = truncated
    return payload
