"""Worker-process entry points for ``repro fuzz --jobs N``.

Everything here must be importable by name from a fresh interpreter (the
``ProcessPoolExecutor`` contract) and speak only in picklable primitives:
tasks and verdicts are plain dicts of strings/ints, exceptions are folded
into structured error fields, and telemetry crosses the process boundary
as an exported ``repro-telemetry/2`` document that the campaign merges
back into its registry.
"""

from __future__ import annotations

import sys
from contextlib import nullcontext
from typing import Any, Dict, Optional

from .. import telemetry as tel
from ..core.errors import TypeError_
from ..lang import parse_program
from ..lang.parser import ParseError
from ..lang.tokens import SourceSpan
from ..pipeline.session import ProgramSession
from ..verifier import VerificationError


def init_worker() -> None:
    """Pool initializer: match the parent's recursion headroom (the checker
    and the pickler both recurse over deep derivations)."""
    sys.setrecursionlimit(100_000)


def _span_tuple(span: Optional[SourceSpan]):
    if span is None:
        return None
    return (span.start, span.end, span.line, span.column)


def span_from_tuple(data) -> Optional[SourceSpan]:
    if data is None:
        return None
    start, end, line, column = data
    return SourceSpan(start, end, line, column)


def check_verify_program_task(task: Dict[str, Any]) -> Dict[str, Any]:
    """Whole-program checker⇒verifier verdict — the fuzz campaign's
    static oracle, run remotely with byte-for-byte the same semantics as
    the in-process path in :mod:`repro.fuzz.oracles`.

    ``task`` keys: ``source``, ``profile``, ``collect``.  Returns a
    verdict dict with ``status`` in ``ok | parse | type | crash |
    verifier`` plus the error details needed to reconstruct the serial
    diagnostics, and (when collecting) the telemetry document of
    everything the check and verify did.
    """
    collect = task["collect"]
    reg = tel.Registry(enabled=True) if collect else None
    verdict: Dict[str, Any] = {"status": "ok", "cls": None, "message": None, "span": None}
    # A pool worker runs one task at a time, so swapping the
    # process-global registry scopes collection to this task.
    with tel.use(reg) if collect else nullcontext():
        try:
            program = parse_program(task["source"])
        except ParseError as exc:
            verdict.update(
                status="parse",
                cls="ParseError",
                message=str(exc),
                span=_span_tuple(getattr(exc, "span", None)),
            )
            program = None
        derivation = None
        session = None
        if program is not None:
            # Construction mirrors the serial oracle exactly: program-level
            # validation/elaboration errors are TypeError_ rejections, any
            # other exception is a checker-crash finding.
            try:
                session = ProgramSession(
                    task["source"], program=program, profile=task["profile"]
                )
                derivation = session.checker.check_program()
            except TypeError_ as exc:
                verdict.update(
                    status="type",
                    cls=type(exc).__name__,
                    message=exc.message,
                    span=_span_tuple(exc.span),
                )
            except Exception as exc:  # noqa: BLE001 — crashes are findings
                verdict.update(
                    status="crash", cls=type(exc).__name__, message=str(exc)
                )
        if derivation is not None:
            try:
                session.verifier.verify_program(derivation)
            except VerificationError as exc:
                verdict.update(status="verifier", message=str(exc))
    if collect:
        verdict["doc"] = tel.registry_to_doc(reg)
    return verdict
