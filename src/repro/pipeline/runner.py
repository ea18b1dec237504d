"""The batch check/verify orchestrator.

A :class:`Pipeline` takes programs and produces :class:`ProgramResult`\\ s
through two cooperating mechanisms:

* **per-function derivations** — each function of a program is checked
  and verified on its own (§5: a function's derivation depends only on
  declarations and signatures, never on other bodies), in-process and
  phase-faithful to the serial entry points: check every function in
  sorted order, stop at the first type error, then verify or replay each
  derivation;
* **the certificate cache** (:mod:`repro.pipeline.cache`) — a content
  hash decides per function whether the prover runs at all.  A hit
  replays the stored certificate through the verifier (soundness
  preserved: nothing is trusted), or skips verification entirely under
  ``trust_cache`` (integrity by content hash: the certificate was
  verified when it was stored, and the key proves the inputs have not
  changed since).

:meth:`Pipeline.run` is the one route from source text to a check or
verify verdict: the facade (:mod:`repro.api`), ``repro check``/
``verify``/``corpus``/``batch`` and the daemon's ``check``/``verify``/
``batch`` methods all call it.  A program that does not lex, parse or
elaborate, that nests too deeply, or that the checker or verifier
rejects comes back as a :class:`ProgramResult` carrying one
:class:`ErrorInfo`; it never raises.

Determinism contract, relied on by tests and CI: for any program and any
cache state, a run produces the accept/reject decision and first-error
diagnostic of ``Checker.check_program`` + ``Verifier.verify_program``
(first in sorted function order), and the same checker/verifier counters
(modulo the ``pipeline.*`` family itself).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import telemetry as tel
from ..core.checker import CheckProfile, DEFAULT_PROFILE
from ..core.derivation import FuncDerivation
from ..core.errors import NestingTooDeep, TypeError_
from ..core.serialize import func_derivation_from_json, func_derivation_to_json
from ..lang import ParseError, ast
from ..lang.lexer import LexError
from ..verifier import VerificationError
from .cache import CacheEntry, CertCache
from .session import ProgramSession

#: What a program can raise between source text and verdict.  Each is a
#: rejection of the program, reported as an :class:`ErrorInfo`.
PROGRAM_ERRORS = (
    LexError,
    ParseError,
    TypeError_,
    VerificationError,
    RecursionError,
)


@dataclass
class ErrorInfo:
    """A check/verify failure, detached from the exception object."""

    stage: str  # "check" | "verify"
    cls: str
    message: str
    span: Optional[Tuple[int, int, int, int]] = None

    @classmethod
    def from_exception(cls, exc: BaseException) -> "ErrorInfo":
        """The one rule turning a program error into a record.

        A ``RecursionError`` means the program nests deeper than the
        recursive parser, checker or verifier can follow; it is recorded
        as :class:`NestingTooDeep`.  Only a :class:`VerificationError` is
        a verify-stage failure.  Class, message and span are what
        :meth:`repro.api.Diagnostic.from_exception` gives, so
        :meth:`to_diagnostic` returns exactly that diagnostic."""
        from ..api import Diagnostic

        if isinstance(exc, RecursionError):
            exc = NestingTooDeep()
        diag = Diagnostic.from_exception(exc)
        return cls(
            stage="verify" if isinstance(exc, VerificationError) else "check",
            cls=diag.code,
            message=diag.message,
            span=diag.span,
        )

    def to_diagnostic(self, file: str = "<input>"):
        """The canonical :class:`repro.api.Diagnostic` form — the one
        encoder shared by CLI text output, ``--metrics-json`` failure
        records, and ``repro-rpc/1`` responses."""
        from ..api import Diagnostic

        return Diagnostic(
            file=file,
            severity="error",
            code=self.cls,
            message=self.message,
            span=self.span,
        )


def open_session(
    source: str,
    program: Optional[ast.Program] = None,
    profile: CheckProfile = DEFAULT_PROFILE,
) -> Tuple[Optional[ProgramSession], Optional[ErrorInfo]]:
    """Parse (unless ``program`` is given) and elaborate one program:
    ``(session, None)``, or ``(None, error)`` when it does not lex, parse
    or elaborate."""
    try:
        return ProgramSession(source, program=program, profile=profile), None
    except PROGRAM_ERRORS as exc:
        return None, ErrorInfo.from_exception(exc)


@dataclass
class FunctionResult:
    """One function of a program that checked (and, when verifying,
    verified): a failure empties :attr:`ProgramResult.functions` instead."""

    name: str
    #: "miss" (freshly derived), "hit" (certificate replayed), "trusted"
    #: (hit under trust_cache — not re-verified), "stale" (an unusable
    #: cache entry forced a fresh derivation).
    cached: str
    nodes: int = 0
    verified: int = 0
    ms: float = 0.0


@dataclass
class ProgramResult:
    label: str
    ok: bool
    error: Optional[ErrorInfo] = None
    #: One result per function in sorted order; empty on a failure.
    functions: List[FunctionResult] = field(default_factory=list)
    wall_ms: float = 0.0
    #: The functions the program declares, on a failure too (0 when it
    #: does not lex, parse or elaborate).
    declared: int = 0
    #: On a failure after every function was checked (in the verify
    #: phase), the size of the checker's derivation; 0 otherwise.
    failed_nodes: int = 0

    @property
    def nodes(self) -> int:
        return sum(f.nodes for f in self.functions)

    @property
    def verified(self) -> int:
        return sum(f.verified for f in self.functions)

    def counts(self) -> Dict[str, int]:
        out = {"hit": 0, "miss": 0, "stale": 0, "trusted": 0}
        for f in self.functions:
            out[f.cached] = out.get(f.cached, 0) + 1
        # A trusted hit is still a hit; stale entries were misses that
        # additionally evicted garbage.
        out["hit"] += out.pop("trusted")
        return out


class _Failed(Exception):
    """Stops a program's run at its first error."""

    def __init__(self, name: Optional[str], error: ErrorInfo, nodes: int):
        self.name = name
        self.error = error
        self.nodes = nodes


class Pipeline:
    """Reusable check/verify engine.  One configuration (cache, trust,
    verify or check only, profile) serves any number of programs; the
    CLI builds one per invocation, the daemon keeps one per method."""

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        trust_cache: bool = False,
        verify: bool = True,
        profile: CheckProfile = DEFAULT_PROFILE,
        cache_entries: Optional[int] = None,
        cache_bytes: Optional[int] = None,
    ):
        self.cache = (
            CertCache(
                cache_dir, max_entries=cache_entries, max_bytes=cache_bytes
            )
            if cache_dir
            else None
        )
        self.trust_cache = trust_cache
        self.verify = verify
        self.profile = profile

    # The pipeline holds no pool or open handle; the context-manager
    # protocol stays so callers can scope it like any other resource.

    def close(self) -> None:
        pass

    def __enter__(self) -> "Pipeline":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # One program
    # ------------------------------------------------------------------

    def run(
        self,
        label: str,
        source: str,
        program: Optional[ast.Program] = None,
        session: Optional[ProgramSession] = None,
    ) -> ProgramResult:
        """Check (and verify) every function of one program.  ``program``
        is ``source`` already parsed; ``session`` is the caller's warm
        :class:`ProgramSession` for ``source``, with its own profile.
        Without either, the program is parsed and elaborated here."""
        tr = tel.tracer()
        if not tr.enabled:
            return self._run(label, source, program, session)
        # Under the ambient span when there is one (the daemon's request
        # span, the facade's api.* span), a new root otherwise.
        with tr.span("pipeline.program", cat="pipeline", args={"label": label}):
            return self._run(label, source, program, session)

    def _run(
        self,
        label: str,
        source: str,
        program: Optional[ast.Program],
        session: Optional[ProgramSession],
    ) -> ProgramResult:
        t0 = time.perf_counter()
        if session is None:
            session, error = open_session(source, program, self.profile)
            if session is None:
                return ProgramResult(
                    label,
                    ok=False,
                    error=error,
                    wall_ms=(time.perf_counter() - t0) * 1000.0,
                )
        reg = tel.registry()
        names = session.function_names()
        done: Dict[str, FunctionResult] = {}
        try:
            certs = self._derive(session, names, done, reg)
        except _Failed as failed:
            result = ProgramResult(
                label,
                ok=False,
                error=failed.error,
                declared=len(names),
                failed_nodes=failed.nodes,
            )
            self._observe_times(names, done, reg, stop=failed.name)
        else:
            result = ProgramResult(
                label,
                ok=True,
                functions=[done[name] for name in names],
                declared=len(names),
            )
            self._observe_times(names, done, reg)
            self._store(session, certs, done)
            if reg.enabled:
                checked = sum(f.cached in ("miss", "stale") for f in done.values())
                if checked:
                    reg.inc("checker.functions", checked)
                if self.verify:
                    verified = sum(f.cached != "trusted" for f in done.values())
                    if verified:
                        reg.inc("verifier.certificates", verified)
        result.wall_ms = (time.perf_counter() - t0) * 1000.0
        if reg.enabled:
            reg.inc("pipeline.files")
            reg.inc("pipeline.functions", len(names))
            counts = result.counts()
            reg.inc("pipeline.cache.hit", counts["hit"])
            reg.inc("pipeline.cache.miss", counts["miss"])
            reg.inc("pipeline.cache.stale", counts["stale"])
        return result

    def _derive(
        self,
        session: ProgramSession,
        names: List[str],
        done: Dict[str, FunctionResult],
        reg: tel.Registry,
    ) -> Dict[str, str]:
        """Fill ``done`` with one result per function and return the new
        certificates to store; raises :class:`_Failed` at the first error.

        The phases replicate the serial entry points exactly: check every
        function without a usable certificate (sorted order, stop at the
        first type error — the verifier must not run for a program the
        checker rejected), then verify each fresh derivation or replay
        each stored one."""
        name: Optional[str] = None  # the function in hand
        nodes = 0  # the derivation's size, once every function is checked
        try:
            # Phase 0 — consult the cache.
            stored: Dict[str, CacheEntry] = {}  # certificates to replay
            for name in names:
                status, entry = ("miss", None)
                if self.cache is not None:
                    status, entry = self.cache.get(session.function_key(name))
                if status != "hit" or entry is None:
                    # "stale" is re-derived like a miss; storing the fresh
                    # certificate evicts the unusable entry.
                    continue
                if self.trust_cache or not self.verify:
                    done[name] = FunctionResult(
                        name,
                        cached="trusted" if self.trust_cache else "hit",
                        nodes=entry.nodes,
                        verified=entry.verified if self.trust_cache else 0,
                    )
                else:
                    stored[name] = entry

            # Phase 1 — check.
            fresh: Dict[str, FuncDerivation] = {}
            with _maybe_span(reg, "check.program"):
                for name in names:
                    if name in done or name in stored:
                        continue
                    t0 = time.perf_counter()
                    fresh[name] = session.check_function(name)
                    done[name] = FunctionResult(
                        name,
                        cached="miss",
                        nodes=fresh[name].body.node_count(),
                        ms=(time.perf_counter() - t0) * 1000.0,
                    )

            certs: Dict[str, str] = {}
            if not self.verify:
                return certs
            nodes = sum(f.nodes for f in done.values()) + sum(
                entry.nodes for entry in stored.values()
            )

            # Phase 2 — verify fresh derivations, replay stored ones.
            with _maybe_span(reg, "verify.program"):
                for name in names:
                    t0 = time.perf_counter()
                    if name in stored:
                        fd = self._replay(session, name, stored[name].cert, done)
                    elif name in fresh:
                        fd = fresh[name]
                        done[name].verified = session.verify_function(fd)
                    else:
                        continue
                    done[name].ms += (time.perf_counter() - t0) * 1000.0
                    if fd is not None and self.cache is not None:
                        certs[name] = func_derivation_to_json(fd)
            return certs
        except PROGRAM_ERRORS as exc:
            raise _Failed(name, ErrorInfo.from_exception(exc), nodes)

    def _replay(
        self,
        session: ProgramSession,
        name: str,
        cert: str,
        done: Dict[str, FunctionResult],
    ) -> Optional[FuncDerivation]:
        """Replay one stored certificate into ``done[name]``.  Returns the
        derivation to store when the certificate was unusable and a fresh
        one replaced it, ``None`` when the stored one verified."""
        try:
            fd = func_derivation_from_json(name, cert)
            verified = session.verify_function(fd)
        except (VerificationError, ValueError, KeyError, TypeError):
            pass
        else:
            done[name] = FunctionResult(
                name, cached="hit", nodes=fd.body.node_count(),
                verified=verified,
            )
            return None
        # Unusable certificate: self-heal with a fresh derivation.
        fd = session.check_function(name)
        verified = session.verify_function(fd)
        done[name] = FunctionResult(
            name, cached="stale", nodes=fd.body.node_count(),
            verified=verified,
        )
        return fd

    def _store(
        self,
        session: ProgramSession,
        certs: Dict[str, str],
        done: Dict[str, FunctionResult],
    ) -> None:
        for name, cert in certs.items():
            self.cache.put(
                session.function_key(name),
                CacheEntry(
                    func=name,
                    nodes=done[name].nodes,
                    verified=done[name].verified,
                    cert=cert,
                ),
            )

    @staticmethod
    def _observe_times(
        names: List[str],
        done: Dict[str, FunctionResult],
        reg: tel.Registry,
        stop: Optional[str] = None,
    ) -> None:
        """Per-function wall time, for the functions before ``stop``."""
        if not reg.enabled:
            return
        for name in names:
            if name == stop:
                break
            if name in done and done[name].ms:
                reg.observe("pipeline.worker_ms", done[name].ms)


class _maybe_span:
    """``registry.span(name)`` when telemetry is on, nothing otherwise."""

    def __init__(self, reg: tel.Registry, name: str):
        self._cm = reg.span(name) if reg.enabled else None

    def __enter__(self):
        return self._cm.__enter__() if self._cm is not None else None

    def __exit__(self, *exc):
        return self._cm.__exit__(*exc) if self._cm is not None else False
