"""The warm-state method dispatcher behind ``repro serve``.

A :class:`Service` is transport-agnostic and synchronous — the asyncio
daemon calls it from worker threads; tests call it directly.  It owns the
state that makes a long-running process worth having:

* **a ProgramSession LRU** — parse + function-type elaboration happen once
  per distinct source, then every ``check``/``verify``/``run`` against
  that source reuses the shared session (interned regions included);
* **a result memo** — ``check``/``verify`` responses are memoized by
  ``(method, filename, sha256(source))``, so the warm path is a dict
  lookup returning the exact dict a cold call produced (byte-identity
  with :mod:`repro.api` is structural, not approximate);
* **two resident pipelines** — ``check`` on a checking
  :class:`~repro.pipeline.Pipeline`, ``verify`` and ``batch`` on a
  verifying one, both built from the same cache settings and both fed
  the warm session, through :func:`repro.api.verdict` like the facade.
  With ``cache_dir`` set, unchanged functions replay stored certificates
  instead of re-proving (``check`` reads the store, as ``repro check
  --cache DIR`` does; ``verify`` also fills it).

Results are plain dicts: exactly ``repro.api.*Result.to_dict()``.
Protocol-style validation failures raise :class:`~.protocol.RpcError`
with code ``invalid-request``.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from .. import api
from .. import telemetry as tel
from .protocol import DEFAULT_MAX_STEPS, E_INVALID, RPC_SCHEMA, RpcError


def _need(params: Dict[str, Any], key: str, kind, what: str):
    value = params.get(key)
    if not isinstance(value, kind):
        raise RpcError(E_INVALID, f"params.{key} must be {what}")
    return value


def _opt_str(params: Dict[str, Any], key: str, default: str) -> str:
    value = params.get(key, default)
    if not isinstance(value, str):
        raise RpcError(E_INVALID, f"params.{key} must be a string")
    return value


class Service:
    """Check/verify/run/batch against resident warm state."""

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        trust_cache: bool = False,
        max_sessions: int = 32,
        max_memo: int = 512,
        max_steps: int = DEFAULT_MAX_STEPS,
        max_batch: int = 256,
        cache_entries: Optional[int] = None,
        cache_bytes: Optional[int] = None,
    ):
        self.cache_dir = cache_dir
        self.max_steps = max_steps
        self.max_batch = max_batch
        self._max_sessions = max_sessions
        self._max_memo = max_memo
        # sha256(source) -> (ProgramSession, per-session lock)
        self._sessions: "OrderedDict[str, Tuple[Any, threading.Lock]]" = (
            OrderedDict()
        )
        # (method, filename, sha256(source)) -> result dict
        self._memo: "OrderedDict[Tuple[str, str, str], Dict[str, Any]]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        # The service's metrics home.  When the process-global registry
        # is enabled (repro serve does this at startup) it IS that
        # registry, so exports see service metrics; otherwise a private
        # always-enabled one, so the `stats`/`metrics` RPCs stay truthful
        # even in embedded ServerThread uses with telemetry off.  The
        # registry is thread-safe now, so this replaced the plain-dict
        # request/memo counter shadows that existed because it wasn't.
        ambient = tel.registry()
        self.registry = ambient if ambient.enabled else tel.Registry(enabled=True)
        self._cache_config = dict(
            cache_dir=cache_dir,
            trust_cache=trust_cache,
            cache_entries=cache_entries,
            cache_bytes=cache_bytes,
        )
        # method -> Pipeline, built on first use so that starting the
        # daemon does not pay for importing the pipeline.
        self._pipelines: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def dispatch(self, method: str, params: Dict[str, Any]) -> Dict[str, Any]:
        if method == "ping":
            return self.ping()
        if method == "check":
            return self.check(
                _need(params, "source", str, "a string"),
                _opt_str(params, "filename", "<rpc>"),
            )
        if method == "verify":
            return self.verify(
                _need(params, "source", str, "a string"),
                _opt_str(params, "filename", "<rpc>"),
            )
        if method == "run":
            return self.run(params)
        if method == "batch":
            return self.batch(params)
        if method == "stats":
            return {"service": self.stats()}
        raise RpcError(E_INVALID, f"method {method!r} not handled in-process")

    # ------------------------------------------------------------------
    # Methods
    # ------------------------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        from .. import __version__

        return {"pong": True, "rpc": RPC_SCHEMA, "version": __version__}

    def check(self, source: str, filename: str) -> Dict[str, Any]:
        return self._verdict("check", source, filename)

    def verify(self, source: str, filename: str) -> Dict[str, Any]:
        return self._verdict("verify", source, filename)

    def _verdict(self, method: str, source: str, filename: str) -> Dict[str, Any]:
        key = (method, filename, _sha(source))
        hit = self._memo_get(key)
        if hit is not None:
            return hit
        pipeline = self._pipeline(method)
        session, lock = self._session(source)
        if lock is not None:
            with lock:
                result = api.verdict(
                    pipeline, source, filename=filename, session=session
                )
        else:
            result = api.verdict(pipeline, source, filename=filename)
        return self._memo_put(key, result.to_dict())

    def run(self, params: Dict[str, Any]) -> Dict[str, Any]:
        source = _need(params, "source", str, "a string")
        function = _need(params, "function", str, "a string")
        filename = _opt_str(params, "filename", "<rpc>")
        args = params.get("args", [])
        if not isinstance(args, list) or not all(
            isinstance(a, (int, bool)) for a in args
        ):
            raise RpcError(E_INVALID, "params.args must be a list of ints/bools")
        erased = bool(params.get("erased", False))
        # Warm serving defaults to the compiled bytecode engine: the
        # session LRU plus the shared compile cache make repeat runs hit
        # precompiled modules, and RunResult.engine reports what ran so
        # clients always see the effective choice.  Explicit "tree" still
        # selects the fig 7 small-step machine.
        engine = params.get("engine")
        if engine is None:
            engine = "ir"
        if engine not in ("tree", "ir"):
            raise RpcError(
                E_INVALID, "params.engine must be 'tree' or 'ir'"
            )
        budget = params.get("max_steps")
        if budget is not None and (not isinstance(budget, int) or budget <= 0):
            raise RpcError(E_INVALID, "params.max_steps must be a positive int")
        # The server-side budget is a ceiling, not a default override.
        max_steps = min(budget, self.max_steps) if budget else self.max_steps
        session, lock = self._session(source)
        if lock is not None:
            with lock:
                result = api.run(
                    source,
                    function,
                    args,
                    filename=filename,
                    erased=erased,
                    max_steps=max_steps,
                    engine=engine,
                    session=session,
                )
        else:
            result = api.run(
                source,
                function,
                args,
                filename=filename,
                erased=erased,
                max_steps=max_steps,
                engine=engine,
            )
        return result.to_dict()

    def batch(self, params: Dict[str, Any]) -> Dict[str, Any]:
        programs = _need(params, "programs", list, "a list")
        if len(programs) > self.max_batch:
            raise RpcError(
                E_INVALID,
                f"batch of {len(programs)} exceeds the limit of {self.max_batch}",
            )
        entries: List[Dict[str, Any]] = []
        ok = True
        for index, item in enumerate(programs):
            if not isinstance(item, dict) or not isinstance(
                item.get("source"), str
            ):
                raise RpcError(
                    E_INVALID,
                    f"params.programs[{index}] must be "
                    '{"label": str, "source": str}',
                )
            label = item.get("label")
            if not isinstance(label, str):
                label = f"program-{index}"
            result = self.verify(item["source"], label)
            ok = ok and result["ok"]
            entries.append({"label": label, "result": result})
        return {"ok": ok, "programs": entries}

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "sessions": len(self._sessions),
                "memo_entries": len(self._memo),
                "memo_hits": self.registry.value("server.memo.hits"),
                "memo_misses": self.registry.value("server.memo.misses"),
                "cache_dir": self.cache_dir,
                "max_steps": self.max_steps,
            }

    def close(self) -> None:
        for pipeline in self._pipelines.values():
            pipeline.close()

    # ------------------------------------------------------------------
    # Warm state
    # ------------------------------------------------------------------

    def _pipeline(self, method: str):
        """The checking (``check``) or verifying (``verify``) pipeline;
        both share the cache settings."""
        pipeline = self._pipelines.get(method)
        if pipeline is None:
            from ..pipeline import Pipeline

            pipeline = Pipeline(verify=method == "verify", **self._cache_config)
            # A racing thread may have built one first; keep the winner.
            pipeline = self._pipelines.setdefault(method, pipeline)
        return pipeline

    def _session(self, source: str):
        """(session, lock) — or (None, None) when the program does not
        even construct a session (parse/elaboration failure); the
        pipeline then recomputes and reports the diagnostic itself."""
        from ..pipeline import open_session

        key = _sha(source)
        with self._lock:
            entry = self._sessions.get(key)
            if entry is not None:
                self._sessions.move_to_end(key)
                return entry
        session, _ = open_session(source)
        if session is None:
            return None, None
        entry = (session, threading.Lock())
        with self._lock:
            # A racing thread may have built it first; keep the winner so
            # both callers share one session (and one session lock).
            existing = self._sessions.get(key)
            if existing is not None:
                return existing
            while len(self._sessions) >= self._max_sessions:
                self._sessions.popitem(last=False)
            self._sessions[key] = entry
        return entry

    def _memo_get(self, key) -> Optional[Dict[str, Any]]:
        with self._lock:
            hit = self._memo.get(key)
            if hit is not None:
                self._memo.move_to_end(key)
                self.registry.inc("server.memo.hits")
                return hit
            self.registry.inc("server.memo.misses")
        return None

    def _memo_put(self, key, result: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            while len(self._memo) >= self._max_memo:
                self._memo.popitem(last=False)
            self._memo[key] = result
        return result


def _sha(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()
