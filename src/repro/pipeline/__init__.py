"""Incremental check/verify pipeline.

Batch orchestration for the prover–verifier stack: per-function checks
and verifications against one parsed, elaborated program, and a
persistent content-addressed certificate cache that turns repeat runs
into cheap certificate replays (``--cache DIR``) or pure hash lookups
(``--trust-cache``).  See ``docs/PERFORMANCE.md`` for the cache-key
recipe and the determinism contract.
"""

from .batch import discover, run_batch
from .cache import (
    CacheEntry,
    CertCache,
    ProgramFingerprints,
    callees_of,
    profile_tag,
    struct_fingerprint,
)
from .runner import ErrorInfo, FunctionResult, Pipeline, ProgramResult
from .session import ProgramSession

__all__ = [
    "CacheEntry",
    "CertCache",
    "ErrorInfo",
    "FunctionResult",
    "Pipeline",
    "ProgramFingerprints",
    "ProgramResult",
    "ProgramSession",
    "callees_of",
    "discover",
    "profile_tag",
    "run_batch",
    "struct_fingerprint",
]
