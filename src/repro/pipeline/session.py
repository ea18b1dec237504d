"""A parsed/elaborated program shared across the whole check/verify stack.

A :class:`ProgramSession` does the program-level work exactly once —
parse once per file, elaborate the function-type table once per
program — and hands the shared objects to both the prover and the
verifier.  That is what lets :class:`~repro.pipeline.Pipeline` check and
verify hundreds of functions one by one without paying the
program-level costs hundreds of times, and what lets warm callers (the
daemon's session LRU, :class:`repro.api.Session`) pass one session to
many runs.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.checker import CHECKER_VERSION, Checker, CheckProfile, DEFAULT_PROFILE
from ..core.derivation import FuncDerivation
from ..core.functypes import FuncType
from ..lang import ast, parse_program
from ..verifier import Verifier
from .cache import ProgramFingerprints


class ProgramSession:
    """One program, parsed and elaborated once, with a shared checker,
    verifier, and cache-key fingerprinter hanging off it."""

    def __init__(
        self,
        source: str,
        program: Optional[ast.Program] = None,
        profile: CheckProfile = DEFAULT_PROFILE,
        record: bool = True,
        version: str = CHECKER_VERSION,
    ):
        self.source = source
        self.program = program if program is not None else parse_program(source)
        self.profile = profile
        self.version = version
        self.checker = Checker(self.program, profile=profile, record=record)
        self.verifier = Verifier(self.program, functypes=self.checker.functypes)
        self._fingerprints: Optional[ProgramFingerprints] = None

    @property
    def functypes(self) -> Dict[str, FuncType]:
        return self.checker.functypes

    @property
    def fingerprints(self) -> ProgramFingerprints:
        if self._fingerprints is None:
            self._fingerprints = ProgramFingerprints(
                self.program, profile=self.profile, version=self.version
            )
        return self._fingerprints

    def function_names(self) -> List[str]:
        """Sorted, matching the order ``Checker.check_program`` checks in
        (and therefore which type error a serial run reports first)."""
        return sorted(self.program.funcs)

    def function_key(self, name: str) -> str:
        return self.fingerprints.key(name)

    def check_function(self, name: str) -> FuncDerivation:
        return self.checker.check_function(name)

    def verify_function(self, fd: FuncDerivation) -> int:
        return self.verifier.verify_function(fd)
