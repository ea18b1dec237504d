"""Independent derivation verifier (the Coq-verifier analogue of §5).

Nothing here imports the prover (:mod:`repro.core.checker`): the
verifier re-checks a derivation without trusting how it was found.  To
check and then verify source text, use :func:`repro.api.verify`.
"""

from .verifier import VerificationError, Verifier, context_from_snapshot

__all__ = ["Verifier", "VerificationError", "context_from_snapshot"]
