"""Dynamic semantics: heap, reservations, if-disconnected, concurrency."""

from .disconnect import DisconnectStats, efficient_disconnected, naive_disconnected
from .heap import Heap, HeapObject
from .machine import (
    DeadlockError,
    Machine,
    MachineError,
    ReservationViolation,
    Thread,
    run_function,
)
from .smallstep import Config
from .values import NONE, UNIT, Loc

__all__ = [
    "Heap",
    "HeapObject",
    "Machine",
    "Thread",
    "run_function",
    "MachineError",
    "ReservationViolation",
    "DeadlockError",
    "efficient_disconnected",
    "naive_disconnected",
    "DisconnectStats",
    "Config",
    "NONE",
    "UNIT",
    "Loc",
]
