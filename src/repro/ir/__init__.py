"""Compilation of checked FCL to a basic-block IR and bytecode.

Pipeline: ``lang/ast.py`` → :mod:`repro.ir.lower` (lowering with
lowering-time guard erasure) → :mod:`repro.ir.passes` (PassManager, one
pass list for both tiers: inlining, simplification, DCE, simplification,
constant pooling, register allocation) → :mod:`repro.ir.bytecode` (flat
linear bytecode, cached per program and in a shared cross-program LRU)
→ :mod:`repro.ir.engine` (the dispatch loop, protocol-compatible with
the small-step machine).

Select it at the surface with ``repro run --engine ir`` (or
``engine="ir"`` through :func:`repro.api.run`, the ``run`` RPC — where
it is the default — and ``runtime.machine.run_function``/``Machine``).
``repro disasm FILE`` dumps the bytecode with per-pass attribution.
"""

from .bytecode import (
    CompiledModule,
    build_module,
    clear_compile_cache,
    compile_cache_entries,
    compile_program,
    set_compile_cache_limit,
)
from .engine import IREngine
from .lower import lower_function
from .nodes import BasicBlock, Instr, IRFunction, render_function
from .passes import IRModule, PassManager, default_pipeline

__all__ = [
    "BasicBlock",
    "CompiledModule",
    "IREngine",
    "IRFunction",
    "IRModule",
    "Instr",
    "PassManager",
    "build_module",
    "clear_compile_cache",
    "compile_cache_entries",
    "compile_program",
    "default_pipeline",
    "lower_function",
    "render_function",
    "set_compile_cache_limit",
]
