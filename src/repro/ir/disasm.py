"""Human-readable dumps of the compiled bytecode — ``repro disasm``.

The disassembly is the linear, post-flatten form: exactly the tuples the
engine dispatches, before call-target linking (so calls print function
names, not object ids).  Above the code, the dump reports what the
optimizer did to get there — one line per pass that changed a counter,
straight from :attr:`IRModule.pass_log` — which is the fastest way to
answer "why is this load gone?" or "was this call inlined?".

``optimize=False`` dumps the lowering output untouched (the ``--no-opt``
baseline); diffing the two dumps for one function is the intended
workflow.
"""

from __future__ import annotations

from typing import List, Optional

from ..lang import ast
from .bytecode import OPCODE_NAMES, BytecodeFunc, build_module, flatten


def disassemble(
    program: ast.Program,
    checked: bool = True,
    observable: bool = False,
    optimize: bool = True,
    function: Optional[str] = None,
) -> str:
    """Render the program's bytecode as text.

    ``function`` restricts the dump to one function (the pass summary
    always covers the whole module — passes run module-wide).  Raises
    :class:`KeyError` when ``function`` names nothing in the program.
    """
    module = build_module(program, checked, observable, optimize=optimize)
    names = [function] if function is not None else sorted(module.funcs)
    if function is not None and function not in module.funcs:
        raise KeyError(function)

    lines: List[str] = []
    tier = "full" if module.full else "checked"
    if module.observable:
        tier += "+traced"
    lines.append(
        f"; tier={tier} optimize={'on' if optimize else 'off'}"
    )
    if optimize:
        for name, delta in module.pass_log:
            changed = " ".join(
                f"{key}+{value}" for key, value in sorted(delta.items())
            ) or "(no effect)"
            lines.append(f"; pass {name}: {changed}")
    for name in names:
        fn = module.funcs[name]
        compiled = flatten(fn, program, checked)
        lines.append("")
        lines.extend(_render_func(compiled))
    return "\n".join(lines) + "\n"


def _render_func(func: BytecodeFunc) -> List[str]:
    lines = [
        f"func {func.name} (params={func.nparams} slots={func.nslots} "
        f"code={len(func.code)})"
    ]
    pooled = [
        (slot, value)
        for slot, value in enumerate(func.blank)
        if value is not None
    ]
    for slot, value in pooled:
        lines.append(f"  pool  s{slot} = {value!r}")
    for offset, ins in enumerate(func.code):
        name = OPCODE_NAMES.get(ins[0], f"op{ins[0]}")
        operands = " ".join(_operand(part) for part in ins[1:])
        lines.append(f"  {offset:4d}  {name:<8s} {operands}".rstrip())
    return lines


def _operand(part) -> str:
    if isinstance(part, (tuple, list)):
        return "(" + " ".join(_operand(p) for p in part) + ")"
    if isinstance(part, str):
        return part
    return repr(part)


__all__ = ["disassemble"]
