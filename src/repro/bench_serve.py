"""The serve request mix.

``perfbench/inputs.py`` builds its serve-mix request plan from ``MIX``;
nothing in ``src/`` uses it.  The module stays, holding only ``MIX``,
until a benchmark change moves the constant into ``perfbench/``.
"""

#: Deterministic 20-slot request mix (16 check / 3 verify / 1 run).
MIX = ("check",) * 16 + ("verify",) * 3 + ("run",)
