"""Repo-wide pytest configuration.

The destructive-read baseline (``repro.baselines.destructive``, experiment
E6) recurses in Python once per list node, and
``benchmarks/test_writes.py`` runs it on 1,024-node lists: past CPython's
default recursion limit of 1,000.  The FCL engines need no raised limit —
the small-step machine and the bytecode engine keep FCL calls on their own
stacks — and the Tier-1 tests pass at the default.
"""

import sys

sys.setrecursionlimit(10_000)
