"""Make the program sources and the benchmark modules importable, the way
``perfbench/run.py`` does.  Run with ``python3 -m pytest perfbench/tests``."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE.parent)]
