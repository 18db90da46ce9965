"""One set-up sample in a fresh interpreter: import drgkit, build and save graphs.

    python3 perfbench/setup_probe.py OUT_DIR GRAPH [GRAPH ...]

Prints the seconds taken, not counting interpreter start.
"""

import sys
import time
from pathlib import Path

from workloads import build_graphs

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = time.perf_counter()
    build_graphs(sys.argv[2:], Path(sys.argv[1]))
    print(time.perf_counter() - t0)
