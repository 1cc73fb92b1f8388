"""Put the benchmark modules and the checkout's hampack on sys.path.

Run from the checkout root:  python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]
