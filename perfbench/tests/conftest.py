"""Self-tests of the benchmark: ``python3 -m pytest perfbench/tests``.

BLAS is pinned before numpy loads, and the benchmark modules and the
package source are put on the path, as ``perfbench/run.py`` does.
"""

import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))
