#!/usr/bin/env python3
"""Benchmark of the eitprobe pipeline.

Run from the root of a checkout:

    python3 bench/run.py --workload {desk,tiny} --seed N --seconds S --trace {0,1}

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
line before it records the environment. The full result, and with
``--trace 1`` every span, is written to ``.bench_out/``.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _single_blas_thread() -> None:
    """Run BLAS on one thread; must happen before numpy is imported.

    On a shared 2-core machine a second BLAS thread made the same PDIPM
    solve take 10.6 to 15.2 s over five repeats, against 18.7 to 20.5 s on
    one thread: a waiting thread stalls every dense product whenever its
    core is busy elsewhere.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


if __name__ == "__main__":
    if not (ROOT / "src" / "eitprobe" / "__init__.py").is_file():
        print(f"no eitprobe sources under {ROOT / 'src'}; run from the root "
              "of a checkout", file=sys.stderr)
        sys.exit(2)
    _single_blas_thread()
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    sys.exit(harness.main(sys.argv[1:], ROOT))
