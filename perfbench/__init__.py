"""perfbench: the repo's end-to-end + per-layer benchmark (see README.md).

Stand-alone: imports only ``repro``'s public modules, NumPy and the
stdlib, and generates its own inputs so that no change under ``src/``
can move the load.
"""

import os

#: the checkout the benchmark sits in, and the package it measures.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
