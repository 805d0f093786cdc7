"""End-to-end, layer-attributed benchmark of the paper's profile pipeline.

See ``README.md`` in this directory for the metrics, the workloads and how
to run it.  Importing the package puts the checkout's ``src`` directory
first on ``sys.path``, so the benchmark always measures the sources it
ships with rather than an installed copy; without them the import fails.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
_SRC = ROOT / "src"

if not (_SRC / "repro").is_dir():
    raise ImportError(f"repro sources not found under {_SRC}; run from a full checkout")
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
