"""Self-tests of the benchmark: ``python -m pytest bench/tests``.

The repository's own suite (``testpaths = ["tests"]``) does not collect
these; they import the benchmark package and the program from source.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT, ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
