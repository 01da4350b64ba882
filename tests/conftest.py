"""Child processes started by the tests import the crtcount of this tree.

pytest's `pythonpath` setting reaches only the test process's `sys.path`, so a
`python -m crtcount.cli` child would otherwise find no crtcount, or an
installed one. Isolated (`-I`) children ignore `PYTHONPATH` and are given the
path explicitly.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
