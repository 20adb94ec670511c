"""Set-up probe: time a fresh process importing eightloop and fitting its default constants.

Every CLI invocation pays this cost.  Prints one JSON line with ``setup_s``.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

start = time.perf_counter()
import eightloop  # noqa: E402

eightloop.default_constants()
setup_s = time.perf_counter() - start

import json  # noqa: E402

print(json.dumps({"setup_s": setup_s}))
