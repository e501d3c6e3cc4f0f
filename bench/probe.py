"""Set-up probe: import numpy and wrlab, build the presets, report, exit.

Run as `python3 bench/probe.py <src dir>` by run.py, which times it from
process start to the line this prints; the line carries the import time.
"""

import json
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import numpy  # noqa: E402,F401
import wrlab.cli  # noqa: E402,F401
from wrlab import engine  # noqa: E402

imported = time.perf_counter()
engine.study_presets()
print(json.dumps({"import_s": imported - start}), flush=True)
