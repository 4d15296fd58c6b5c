"""Times one cold inference set-up in this fresh interpreter: importing the
package, then load_model of both checkpoints.

    python3 perfbench/setup_probe.py DEGLOW.nckp DEHAZE.nckp

Prints {"import_s": ..., "load_s": ...} as JSON.  The runner starts it with
the benchmark's pinned environment and PYTHONPATH.
"""

import json
import sys
import time

start = time.perf_counter()
from nightdehaze.networks import load_model  # noqa: E402

imported = time.perf_counter()
load_model(sys.argv[1])
load_model(sys.argv[2])
loaded = time.perf_counter()
print(json.dumps({"import_s": imported - start, "load_s": loaded - imported}))
