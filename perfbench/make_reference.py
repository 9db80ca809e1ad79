"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/make_reference.py [workload ...]

Computes, for every pool member of the named workloads (default: all), the
output digest the benchmark compares with, and updates
perfbench/reference.json.  Run it only at a commit whose outputs are trusted:
a later run that differs from these references counts as failed.  The scan
part enumerates all 6561 2x2x2/GF(3) tensors and takes tens of minutes.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

REFERENCE = HERE / "reference.json"


def main(argv):
    names = argv or sorted(WORKLOADS)
    t0 = time.perf_counter()
    parts = {}
    for name in names:
        parts[name] = WORKLOADS[name].reference(
            log=lambda msg, name=name: print(f"{time.perf_counter() - t0:8.1f}s {name} {msg}",
                                              flush=True))
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    ref.update(parts)
    REFERENCE.write_text(json.dumps(ref, indent=0, sort_keys=True) + "\n")
    print(f"wrote {', '.join(names)} to {REFERENCE}")


if __name__ == "__main__":
    main(sys.argv[1:])
