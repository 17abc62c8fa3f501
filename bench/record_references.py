"""Write references.json: the outputs every workload gives on the default seed.

    python3 bench/record_references.py

Run it on the commit whose outputs are the reference.  Every workload
places fixed draws, which --seed only reorders, so the benchmark then
fails any operation, on any seed, whose outputs differ.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402


def main() -> int:
    refs = {}
    for name, cls in workloads.WORKLOADS.items():
        work = cls(BENCH.parent, workloads.RECORD_SEED)
        work.setup()
        result = work.run(work.jobs)
        failed = work.check(result)
        if failed:
            print(f"{name}: checks failed, not recording: {failed}", file=sys.stderr)
            return 1
        refs[name] = work.outputs(result)
        print(f"{name}: {refs[name]}")
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
