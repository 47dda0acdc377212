"""One set-up sample in a fresh interpreter; prints one JSON line.

Usage: python3 setup_probe.py <src-dir> <workload> <seed>

numpy is imported before the clock starts: it is a dependency, and its
import time would drown crsim's own set-up.  The calibration slice before
the set-up also loads ``dataclasses``, ``enum`` and ``typing``.
"""

from __future__ import annotations

import json
import sys
import time

import numpy  # noqa: F401

import calibrate
import jobs
import workloads


def main(argv: list[str]) -> int:
    src, workload, seed = argv[0], argv[1], int(argv[2])
    data = workloads.generate(workload, seed)
    sys.path.insert(0, src)
    before = calibrate.time_slice(calibrate.import_work)
    start = time.perf_counter()
    jobs.set_up(workload, data)
    raw = time.perf_counter() - start
    after = calibrate.time_slice(calibrate.import_work)
    print(json.dumps({"raw_s": raw, "slice_before_s": before, "slice_after_s": after}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
