#!/usr/bin/env python3
"""Run a command and report its wall time and peak resident memory.

Usage: python scripts/peak_rss.py <command> [args...]

The command's output passes through unchanged.  Two lines follow it:
``wall_s = <seconds>`` and ``peak_rss_mb = <MB>``, the largest resident
set of the waited-for child processes (ru_maxrss of RUSAGE_CHILDREN, KiB
on Linux).  Nothing is gated on either number; the exit code is the
command's.
"""

import resource
import subprocess
import sys
import time


def main(argv):
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    start = time.perf_counter()
    code = subprocess.call(argv)
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"wall_s = {wall:.2f}")
    print(f"peak_rss_mb = {peak:.1f}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
