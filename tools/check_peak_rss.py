#!/usr/bin/env python3
"""Run a command and fail if its peak resident set size exceeds a bound.

The peak is the child's ru_maxrss from os.wait4 (KiB on Linux), the same
figure campaignbench/run.py reports as peak_rss_mb. The command's stdout and
stderr pass through; the peak is printed on stderr.

Exit status: the command's own status if it failed, 1 if it succeeded above
the bound, 0 otherwise.

Usage:
  tools/check_peak_rss.py MAX_MIB COMMAND [ARGS...]
"""

import os
import subprocess
import sys


def main(argv):
    if len(argv) < 3:
        sys.stderr.write(__doc__)
        return 2
    try:
        bound = float(argv[1])
    except ValueError:
        sys.stderr.write("check_peak_rss: MAX_MIB wants a number, got '%s'\n" % argv[1])
        return 2
    child = subprocess.Popen(argv[2:])
    _, status, usage = os.wait4(child.pid, 0)
    code = os.waitstatus_to_exitcode(status)
    peak = usage.ru_maxrss / 1024.0
    sys.stderr.write("check_peak_rss: peak RSS %.1f MiB (bound %.1f MiB)\n" % (peak, bound))
    if code != 0:
        return code
    if peak > bound:
        sys.stderr.write("check_peak_rss: FAIL: peak RSS above the bound\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
