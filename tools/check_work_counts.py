#!/usr/bin/env python3
"""Gate deterministic work counts against a committed baseline.

Reads the "subsystem counters" table that `psched_campaign --stats` prints
and compares the counters named in a baseline file. Deterministic counters
are exact on any host and at any --jobs level, so this gate cannot be
tripped by timing noise:

  * a count above its baseline is an algorithmic regression: exit 1;
  * a count below its baseline is a win: printed, with a request to lower
    the committed value so the gain is locked in; exit 0.

Baseline format: one `counter value` pair per line; `#` starts a comment.
A counter missing from the table counts as 0 (--stats prints nonzero rows).

Usage:
  psched_campaign SPEC --stats | tools/check_work_counts.py BASELINE
  tools/check_work_counts.py BASELINE STATS_OUTPUT
"""

import sys


def read_baseline(path):
    baseline = {}
    with open(path) as handle:
        for number, line in enumerate(handle, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 2 or not fields[1].isdigit():
                sys.exit("%s:%d: expected 'counter value', got %r" % (path, number, line))
            baseline[fields[0]] = int(fields[1])
    if not baseline:
        sys.exit("%s: no counters to check" % path)
    return baseline


def read_counters(lines):
    counters, in_table = {}, False
    for line in lines:
        if line.startswith("== "):
            in_table = line.startswith("== subsystem counters")
            continue
        fields = line.split()
        if in_table and len(fields) == 3 and fields[2].isdigit():
            counters[fields[0]] = int(fields[2])
    return counters


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__.strip().splitlines()[-1])
    baseline = read_baseline(argv[1])
    if len(argv) == 3:
        with open(argv[2]) as handle:
            counters = read_counters(handle)
    else:
        counters = read_counters(sys.stdin)
    if not counters:
        sys.exit("no subsystem counters table in the input (was --stats passed?)")
    grown = 0
    for name, limit in baseline.items():
        value = counters.get(name, 0)
        if value > limit:
            grown += 1
            print("FAIL %-32s %10d > baseline %d" % (name, value, limit))
        elif value < limit:
            print("shrank %-30s %10d < baseline %d: lower it in %s" % (name, value, limit,
                                                                      argv[1]))
        else:
            print("ok   %-32s %10d" % (name, value))
    return 1 if grown else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
