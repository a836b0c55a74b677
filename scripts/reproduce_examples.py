#!/usr/bin/env python3
"""Reproduce the worked examples end to end.

Runs every named preset through the command line interface: constructions
with brute-force cross-checks where feasible, the bound tables for the
derived quantum codes, locality certificates by grid columns and by
exhaustive search, and the binary family.
"""

import argparse
import sys

from qlrc.cli import main as qlrc_main

SECTIONS = [
    ("construct ex1 (brute force)",
     ["construct", "--preset", "ex1", "--mode", "bruteforce"]),
    ("construct ex1e (closed forms)",
     ["construct", "--preset", "ex1e"]),
    ("construct rem3 (brute force)",
     ["construct", "--preset", "rem3", "--mode", "bruteforce"]),
    ("bounds for [[15,1,6]]_5 with locality (2,2)",
     ["bounds", "--n", "15", "--k", "1", "--d", "6",
      "--q", "5", "--r", "2", "--delta", "2"]),
    ("bounds for [[64,4,16]]_8 with locality (5,4)",
     ["bounds", "--n", "64", "--k", "4", "--d", "16",
      "--q", "8", "--r", "5", "--delta", "4"]),
    ("bounds for [[9,1,4]]_3 with locality (2,2)",
     ["bounds", "--n", "9", "--k", "1", "--d", "4",
      "--q", "3", "--r", "2", "--delta", "2"]),
    ("classical Singleton side of ex1",
     ["bounds", "--n", "15", "--k", "8", "--d", "3",
      "--q", "5", "--r", "2", "--delta", "2", "--bound", "singleton"]),
    ("locality certificate for ex1",
     ["verify-locality", "--preset", "ex1", "--r", "2", "--delta", "2"]),
    ("locality certificate for ex1 (exhaustive search)",
     ["verify-locality", "--preset", "ex1", "--r", "2", "--delta", "2",
      "--strategy", "exhaustive"]),
    ("binary family at m=2",
     ["lemma", "--m", "2"]),
]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--format", choices=("table", "json"),
                        default="table")
    args = parser.parse_args(argv)

    for title, cmd in SECTIONS:
        print(f"== {title}")
        rc = qlrc_main(cmd + ["--format", args.format])
        if rc != 0:
            print(f"command failed with exit code {rc}", file=sys.stderr)
            return rc
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
