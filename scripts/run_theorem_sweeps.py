#!/usr/bin/env python3
"""Run the full verification sweeps at their default desk-scale ranges.

Covers the three bound-violation families, the impurity property, and the
validity checks for the bounds that do hold. Exits nonzero if any instance
fails its per-row assertions, and exits 2 on invalid parameters.
"""

import argparse
import sys
import time
from contextlib import closing

from qlrc import InvalidParameter, Sweep, SweepSpec, prime_powers

SWEEPS = [
    ("thm3", dict(q_limit=64, V_max=9)),
    ("thm4", dict(q_values=(3, 5, 7, 9, 11, 13))),
    ("thm5", dict(q_values=(3, 5, 7, 9, 11, 13))),
    ("prop_impure", dict(q_limit=16)),
    ("rem_valid", dict(q_limit=64, H_max=9, V_max=9)),
]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--budget", type=int, default=None,
                        help="enumeration budget for per-row oracles")
    args = parser.parse_args(argv)

    failed = 0
    for mode, cfg in SWEEPS:
        qs = cfg.get("q_values") or prime_powers(cfg["q_limit"])
        spec = SweepSpec(mode=mode, q_values=qs,
                         H_max=cfg.get("H_max"), V_max=cfg.get("V_max"),
                         budget=args.budget, jobs=args.jobs, collect=True)
        start = time.monotonic()
        try:
            with closing(Sweep(spec)) as sweep:
                for _ in sweep:
                    pass
        except InvalidParameter as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        elapsed = time.monotonic() - start
        status = "FAILED" if sweep.failures else "ok"
        print(f"{mode:12s} rows={sweep.count:5d} skipped={sweep.skipped:4d} "
              f"failures={len(sweep.failures):3d} {elapsed:6.2f}s {status}")
        for (q, H, V, a, b), message in sweep.failures:
            print(f"  FAIL q={q} H={H} V={V} a={a} b={b}: {message}",
                  file=sys.stderr)
        failed += len(sweep.failures)
    return 4 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
