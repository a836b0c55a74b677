"""Record the SHA-256 of the stdout of every op the workloads can draw.

    python3 perfbench/make_golden.py

Run it only at a commit whose outputs are known good: the benchmark then
counts every op whose stdout differs from these digests as failed.  The
full q <= 32 sweep alone takes about a minute on one core.
"""

from __future__ import annotations

import json
import sys

import harness
import workloads


def main() -> int:
    harness.make_hermetic()
    cli = harness.import_cli()
    golden = {}
    for op in workloads.golden_ops():
        result = harness.invoke(cli, op.argv)
        if result.rc != 0:
            print(f"{' '.join(op.argv)}: exit {result.rc}\n{result.stderr}", file=sys.stderr)
            return 1
        digests = harness.digests(op, result.stdout)
        if op.per_line:
            printed = [json.loads(line) for line in result.stdout.splitlines()]
            labels = [workloads.label("sweep-row", *(r[k] for k in "qHVab")) for r in printed]
            if labels != list(op.keys):
                print("sweep rows differ from the rows the benchmark expects", file=sys.stderr)
                return 1
        golden.update(zip(op.keys, digests))
        print(f"{result.wall:8.3f}s  {op.keys[0] if len(op.keys) == 1 else ' '.join(op.argv)}",
              flush=True)
    with open(harness.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(golden)} digests -> {harness.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
