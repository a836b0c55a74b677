"""Time one fresh-interpreter set-up: import qlrc and draw the ops.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the seconds taken and the median time of three reference loops run
after it; run.py starts several of these and reports the median of their
scaled set-up times as setup_s.
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402

import harness  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    harness.make_hermetic()
    harness.import_cli()
    workloads.draw(workload, seed)
    setup = time.perf_counter() - _START
    loop = sorted(harness.reference() for _ in range(3))[1]
    print(setup, loop)


if __name__ == "__main__":
    main()
