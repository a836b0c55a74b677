"""Layered benchmark for the qlrc command line.

    python3 perfbench/run.py --workload {sweep,construct,oracle} --seed N \
        --seconds S --trace {0,1}

Runs qlrc.cli.main in this process with --jobs 1, as a user runs the CLI,
on the ops drawn from the seed (see workloads.py), in passes until the
next pass would end after S seconds, and checks each op's stdout against
golden.json.  With --trace 0 the last stdout line holds the end-to-end
metrics; with --trace 1 it runs passes untraced for half the time, the
same number again with spans on, and reports the per-layer metrics.
README.md has the metric definitions and the workload reasons.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import harness
import spans
import workloads

SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
MAX_LISTED_FAILURES = 20

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("first_output_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)


class Passes:
    """Repeated passes over one list of ops, keeping every op's lowest cost.

    Other tenants of a shared machine change its speed from one second to
    the next, so each command's time is divided by the reference loop's
    time around it (the mean of the loop run just before and just after),
    and the lowest of these ratios over the passes is the command's cost.
    Costs are reported in seconds on a machine where the loop takes
    harness.REFERENCE_S.
    """

    def __init__(self, ops):
        self.ops = ops
        self.count = 0
        self.wall = 0.0  # seconds inside cli.main, all passes
        self.best_wall = [float("inf")] * len(ops)
        self.best_cost = [float("inf")] * len(ops)
        self.best_first = [float("inf")] * len(ops)
        self.bad_keys: list[set] = [set() for _ in ops]
        self.failures: list[str] = []
        self.stdout_bytes = 0

    def run_once(self, cli, golden) -> None:
        before = harness.reference()
        for i, op in enumerate(self.ops):
            result = harness.invoke(cli, op.argv)
            after = harness.reference()
            loop = (before + after) / 2
            before = after
            self.wall += result.wall
            self.best_wall[i] = min(self.best_wall[i], result.wall)
            self.best_cost[i] = min(self.best_cost[i], result.wall / loop)
            if result.first_output is not None:
                self.best_first[i] = min(self.best_first[i], result.first_output / loop)
            bad = harness.failures(op, result, golden)
            self.bad_keys[i].update(key for key, _ in bad)
            self.failures += [f"{key}: {why}" for key, why in bad]
            self.stdout_bytes += len(result.stdout.encode())
        self.count += 1

    def run_for(self, cli, golden, seconds: float) -> None:
        """Whole passes, while the next one is expected to end within `seconds`."""
        start = time.perf_counter()
        while True:
            self.run_once(cli, golden)
            elapsed = time.perf_counter() - start
            if elapsed * (self.count + 1) / self.count > seconds:
                return

    @property
    def attempted(self) -> int:
        return self.count * sum(len(op.keys) for op in self.ops)

    def _good(self) -> int:
        return sum(len(set(op.keys) - bad) for op, bad in zip(self.ops, self.bad_keys))

    def ops_per_s(self) -> float:
        return self._good() / (sum(self.best_cost) * harness.REFERENCE_S)

    def wall_ops_per_s(self) -> float:
        """ops_per_s from the fastest wall times, not scaled by the loop."""
        return self._good() / sum(self.best_wall)

    def first_output_s(self) -> float:
        """Mean over the commands that printed of each one's lowest first-write cost.

        A mean rather than a median: the drawn commands differ in cost by
        two orders of magnitude, and the median of a few of them jumps from
        one command to another when the seed changes the draw.
        """
        printed = [t for t in self.best_first if t != float("inf")]
        return statistics.fmean(printed) * harness.REFERENCE_S if printed else 0.0


def setup_seconds(args) -> float:
    """Median set-up time over fresh interpreters."""
    cmd = [sys.executable, str(harness.BENCH_DIR / "setup_probe.py"),
           args.workload, str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=PROBE_TIMEOUT_S, cwd=harness.ROOT)
        setup, loop = map(float, done.stdout.split()[-2:])
        times.append(setup / loop * harness.REFERENCE_S)
    return statistics.median(times)


def source_identity() -> tuple[str, str]:
    """(commit or 'unknown', SHA-256 over the qlrc sources measured)."""
    digest = hashlib.sha256()
    for path in sorted((harness.SRC / "qlrc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    git = harness.ROOT / ".git"
    commit = "unknown"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.is_file():
                commit = loose.read_text().strip()
            else:
                for line in (git / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + ref):
                        commit = line.split()[0]
        else:
            commit = head
    except OSError:
        pass
    return commit, digest.hexdigest()


def environment() -> dict:
    import numpy  # after make_hermetic, which pins its thread count

    commit, source = source_identity()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "commit": commit, "source_sha256": source}


def write_trace(args, recorder) -> str:
    out_dir = harness.BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(recorder.root.to_json(), fh)
    return str(path.relative_to(harness.ROOT))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    harness.make_hermetic()
    try:
        cli = harness.import_cli()
        golden = harness.load_golden()
    except (harness.MissingSource, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(), sort_keys=True))

    ops = workloads.draw(args.workload, args.seed)
    if args.trace:
        plain = Passes(ops)
        plain.run_for(cli, golden, args.seconds / 2)
        traced = Passes(ops)
        recorder = spans.Recorder()
        recorder.install()
        try:
            for _ in range(plain.count):
                traced.run_once(cli, golden)
        finally:
            recorder.uninstall()
        values = recorder.metrics()
        values["cli.stdout_bytes"] = traced.stdout_bytes
        values["trace.untraced_s"] = plain.wall
        values["trace.overhead_s"] = traced.wall - plain.wall
        units = dict(spans.PER_LAYER)
        runs = (plain, traced)
        print(f"trace tree -> {write_trace(args, recorder)}")
    else:
        setup = setup_seconds(args)
        plain = Passes(ops)
        plain.run_for(cli, golden, args.seconds)
        values = {
            "ops_per_s": plain.ops_per_s(),
            "first_output_s": plain.first_output_s(),
            "setup_s": setup,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
        runs = (plain,)

    attempted = sum(p.attempted for p in runs)
    failed = [msg for p in runs for msg in p.failures]
    print(f"workload={args.workload} seed={args.seed} passes={plain.count} trace={args.trace} "
          f"ops={attempted} failed={len(failed)} error_rate={len(failed) / attempted:.6g} ratio "
          f"wall_ops_per_s={plain.wall_ops_per_s():.6g} 1/s")
    for name, value in values.items():
        print(f"  {name:<50} {value:>16.6g} {units[name]}")
    for msg in failed[:MAX_LISTED_FAILURES]:
        print(f"FAIL {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
