"""Seeded inputs for the three benchmark workloads.

Everything here is plain Python and never imports qlrc: the benchmark
decides what a valid instance is and which rows a sweep must print from
the paper's definitions, so the program under test cannot move its own
yardstick.  An op is one CLI command (argv) plus the golden keys its
stdout must match, in output order.

A run draws its ops once, from random.Random(f"{workload}:{seed}"), so the
same seed always gives the same inputs, and repeats them (see run.py).
"""

from __future__ import annotations

import random
from typing import NamedTuple

WORKLOADS = ("sweep", "construct", "oracle")


class Op(NamedTuple):
    argv: tuple[str, ...]
    keys: tuple[str, ...]  # one golden key per stdout line (sweep) or per command

    @property
    def per_line(self) -> bool:
        return self.argv[0] == "sweep"


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % f for f in range(2, int(p**0.5) + 1))


def prime_powers(limit: int) -> list[int]:
    """Prime powers 3 <= q <= limit."""
    out = []
    for q in range(3, limit + 1):
        p = next(f for f in range(2, q + 1) if q % f == 0)
        t = q
        while t % p == 0:
            t //= p
        if t == 1 and _is_prime(p):
            out.append(q)
    return out


def grid_sides(q: int) -> list[int]:
    """Axis sizes N >= 3 with (N - 1) | (q - 1)."""
    return [n for n in range(3, q + 1) if (q - 1) % (n - 1) == 0]


def shape_values(side: int) -> list[int]:
    """Valid a for H = side (and b for V = side): (side-1)%2 <= a < (side-1)/2."""
    return [a for a in range((side - 1) % 2, side) if 2 * a < side - 1]


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _instance_args(q, H, V, a, b) -> list[str]:
    return ["--q", str(q), "--H", str(H), "--V", str(V), "--a", str(a), "--b", str(b)]


def label(kind: str, *params) -> str:
    return f"{kind} {_csv(params)}"


# -- sweep -------------------------------------------------------------------

SWEEP_QMAX = 32
# One CLI call per (q, H), over every V of q, so that every call is short
# and is timed many times in a run.  Each call sweeps two values of a, a
# seeded one from the lower half of H's valid values and its mirror (all of
# them when there are at most two), and b in SWEEP_B.  So every draw has the
# same rows per grid, and the mirrored pairs keep its cost close to every
# other draw's.  Grids with H = 3 allow only a = 0, which keeps the q <= 9
# rows that run brute-force oracles (a = b = 0).
SWEEP_B = (0, 1, 2, 3)


def mirrored(rng: random.Random, values: list[int]) -> list[int]:
    """A seeded value from the lower half of `values` and its mirror."""
    if len(values) <= 2:
        return list(values)
    v = rng.choice(values[: len(values) // 2])
    return [v, values[0] + values[-1] - v]


def sweep_op(q: int, H: int, a_values: list[int]) -> Op:
    argv = ["sweep", "--mode", "all", "--q", str(q), "--H", str(H), "--a", _csv(a_values),
            "--b", _csv(SWEEP_B), "--format", "json", "--jobs", "1"]
    rows = sorted((q, H, V, a, b) for V in grid_sides(q) for a in a_values
                  for b in shape_values(V) if b in SWEEP_B)
    return Op(tuple(argv), tuple(label("sweep-row", *r) for r in rows))


def full_sweep_op() -> Op:
    """Every row of `sweep --mode all` for q <= SWEEP_QMAX, in output order."""
    qs = prime_powers(SWEEP_QMAX)
    argv = ["sweep", "--mode", "all", "--q", _csv(qs), "--format", "json", "--jobs", "1"]
    rows = sorted((q, H, V, a, b) for q in qs for H in grid_sides(q) for V in grid_sides(q)
                  for a in shape_values(H) for b in shape_values(V))
    return Op(tuple(argv), tuple(label("sweep-row", *r) for r in rows))


def _sweep_draw(rng: random.Random) -> list[Op]:
    return [sweep_op(q, H, mirrored(rng, shape_values(H)))
            for q in prime_powers(SWEEP_QMAX) for H in grid_sides(q)]


# -- construct ---------------------------------------------------------------

# Prime fields, p = 2 extensions and odd-p extensions (which run the base-p
# digit loops); (6561, 3, 3) is almost all field construction.  Each grid
# is small enough that one command takes well under a second on one core,
# so a run times each command many times.
CONSTRUCT_LADDER = ((13, 13, 13), (19, 19, 7), (16, 16, 16), (64, 10, 10),
                    (25, 9, 9), (81, 9, 9), (27, 14, 3), (6561, 3, 3))


def construct_op(q, H, V, a, b) -> Op:
    argv = ["construct", *_instance_args(q, H, V, a, b), "--format", "json"]
    return Op(tuple(argv), (label("construct", q, H, V, a, b),))


def _construct_draw(rng: random.Random) -> list[Op]:
    """Two shapes per grid: a seeded (a, b) and its mirror in the valid ranges.

    Cost grows with a and with b, so the pair costs about the same in every
    draw while still varying the code dimension k.
    """
    ops = []
    for q, H, V in CONSTRUCT_LADDER:
        avals, bvals = shape_values(H), shape_values(V)
        a, b = rng.choice(avals), rng.choice(bvals)
        mirror = (avals[0] + avals[-1] - a, bvals[0] + bvals[-1] - b)
        ops += [construct_op(q, H, V, *ab) for ab in sorted({(a, b), mirror})]
    return ops


# -- oracle ------------------------------------------------------------------

# Every grid instance with q <= 9 and q^|Delta| <= 2^22 (acceptance criterion 5).
BRUTEFORCE_INSTANCES = (
    (3, 3, 3, 0, 0), (4, 4, 4, 1, 1), (5, 3, 3, 0, 0), (5, 3, 5, 0, 0),
    (5, 3, 5, 0, 1), (5, 5, 3, 0, 0), (5, 5, 3, 1, 0), (7, 3, 3, 0, 0),
    (7, 3, 4, 0, 1), (7, 4, 3, 1, 0), (9, 3, 3, 0, 0),
)
# The oracle workload runs the instances that take under a second each.
# Commands that enumerate for seconds cannot be timed steadily in one run,
# so it leaves out GF(4) [16,10] (7-13 s) and (5,3,5,0,1)/(5,5,3,1,0)
# (about 2.6 s); golden.json keeps them.  Instances that differ only by
# swapping H with V (and a with b) enumerate the same number of words, and
# a draw runs one of each such pair.
BRUTEFORCE_FIXED = ((3, 3, 3, 0, 0), (5, 3, 3, 0, 0), (7, 3, 3, 0, 0), (9, 3, 3, 0, 0))
BRUTEFORCE_TRANSPOSED = (((5, 3, 5, 0, 0), (5, 5, 3, 0, 0)),
                         ((7, 3, 4, 0, 1), (7, 4, 3, 1, 0)))
LEMMA_M = 6
LOCALITY_QMAX = 16
# grid_lines certification enumerates q^kr words on each of the H columns,
# kr = floor(v + b) + 1; this band keeps each draw well under a second.
LOCALITY_WORDS = (1 << 10, 1 << 16)
LOCALITY_DRAWS = 2  # per field kind: prime, extension


def locality_words(q, H, V, a, b) -> int:
    kr = (V - 1 + 2 * b) // 2 + 1
    return H * q**kr if kr < V else 0


def locality_candidates() -> list[tuple[int, ...]]:
    lo, hi = LOCALITY_WORDS
    out = []
    for q in prime_powers(LOCALITY_QMAX):
        for H in grid_sides(q):
            for V in grid_sides(q):
                for a in shape_values(H):
                    for b in shape_values(V):
                        if lo <= locality_words(q, H, V, a, b) <= hi:
                            out.append((q, H, V, a, b))
    return out


def bruteforce_op(q, H, V, a, b) -> Op:
    argv = ["construct", *_instance_args(q, H, V, a, b), "--mode", "bruteforce",
            "--format", "json"]
    return Op(tuple(argv), (label("bruteforce", q, H, V, a, b),))


def locality_op(q, H, V, a, b) -> Op:
    argv = ["verify-locality", *_instance_args(q, H, V, a, b), "--format", "json"]
    return Op(tuple(argv), (label("verify-locality", q, H, V, a, b),))


def lemma_op(m: int) -> Op:
    return Op(("lemma", "--m", str(m), "--format", "json"), (label("lemma", m),))


def _oracle_draw(rng: random.Random) -> list[Op]:
    chosen = [*BRUTEFORCE_FIXED, *(rng.choice(pair) for pair in BRUTEFORCE_TRANSPOSED)]
    ops = [bruteforce_op(*inst) for inst in sorted(chosen)]
    ops.append(lemma_op(LEMMA_M))
    cands = locality_candidates()
    prime = [c for c in cands if _is_prime(c[0])]
    ext = [c for c in cands if not _is_prime(c[0])]
    for inst in rng.sample(prime, LOCALITY_DRAWS) + rng.sample(ext, LOCALITY_DRAWS):
        ops.append(locality_op(*inst))
    return ops


_DRAWS = {"sweep": _sweep_draw, "construct": _construct_draw, "oracle": _oracle_draw}


def draw(workload: str, seed: int) -> list[Op]:
    """The ops of a run of `workload` under `seed`."""
    return _DRAWS[workload](random.Random(f"{workload}:{seed}"))


def golden_ops() -> list[Op]:
    """Every op any seed can draw, and every criterion-5 instance, for
    recording golden digests."""
    ops = [full_sweep_op()]
    for q, H, V in CONSTRUCT_LADDER:
        ops += [construct_op(q, H, V, a, b) for a in shape_values(H) for b in shape_values(V)]
    ops += [bruteforce_op(*inst) for inst in BRUTEFORCE_INSTANCES]
    ops.append(lemma_op(LEMMA_M))
    ops += [locality_op(*inst) for inst in locality_candidates()]
    return ops
