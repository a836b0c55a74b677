"""Theorem checks and parameter sweeps."""

import concurrent.futures
import dataclasses
import hashlib
import importlib.util
import json
from concurrent.futures import Future
from fractions import Fraction
from pathlib import Path

import pytest

from qlrc import (
    BoundInput,
    Sweep,
    SweepSpec,
    VerdictRow,
    check_theorem,
    cli,
    evaluate_all,
    prime_powers,
    thm3_slack_lower_bound,
)
from qlrc.errors import (
    AssertionFailed,
    HypothesisViolated,
    InvalidParameter,
    ParamRangeViolated,
)
from helpers import prime_powers_by_division, row_to_json, run_sweep


def test_prime_powers():
    assert prime_powers(13) == (3, 4, 5, 7, 8, 9, 11, 13)
    assert prime_powers(9, start=2) == (2, 3, 4, 5, 7, 8, 9)
    assert prime_powers(2) == ()


@pytest.mark.parametrize("start", [0, 1, 2, 3, 5])
def test_prime_power_sieve_matches_division(start):
    # the division oracle up to 3000 holds every shorter list as a prefix
    full = prime_powers_by_division(3000, start)
    for limit in range(-2, 3001):
        assert prime_powers(limit, start) == tuple(q for q in full if q <= limit)


def test_sweep_checks_its_q_list_by_one_sieve(monkeypatch):
    import qlrc.verifier as verifier

    calls = []
    factor = verifier.split_prime_power

    def counted(q):
        calls.append(q)
        return factor(q)

    monkeypatch.setattr(verifier, "split_prime_power", counted)
    sweep = Sweep(SweepSpec(q_values=prime_powers(2**20)))
    sweep.close()
    assert calls == []
    # a q outside the sieve is factored, and raises as before
    with pytest.raises(InvalidParameter, match="^10 is not a prime power$"):
        Sweep(SweepSpec(q_values=(4, 9, 10, 2**20)))
    assert calls == [10]


def test_check_thm3_ex2():
    row = check_theorem("thm3", 5, 5, 3, 0)
    rep = row.reports["qsingleton"]
    assert rep.verdict == "violated"
    assert rep.slack == 1
    assert thm3_slack_lower_bound(row.H, row.V, row.k, row.r) == 1
    assert (row.n, row.k, row.d) == (15, 1, 6)
    assert (row.r, row.delta) == (2, 2)


def test_check_thm3_hypothesis_errors():
    with pytest.raises(HypothesisViolated):
        check_theorem("thm3", 5, 5, 4, 0)  # V even
    with pytest.raises(HypothesisViolated):
        check_theorem("thm3", 4, 4, 3, 1)  # V = 3 needs 2 | q-1
    with pytest.raises(HypothesisViolated):
        check_theorem("thm3", 5, 5, 3, 2)  # a out of range


@pytest.mark.parametrize("H, V, a, b", [
    (5.0, 3, 0, 0),  # non-int H
    (5, 3.0, 0, 0),  # non-int V
    (5, 3, 0.0, 0),  # non-int a
    (4, 3, 0, 0),  # H - 1 does not divide q - 1
    (5, 3, 2, 0),  # a out of range
    (5, 3, -1, 0),  # a below its range
    (2, 3, 0, 0),  # H below 3
], ids=["float H", "float V", "float a", "H divides no q-1", "a too large", "a negative",
        "H below 3"])
def test_check_theorem_refuses_an_invalid_grid_instance(H, V, a, b):
    label = f"(q=5,H={H},V={V},a={a},b={b})"
    with pytest.raises(HypothesisViolated) as info:
        check_theorem("thm3", 5, H, V, a, b)
    assert str(info.value) == f"{label} is not a valid grid instance"


def test_check_thm4_values():
    row = check_theorem("thm4", 7, 7, 3, 1)
    assert (row.n, row.k, row.d) == (21, 3, 6)
    assert row.reports["griesmer"].verdict == "violated"
    row9 = check_theorem("thm4", 9, 9, 3, 0)
    assert (row9.n, row9.k, row9.d) == (27, 1, 10)


def test_check_thm4_hypothesis_errors():
    with pytest.raises(HypothesisViolated):
        check_theorem("thm4", 4, 4, 3, 1)  # even q
    with pytest.raises(HypothesisViolated):
        check_theorem("thm4", 8, 8, 3, 1)
    with pytest.raises(HypothesisViolated):
        check_theorem("thm4", 7, 7, 3, 3)  # a beyond h


def test_check_thm5_closed_forms():
    row13 = check_theorem("thm5", 13, 13, 3, 0)
    assert row13.d == 14
    assert row13.reports["plotkin"].rhs == Fraction(1014, 85)
    row9 = check_theorem("thm5", 9, 9, 3, 0)
    assert row9.reports["plotkin"].rhs == Fraction(729, 82)
    row3 = check_theorem("thm5", 3, 3, 3, 0)
    assert row3.reports["plotkin"].rhs == 3
    with pytest.raises(HypothesisViolated):
        check_theorem("thm5", 8, 8, 3, 0)


def test_check_prop_impure():
    row = check_theorem("prop_impure", 5, 5, 3, 1)
    assert row.impure
    with pytest.raises(HypothesisViolated):
        check_theorem("prop_impure", 5, 5, 3, 0, b=1)


def test_check_rem_valid():
    row = check_theorem("rem_valid", 5, 5, 3, 1)
    for bid in ("gg", "luo", "sphere_packing"):
        assert row.reports[bid].verdict in ("holds", "holds_with_equality")
    with pytest.raises(HypothesisViolated):
        check_theorem("rem_valid", 4, 4, 3, 1)  # H even


def test_sweep_thm4_rows():
    res = run_sweep(SweepSpec(mode="thm4", q_values=(3, 5)))
    assert len(res.rows) == 3
    assert [(r.q, r.a) for r in res.rows] == [(3, 0), (5, 0), (5, 1)]
    assert res.ok
    assert res.rows[0].oracle == {"d": 3, "coset_d": 4, "agree": True}


def test_sweep_covering_ex2e():
    res = run_sweep(SweepSpec(mode="all", q_values=(8,), H_values=(8,),
                              V_values=(8,), a_values=(1,), b_values=(1,)))
    assert len(res.rows) == 1
    rep = res.rows[0].reports["qsingleton"]
    assert (rep.lhs, rep.rhs) == (68, 65)
    assert rep.verdict == "violated"


def test_sweep_skips_invalid_combinations():
    res = run_sweep(SweepSpec(mode="all", q_values=(5,), V_values=(3, 4)))
    assert res.skipped >= 1
    assert all(r.V == 3 for r in res.rows)


def test_sweep_input_validation(monkeypatch):
    import qlrc.verifier as verifier

    def refuse(task):
        raise AssertionError("a row ran before the spec was checked")

    # every check runs when the sweep is created, before its first row
    monkeypatch.setattr(verifier, "_run_one", refuse)
    with pytest.raises(InvalidParameter):
        Sweep(SweepSpec(mode="all", q_values=()))
    with pytest.raises(ParamRangeViolated):
        Sweep(SweepSpec(mode="wrong", q_values=(5,)))
    with pytest.raises(InvalidParameter):
        Sweep(SweepSpec(mode="all", q_values=(5, 6)))
    with pytest.raises(InvalidParameter, match="field order 1048583"):
        Sweep(SweepSpec(mode="all", q_values=(5, 1048583)))
    with pytest.raises(InvalidParameter, match="jobs=0"):
        Sweep(SweepSpec(mode="all", q_values=(5,), jobs=0))
    monkeypatch.setenv("QLRC_BUDGET", "abc")
    with pytest.raises(InvalidParameter, match="QLRC_BUDGET"):
        Sweep(SweepSpec(mode="all", q_values=(5,)))


def test_sweep_jobs_deterministic():
    spec1 = SweepSpec(mode="thm4", q_values=(3, 5, 7), jobs=1)
    spec2 = SweepSpec(mode="thm4", q_values=(3, 5, 7), jobs=2)
    rows1 = [row_to_json(r) for r in run_sweep(spec1).rows]
    rows2 = [row_to_json(r) for r in run_sweep(spec2).rows]
    assert rows1 == rows2


@pytest.mark.parametrize("jobs", [0, -3])
def test_sweep_rejects_jobs_below_one(jobs):
    with pytest.raises(InvalidParameter, match=f"^need jobs >= 1, got jobs={jobs}$"):
        run_sweep(SweepSpec(mode="thm4", q_values=(3, 5, 7), jobs=jobs))


class _RecordingPool:
    """A serial stand-in for ProcessPoolExecutor that records max_workers
    and the size of each submitted chunk."""

    sizes = []
    chunks = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, chunk):
        self.chunks.append(len(chunk))
        future = Future()
        future.set_result(fn(chunk))
        return future


@pytest.mark.parametrize("jobs, cpus, expected", [
    (10**6, 2, [2]),  # capped by the cores
    (10**6, 64, [6]),  # capped by the six thm4 rows
    (2, 64, [2]),
    (10**6, None, []),  # an unknown core count counts as one: no pool
    (1, 64, []),
])
def test_sweep_pool_size_is_capped(monkeypatch, jobs, cpus, expected):
    import qlrc.verifier as verifier

    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(verifier.os, "cpu_count", lambda: cpus)
    spec = SweepSpec(mode="thm4", q_values=(3, 5, 7))
    rows = run_sweep(dataclasses.replace(spec, jobs=jobs)).rows
    assert _RecordingPool.sizes == expected
    assert [row_to_json(r) for r in rows] == [row_to_json(r) for r in run_sweep(spec).rows]


def test_pooled_sweep_submits_a_bounded_window(monkeypatch):
    import qlrc.verifier as verifier

    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(_RecordingPool, "chunks", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(verifier.os, "cpu_count", lambda: 2)
    spec = SweepSpec(mode="all", q_values=(13,), jobs=2)
    sweep = Sweep(spec)
    assert _RecordingPool.sizes == []  # nothing runs before the first row is read
    first = next(iter(sweep))
    # two chunks per worker, and one more once the first chunk is read
    assert _RecordingPool.chunks == [verifier._CHUNK] * 5
    sweep.close()
    assert list(sweep) == []
    expected = run_sweep(dataclasses.replace(spec, jobs=1)).rows
    assert len(expected) > 5 * verifier._CHUNK
    assert row_to_json(first) == row_to_json(expected[0])


def test_sweep_tallies_as_rows_pass():
    sweep = Sweep(SweepSpec(mode="thm4", q_values=(2, 3, 5)))
    rows = iter(sweep)
    next(rows)
    assert (sweep.count, sweep.skipped) == (1, 1)  # q = 2 is skipped
    assert len(list(rows)) == 2
    assert (sweep.count, sweep.skipped, sweep.failures) == (3, 8, [])


def test_sweep_collect_gathers_failures(force_claim):
    force_claim("thm4")
    res = run_sweep(SweepSpec(mode="thm4", q_values=(3, 5), collect=True))
    assert len(res.failures) == 3
    assert not res.ok
    assert all(not r.ok for r in res.rows)
    with pytest.raises(AssertionFailed):
        run_sweep(SweepSpec(mode="thm4", q_values=(3, 5)))


def test_collected_failure_row_keeps_the_closed_forms(monkeypatch):
    import qlrc.verifier as verifier

    spec = SweepSpec(mode="all", q_values=(5, 7, 8), collect=True)
    clean = run_sweep(spec).rows

    def boom(rec, budget):
        raise AssertionFailed("forced failure")

    # a budget no row exceeds sends every row to the oracle
    monkeypatch.setattr(verifier, "oracle_distances", boom)
    failed = run_sweep(dataclasses.replace(spec, budget=10**100)).rows
    fields = ("q", "H", "V", "a", "b", "n", "k", "k_classical", "d",
              "d_classical", "r", "delta", "impure")
    assert len(failed) == len(clean) > 10
    for bad, good in zip(failed, clean):
        assert not bad.ok and good.ok
        assert [getattr(bad, f) for f in fields] == [getattr(good, f) for f in fields]


def test_disagreeing_oracle_exits_4_naming_both_distances(monkeypatch, capsys):
    from qlrc import css

    monkeypatch.setattr(css, "_min_weights", lambda field, aug, n, pivots: (2, 4))
    text = "error: (q=3,H=3,V=3,a=0,b=0) oracle disagrees: d 2 vs 3, coset 4 vs 4\n"
    assert cli.main(["construct", "--preset", "rem3", "--mode", "bruteforce"]) == 4
    assert capsys.readouterr().err == text
    assert cli.main(["sweep", "--q", "3"]) == 4
    assert capsys.readouterr().err == text


def test_sweep_oracle_budget_control():
    res = run_sweep(SweepSpec(mode="thm4", q_values=(3,), budget=1))
    assert res.rows[0].oracle is None
    res2 = run_sweep(SweepSpec(mode="thm4", q_values=(3,), budget=3**5))
    assert res2.rows[0].oracle is not None


def test_sweep_caps():
    res = run_sweep(SweepSpec(mode="thm3", q_values=(13,), V_max=5))
    assert all(r.V <= 5 for r in res.rows)
    assert {r.V for r in res.rows} == {3, 5}
    res_h = run_sweep(SweepSpec(mode="thm3", q_values=(13,), H_max=4, V_max=3))
    assert all(r.H <= 4 for r in res_h.rows)


def test_render_rows_table(capsys):
    def render(rows):
        cli._print_table([cli._SWEEP_HEADERS, *map(cli._sweep_cells, rows)])
        return capsys.readouterr().out

    res = run_sweep(SweepSpec(mode="thm4", q_values=(5,)))
    text = render(res.rows)
    assert "[[15, 1, 6]]_5" in text
    assert text.splitlines()[0].startswith("mode")
    assert render([]).startswith("mode")


def test_row_json_shape():
    res = run_sweep(SweepSpec(mode="thm3", q_values=(5,), V_values=(3,)))
    data = row_to_json(res.rows[0])
    assert data["mode"] == "thm3"
    assert set(data["bounds"]) == {"gg", "luo", "griesmer", "plotkin",
                                   "sphere_packing", "qsingleton", "singleton"}
    assert data["bounds"]["qsingleton"]["verdict"] == "violated"
    assert isinstance(data["ok"], bool)


def test_json_line_is_json_dumps_on_every_row(monkeypatch):
    monkeypatch.delenv("QLRC_BUDGET", raising=False)  # keep the oracle rows
    rows = run_sweep(SweepSpec(mode="all", q_values=prime_powers(13))).rows
    assert any(r.oracle is not None for r in rows)
    assert any(isinstance(r.reports["plotkin"].rhs, Fraction) for r in rows)
    for row in rows:
        assert row.json_line() == json.dumps(row_to_json(row))


def test_json_line_is_json_dumps_on_failure_rows(monkeypatch):
    import qlrc.verifier as verifier

    def boom(row):
        raise AssertionFailed('a "quoted" \\ tab\t and non-ASCII \u00e9 message')

    theorem = verifier._THEOREMS["thm4"]
    monkeypatch.setitem(verifier._THEOREMS, "thm4", theorem._replace(claim=boom))
    rows = run_sweep(SweepSpec(mode="thm4", q_values=(3, 5), collect=True)).rows
    assert rows and all(not r.ok and r.reports == {} for r in rows)
    for row in rows:
        assert row.json_line() == json.dumps(row_to_json(row))


def test_json_line_is_json_dumps_on_fraction_sides():
    # n + k odd makes the qsingleton lhs a half-integer
    reports = evaluate_all(BoundInput(n=16, k=1, d=5, q=3, r=2))
    assert reports["qsingleton"].lhs.denominator == 2
    assert isinstance(reports["plotkin"].rhs, Fraction)
    row = VerdictRow(mode="all", q=3, H=4, V=4, a=0, b=0, n=16, k=1, k_classical=8,
                     d=5, d_classical=3, r=2, delta=2, impure=True, reports=reports,
                     oracle={"d": 3, "coset_d": 5, "agree": True})
    assert row.json_line() == json.dumps(row_to_json(row))


@pytest.mark.parametrize("budget", [0, 1, 2**16, 10**100], ids=["0", "1", "2^16", "10^100"])
def test_oracle_rows_are_those_with_q_to_the_k_within_budget(monkeypatch, budget):
    import qlrc.verifier as verifier

    # stand-ins: only the choice of rows is under test, not the oracle
    monkeypatch.setattr(verifier, "build_grid_record", lambda *args: None)
    monkeypatch.setattr(verifier, "oracle_distances", lambda rec, budget: (0, 0))
    spec = SweepSpec(mode="all", q_values=prime_powers(32), budget=max(budget, 1))
    rows = run_sweep(spec).rows
    if budget < 1:
        # a spec refuses it; 0 is the "no oracle" budget that check_theorem passes
        rows = [verifier._run_one((r.mode, r.q, r.H, r.V, r.a, r.b, budget, False))
                for r in rows]
    chosen = [r.oracle is not None for r in rows]
    assert chosen == [r.q ** r.k_classical <= budget for r in rows]
    assert any(chosen) == (budget > 1)


def test_sweep_rows_sum_few_balls_term_by_term(monkeypatch):
    import qlrc.bounds as bounds

    summed = [0]
    count = bounds._sphere_count

    def counted(m, radius, unit):
        summed[0] += radius < m  # radius >= m is one power, not a sum
        return count(m, radius, unit)

    monkeypatch.setattr(bounds, "_sphere_count", counted)
    per_row = []
    for _ in Sweep(SweepSpec(mode="all", q_values=(64,))):
        per_row.append(summed[0])
        summed[0] = 0
    assert len(per_row) == 2401 and max(per_row) <= 2
    rows = run_sweep(SweepSpec(mode="all", q_values=(127,), H_values=(127,), V_values=(127,),
                               a_values=(0,), b_values=(0,))).rows
    assert len(rows) == 1 and summed[0] == 1


def test_all_mode_runs_matching_layers():
    res = run_sweep(SweepSpec(mode="all", q_values=(5,)))
    assert res.ok
    modes = {(r.H, r.V, r.b) for r in res.rows}
    assert (5, 3, 0) in modes
    assert (3, 5, 0) in modes


def test_thm4_layer_rejects_distance_above_q_squared():
    import qlrc.verifier as verifier

    row = check_theorem("thm4", 3, 3, 3, 0)
    verifier._assert_thm4(row)
    # d = q + 1 - 2a = 10 > q^2 = 9 makes ceil(d/q^2) = 2
    bad = dataclasses.replace(row, a=-3, d=10)
    with pytest.raises(AssertionFailed, match=r"ceil\(d/q\^2\) != 1"):
        verifier._assert_thm4(bad)


def _load_theorem_sweeps():
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_theorem_sweeps.py"
    spec = importlib.util.spec_from_file_location("run_theorem_sweeps", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_theorem_sweep_script_reports_failures(monkeypatch, capsys, force_claim):
    script = _load_theorem_sweeps()
    monkeypatch.setattr(script, "SWEEPS", [("thm4", dict(q_values=(3, 5)))])
    assert script.main([]) == 0

    force_claim("thm4")
    capsys.readouterr()
    assert script.main([]) == 4
    out = capsys.readouterr()
    assert "failures=  3" in out.out and "FAILED" in out.out
    assert "  FAIL q=3 H=3 V=3 a=0 b=0: forced failure" in out.err.splitlines()


@pytest.mark.parametrize("budget", [0, -1])
def test_sweep_rejects_budget_below_one(budget):
    with pytest.raises(InvalidParameter, match=f"^need budget >= 1, got budget={budget}$"):
        Sweep(SweepSpec(mode="all", q_values=(5,), budget=budget))


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_theorem_sweep_script_rejects_jobs_below_one(capsys, jobs):
    script = _load_theorem_sweeps()
    assert script.main(["--jobs", jobs]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: need jobs >= 1, got jobs={jobs}\n"


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_sweep_rejects_jobs_below_one(capsys, jobs):
    assert cli.main(["sweep", "--q", "5", "--jobs", jobs]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: need jobs >= 1, got jobs={jobs}\n"


# SHA-256 of `sweep --mode M --q 3,4,5,7,8,9,11,13 --format json` stdout,
# recorded before the theorem modes were driven by one hypothesis table
_THEOREM_MODE_DIGESTS = {
    "thm3": "be128e89d0c4a152d2c825f46789fe5075d628308561510b89cb547afac6fbba",
    "thm4": "38770b32dbc1580b88568934ce6c6a82e3080a392c13d66a36d80b1a539700cd",
    "thm5": "0e473eab950c009d7121622bc9685db8c84545f9a54f8d186bb5d130138488b1",
    "prop_impure": "91a1a8acdbbf7ec4d514c5b7de16906b74cb8e618b8f3571bdba3635e22493d2",
    "rem_valid": "5c39724ab418a697659dd4d4a0d8e1ee988bb2689142dd2f5fdd9e119d74990d",
}


@pytest.mark.parametrize("mode", sorted(_THEOREM_MODE_DIGESTS))
def test_theorem_mode_output_is_locked(capsys, monkeypatch, mode):
    monkeypatch.delenv("QLRC_BUDGET", raising=False)  # the oracle rows are locked too
    rc = cli.main(["sweep", "--mode", mode, "--q", "3,4,5,7,8,9,11,13",
                   "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _THEOREM_MODE_DIGESTS[mode]


# SHA-256 and row count of `sweep --mode all ARGS --format json` stdout for
# sphere-packing sides past 4,300 digits, recorded before sweep rows were
# written without json
_LARGE_Q_DIGESTS = {
    "--q 61 --H 61 --V 3,61 --a 0,29 --b 0,1":
        ("4d745b51189bb5d11517da0ec8048a4b084f0a049062b9c0aeb6bc4b0151a1bd", 6),
    "--q 127 --H 127 --V 127 --a 0 --b 0":
        ("aa1338b50f6c2ff7e79a88271aa9283183d57045cdbe0f2a0b6e06d218fd558f", 1),
}


@pytest.mark.parametrize("args", sorted(_LARGE_Q_DIGESTS))
def test_large_q_sweep_output_is_locked(capsys, monkeypatch, args):
    monkeypatch.delenv("QLRC_BUDGET", raising=False)
    rc = cli.main(["sweep", "--mode", "all", *args.split(), "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    assert (hashlib.sha256(out.encode()).hexdigest(), out.count("\n")) == _LARGE_Q_DIGESTS[args]


def test_check_theorem_rejects_unknown_modes_and_names_the_instance():
    with pytest.raises(ParamRangeViolated):
        check_theorem("all", 5, 5, 3, 0)
    with pytest.raises(InvalidParameter):
        check_theorem("thm3", 15, 3, 3, 0)  # 15 is not a prime power
    with pytest.raises(HypothesisViolated, match=r"^\(q=5,H=5,V=5,a=0,b=1\) is outside"):
        check_theorem("thm3", 5, 5, 5, 0, b=1)


def test_all_mode_applies_each_claim_on_its_hypothesis(monkeypatch):
    import qlrc.verifier as verifier

    def key(row):
        return (row.q, row.H, row.V, row.a, row.b)

    qs = (5, 9)
    by_mode = {mode: {key(r) for r in run_sweep(SweepSpec(mode=mode, q_values=qs)).rows}
               for mode in verifier._THEOREMS}
    applied = []
    for mode, theorem in list(verifier._THEOREMS.items()):
        def claim(row, mode=mode):
            applied.append((key(row), mode))
        monkeypatch.setitem(verifier._THEOREMS, mode, theorem._replace(claim=claim))
    rows = run_sweep(SweepSpec(mode="all", q_values=qs)).rows
    # table order within a row: thm3, prop_impure, rem_valid, thm4, thm5
    assert applied == [(key(r), mode) for r in rows
                       for mode in verifier._THEOREMS if key(r) in by_mode[mode]]
    assert all(by_mode.values())
