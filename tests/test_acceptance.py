"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS line on
success; a timing criterion is asserted with a monotonic clock.
"""

import json
import time
from fractions import Fraction

from qlrc import (
    BoundInput,
    SweepSpec,
    build_grid_record,
    certify_locality,
    check_theorem,
    cli,
    closed_forms,
    coset_min_weight_bruteforce,
    css_from_grid,
    evaluate_all,
    heavy_row_check,
    hermitian_lift,
    lemma_family,
    make_field,
    min_distance_bruteforce,
    plotkin_profile,
    prime_powers,
    run_sweep,
    thm3_slack_lower_bound,
    valid_a_values,
    valid_b_values,
)
from qlrc.linear_codes import contains, euclidean_dual


def _cli_json(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr().out
    assert rc == 0
    return json.loads(out)


def test_criterion_1_ex1_bruteforce(capsys):
    start = time.monotonic()
    data = _cli_json(capsys, "construct", "--preset", "ex1",
                     "--mode", "bruteforce", "--format", "json")
    grid, css = data["grid"], data["css"]
    assert (grid["n"], grid["k"], grid["d_formula"]) == (15, 8, 3)
    assert grid["coset_d_formula"] == 6
    assert (css["n"], css["k"], css["d"], css["q"]) == (15, 1, 6, 5)
    assert css["pure"] is False
    assert grid["locality"] == [2, 2]
    assert css["source"]["oracle_agreement"] == {"d": True, "coset_d": True}

    rec = build_grid_record(make_field(5), 5, 3, 0, 0)
    cert = certify_locality(rec.code, 2, 2)
    assert len(cert.entries) == 15
    assert sorted(e.coordinate for e in cert.entries) == list(range(15))
    for entry in cert.entries:
        assert len(entry.repair_set) <= 3
        assert entry.coordinate in entry.repair_set
        assert entry.punctured_distance >= 2

    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    print("ACCEPTANCE 1: PASS")


def test_criterion_2_ex2_bound_values():
    reports = evaluate_all(BoundInput(15, 1, 6, 5, 2, 2))
    qs = reports["qsingleton"]
    assert (qs.lhs, qs.rhs, qs.verdict) == (17, 16, "violated")
    gr = reports["griesmer"]
    assert (gr.lhs, gr.rhs, gr.verdict) == (15, 16, "violated")
    pl = reports["plotkin"]
    assert pl.rhs == Fraction(75, 13)
    assert pl.verdict == "violated"
    si = evaluate_all(BoundInput(15, 8, 3, 5, 2, 2))["singleton"]
    assert (si.lhs, si.rhs, si.verdict) == (14, 16, "holds")
    print("ACCEPTANCE 2: PASS")


def test_criterion_3_ex1e_formula():
    start = time.monotonic()
    field = make_field(2, 3, modulus=(1, 1, 0, 1))
    rec = build_grid_record(field, 8, 8, 1, 1)
    assert (rec.n, rec.k, rec.d_formula) == (64, 34, 6)
    css = css_from_grid(rec)
    assert (css.n, css.k, css.d, css.q) == (64, 4, 16, 8)
    assert css.locality == (5, 4)
    qs = evaluate_all(BoundInput(64, 4, 16, 8, 5, 4),
                      only="qsingleton")["qsingleton"]
    assert (qs.lhs, qs.rhs, qs.verdict) == (68, 65, "violated")
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"criterion 3 took {elapsed:.2f}s"
    print("ACCEPTANCE 3: PASS")


def test_criterion_4_rem3_bruteforce():
    start = time.monotonic()
    rec = build_grid_record(make_field(3), 3, 3, 0, 0)
    css = css_from_grid(rec, distance_mode="bruteforce")
    assert (css.n, css.k, css.d, css.q) == (9, 1, 4, 3)
    assert css.pure is False
    assert css.locality == (2, 2)
    reports = evaluate_all(BoundInput(9, 1, 4, 3, 2, 2), only=("gg", "luo"))
    assert reports["gg"].verdict == "holds_with_equality"
    luo = reports["luo"]
    assert (luo.lhs, luo.rhs, luo.verdict) == (8, 10, "holds")
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"criterion 4 took {elapsed:.2f}s"
    print("ACCEPTANCE 4: PASS")


def _grid_instances(qmax, max_words):
    """Every grid instance with q <= qmax and q^|Delta| <= max_words."""
    instances = []
    for q in prime_powers(qmax):
        for H in range(3, q + 1):
            if (q - 1) % (H - 1):
                continue
            for V in range(3, q + 1):
                if (q - 1) % (V - 1):
                    continue
                for a in valid_a_values(H):
                    for b in valid_b_values(V):
                        if q ** closed_forms(H, V, a, b).size <= max_words:
                            instances.append((q, H, V, a, b))
    return sorted(instances)


def _assert_oracles_match_formulas(instances, budget):
    for q, H, V, a, b in instances:
        rec = build_grid_record(make_field(*_split(q)), H, V, a, b)
        d = min_distance_bruteforce(rec.code, budget=budget)
        assert d == rec.d_formula, (q, H, V, a, b, d, rec.d_formula)
        coset = coset_min_weight_bruteforce(rec.code, rec.mirror_code,
                                            budget=budget)
        assert coset == rec.coset_d_formula, (q, H, V, a, b, coset)


def test_criterion_5_oracle_formula_equivalence():
    start = time.monotonic()
    instances = _grid_instances(9, 2 ** 22)
    assert instances == [
        (3, 3, 3, 0, 0), (4, 4, 4, 1, 1), (5, 3, 3, 0, 0), (5, 3, 5, 0, 0),
        (5, 3, 5, 0, 1), (5, 5, 3, 0, 0), (5, 5, 3, 1, 0), (7, 3, 3, 0, 0),
        (7, 3, 4, 0, 1), (7, 4, 3, 1, 0), (9, 3, 3, 0, 0),
    ]
    _assert_oracles_match_formulas(instances, 2 ** 22)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"criterion 5 took {elapsed:.1f}s"
    print("ACCEPTANCE 5: PASS")


def test_oracle_reach_q16():
    """Oracle-formula agreement on every instance with q <= 16 that fits
    2^24 enumerated words."""
    start = time.monotonic()
    instances = _grid_instances(16, 2 ** 24)
    assert instances == [
        (3, 3, 3, 0, 0), (4, 4, 4, 1, 1), (5, 3, 3, 0, 0), (5, 3, 5, 0, 0),
        (5, 3, 5, 0, 1), (5, 5, 3, 0, 0), (5, 5, 3, 1, 0), (7, 3, 3, 0, 0),
        (7, 3, 4, 0, 1), (7, 4, 3, 1, 0), (9, 3, 3, 0, 0), (11, 3, 3, 0, 0),
        (13, 3, 3, 0, 0),
    ]
    _assert_oracles_match_formulas(instances, 2 ** 24)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"oracle reach took {elapsed:.1f}s"


def _split(q):
    p = min(f for f in range(2, q + 1) if q % f == 0)
    m = 0
    while q > 1:
        q //= p
        m += 1
    return p, m


def test_criterion_6_theorem_sweeps():
    start = time.monotonic()

    thm3 = run_sweep(SweepSpec(mode="thm3", q_values=prime_powers(64),
                               V_max=9, collect=True))
    assert thm3.failures == []
    assert thm3.rows, "thm3 sweep produced no instances"
    for row in thm3.rows:
        rep = row.reports["qsingleton"]
        assert rep.verdict == "violated"
        assert rep.slack >= thm3_slack_lower_bound(row.H, row.V, row.k, row.r)

    for mode, bound in (("thm4", "griesmer"), ("thm5", "plotkin")):
        res = run_sweep(SweepSpec(mode=mode, q_values=(3, 5, 7, 9, 11, 13),
                                  collect=True))
        assert res.failures == []
        assert res.rows
        assert all(r.reports[bound].verdict == "violated" for r in res.rows)

    valid = run_sweep(SweepSpec(mode="rem_valid", q_values=prime_powers(64),
                                H_max=9, V_max=9, collect=True))
    assert valid.failures == []
    assert valid.rows
    for row in valid.rows:
        for bid in ("gg", "luo", "sphere_packing"):
            assert row.reports[bid].verdict in ("holds",
                                                "holds_with_equality")

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"criterion 6 took {elapsed:.1f}s"
    print("ACCEPTANCE 6: PASS")


def test_criterion_7_lemma_family():
    start = time.monotonic()
    for m in range(1, 7):
        fam = lemma_family(m)
        assert (fam.code.n, fam.code.k) == (4 * m, 3 * m - 1)
        assert fam.dual_code.k == m + 1
        assert euclidean_dual(fam.code) == fam.dual_code
        assert contains(fam.code, fam.dual_code)  # dual self-orthogonal
        cert = certify_locality(fam.code, 3, 2)
        assert sorted(e.coordinate for e in cert.entries) == list(range(4 * m))
        heavy = heavy_row_check(fam)
        assert (heavy.min_weight, heavy.max_weight) == (2 * m, 2 * m)
        assert heavy.count == 2 ** m
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"criterion 7 took {elapsed:.1f}s"
    print("ACCEPTANCE 7: PASS")


def test_criterion_8_hermitian_lift():
    rem3 = build_grid_record(make_field(3), 3, 3, 0, 0)
    lift3 = hermitian_lift(rem3.code)
    assert lift3.dual_containing
    assert lift3.lifted.field.q == 9
    assert lift3.lifted.k == rem3.code.k == 5
    coset = coset_min_weight_bruteforce(lift3.lifted,
                                        lift3.hermitian_dual_code)
    assert coset == 4

    grid55 = build_grid_record(make_field(5), 5, 5, 0, 0)
    lift5 = hermitian_lift(grid55.code)
    assert lift5.dual_containing
    assert lift5.lifted.field.q == 25
    assert lift5.lifted.k == grid55.code.k == 13
    print("ACCEPTANCE 8: PASS")


def test_criterion_9_exactness_guard():
    reports = list(evaluate_all(BoundInput(15, 1, 6, 5, 2, 2)).values())
    reports += list(evaluate_all(BoundInput(15, 8, 3, 5, 2, 2)).values())
    sweep = run_sweep(SweepSpec(mode="all", q_values=(5,)))
    for row in sweep.rows:
        reports += list(row.reports.values())
    for rep in reports:
        for value in (rep.lhs, rep.rhs, rep.slack):
            assert isinstance(value, (int, Fraction))
            assert not isinstance(value, float)

    plotkin = evaluate_all(BoundInput(15, 1, 6, 5, 2, 2),
                           only="plotkin")["plotkin"]
    assert plotkin.to_json()["rhs"] == {"num": 75, "den": 13}

    for q in (3, 5, 7, 9, 11, 13):
        row = check_theorem("thm5", q, q, 3, 0)  # internal monotonicity assertion
        profile = plotkin_profile(BoundInput(row.n, row.k, row.d, q,
                                             row.r, row.delta))
        values = [val for _, val in profile]
        assert all(x > y for x, y in zip(values, values[1:]))
    print("ACCEPTANCE 9: PASS")
