"""CSS parameter bookkeeping and the quadratic-extension lift.

A grid code record carries the pair (code, mirror subcode); the CSS code
built on that pair has length n, dimension 2*dim(code) - n, and distance
equal to the minimum weight of code \\ mirror.  No quantum states are
represented; records hold parameters only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AssertionFailed, InvalidParameter, NotDualContaining
from .gf import FieldPair, quadratic_extension
from .grid_codes import GridCodeRecord, quantum_dimension_formula
from .linear_codes import (
    LinearCode,
    coset_min_weight_bruteforce,
    contains,
    euclidean_dual,
    from_spanning_set,
    hermitian_dual,
    min_distance_bruteforce,
)


@dataclass(frozen=True)
class CssRecord:
    n: int
    k: int
    d: int
    q: int
    pure: bool
    locality: tuple[int, int] | None
    distance_mode: str
    source: dict


def css_from_grid(rec: GridCodeRecord, distance_mode: str = "formula",
                  budget: int | None = None) -> CssRecord:
    if distance_mode not in ("formula", "bruteforce"):
        raise InvalidParameter(f"unknown distance mode {distance_mode!r}")
    n = rec.n
    k = 2 * rec.k - n
    k_formula = quantum_dimension_formula(rec.grid.H, rec.grid.V, rec.dp.a, rec.dp.b)
    if k != k_formula:
        raise AssertionFailed(
            f"quantum dimension mismatch: 2*dim - n = {k}, formula = {k_formula}")

    source = {
        "type": "grid",
        "H": rec.grid.H,
        "V": rec.grid.V,
        "a": rec.dp.a,
        "b": rec.dp.b,
        "plain_dual": rec.plain_dual,
    }
    if distance_mode == "formula":
        d = rec.coset_d_formula
        d_classical = rec.d_formula
    else:
        d = coset_min_weight_bruteforce(rec.code, rec.mirror_code, budget)
        d_classical = min_distance_bruteforce(rec.code, budget)
        if d != rec.coset_d_formula:
            raise AssertionFailed(
                f"coset distance oracle {d} != formula {rec.coset_d_formula}")
        if d_classical != rec.d_formula:
            raise AssertionFailed(
                f"distance oracle {d_classical} != formula {rec.d_formula}")
        source["oracle_agreement"] = {"d": True, "coset_d": True}

    return CssRecord(
        n=n,
        k=k,
        d=d,
        q=rec.grid.q,
        pure=(d_classical == d),
        locality=rec.locality,
        distance_mode=distance_mode,
        source=source,
    )


def css_from_code(code: LinearCode, distance_mode: str = "bruteforce",
                  budget: int | None = None) -> CssRecord:
    """CSS record from a classical code that contains its Euclidean dual,
    measured by brute force; grid codes go through css_from_grid."""
    if distance_mode != "bruteforce":
        raise InvalidParameter("formula mode needs grid parameters")
    dual = euclidean_dual(code)
    if not contains(code, dual):
        raise NotDualContaining(
            "code does not contain its Euclidean dual; no CSS code arises")
    d = coset_min_weight_bruteforce(code, dual, budget)
    d_classical = min_distance_bruteforce(code, budget)
    return CssRecord(
        n=code.n,
        k=2 * code.k - code.n,
        d=d,
        q=code.field.q,
        pure=(d_classical == d),
        locality=None,
        distance_mode="bruteforce",
        source={"type": "code"},
    )


@dataclass(frozen=True)
class LiftResult:
    lifted: LinearCode
    pair: FieldPair
    hermitian_dual_code: LinearCode
    dual_containing: bool


def hermitian_lift(code: LinearCode) -> LiftResult:
    """Span the code over GF(q^2) and test Hermitian dual containment."""
    dual = euclidean_dual(code)
    if not contains(code, dual):
        raise NotDualContaining(
            "code does not contain its Euclidean dual; the lift is not defined")
    pair = quadratic_extension(code.field)
    rows = [pair.embed_vector(code.generator[i]) for i in range(code.k)]
    lifted = from_spanning_set(pair.ext, rows)
    if lifted.k != code.k:
        raise AssertionFailed(
            f"lift changed the dimension: {lifted.k} != {code.k}")
    hd = hermitian_dual(lifted)
    return LiftResult(
        lifted=lifted,
        pair=pair,
        hermitian_dual_code=hd,
        dual_containing=contains(lifted, hd),
    )


def css_record_to_json(rec: CssRecord) -> dict:
    return {
        "n": rec.n,
        "k": rec.k,
        "d": rec.d,
        "q": rec.q,
        "pure": rec.pure,
        "locality": list(rec.locality) if rec.locality is not None else None,
        "distance_mode": rec.distance_mode,
        "source": rec.source,
    }
