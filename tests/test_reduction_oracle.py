"""Block reductions against the loops they replaced, and the number of
field operations a record takes.

`helpers.vsum` and `vprod` reduce a whole axis at once; the reference
folds `vadd` and `vmul` over it one slice at a time.  The witness and
moment oracles in `helpers` are built from them: the vanishing values are
one `vprod` per block, the witness polynomial's coefficients come from the
q-binomial closed form, and evaluation and moments are one `vsum` per
block.  The loops those replaced must agree with them on every small
instance.  `grid_codes` itself proves a record from the band tops and one
check per axis, in a fixed number of field operations.
"""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qlrc import build_grid_record, cli, make_field
from qlrc import grid_codes
from qlrc.gf import FieldSpec, split_prime_power
from qlrc.grid_codes import valid_a_values, valid_b_values
from qlrc.verifier import prime_powers
from helpers import (
    horner,
    inv_derivs,
    moments,
    moments_by_halving,
    outer,
    poly_values,
    root_product,
    root_product_by_loop,
    vanishing_values,
    vanishing_values_by_loop,
    vprod,
    vsum,
    witness,
)
from test_construction_oracle import _expand_root_product

FIELDS = {q: make_field(*split_prime_power(q)) for q in (2, 3, 4, 7, 8, 9, 25, 27)}


@st.composite
def arrays(draw):
    """A field, a 2-D array of its encodings rich in zeros, and an axis."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    values = st.sampled_from([0, 0, 1]) | st.integers(0, field.q - 1)
    xs = np.array(draw(st.lists(values, min_size=rows * cols, max_size=rows * cols)),
                  dtype=np.int64).reshape(rows, cols)
    return field, xs, draw(st.sampled_from((0, 1, -1, -2)))


@given(arrays())
def test_axis_reductions_fold_the_vector_ops(case):
    field, xs, axis = case
    slices = list(np.moveaxis(xs, axis, 0))
    width = len(slices[0])
    assert np.array_equal(vsum(field, xs, axis),
                          reduce(field.vadd, slices, np.zeros(width, dtype=np.int64)))
    assert np.array_equal(vprod(field, xs, axis),
                          reduce(field.vmul, slices, np.ones(width, dtype=np.int64)))


def _sides(q):
    return [N for N in range(3, q + 1) if (q - 1) % (N - 1) == 0]


@pytest.mark.parametrize("q", prime_powers(81))
def test_root_product_has_the_q_binomial_form(q):
    # every axis of GF(q), q <= 81, and every count a witness could take
    field = make_field(*split_prime_power(q))
    for N in _sides(q):
        pts = grid_codes._axis_points(field, N)
        for count in range(1, N - 1):
            got = root_product(field, pts, count)
            assert got.tolist() == _expand_root_product(field, pts[:count]), (N, count)
            assert np.array_equal(got, root_product_by_loop(field, pts[:count]))
            assert got[1:].all()  # Z times a product with no zero coefficient


SMALL = tuple((q, H, V, a, b) for q in prime_powers(16) for H in _sides(q) for V in _sides(q)
              for a in valid_a_values(H) for b in valid_b_values(V))


@pytest.mark.parametrize("q", prime_powers(16))
def test_build_code_matches_the_loops(q):
    field = make_field(*split_prime_power(q))
    for _, H, V, a, b in (inst for inst in SMALL if inst[0] == q):
        rec = build_grid_record(field, H, V, a, b)
        A, B = (H - 1) // 2 + a, (V - 1) // 2 + b
        xs, ys = rec.points
        wx = vanishing_values_by_loop(field, xs, A)
        wy = vanishing_values_by_loop(field, ys, B)
        assert np.array_equal(vanishing_values(field, xs, A), wx)
        assert np.array_equal(vanishing_values(field, ys, B), wy)
        assert np.array_equal(witness(rec).vector, outer(field, wx, wy))
        for pts, count in ((xs, A), (ys, B)):
            coeffs = root_product(field, pts, count)
            assert np.array_equal(coeffs, root_product_by_loop(field, pts[:count]))
            assert np.array_equal(poly_values(field, coeffs, pts), horner(field, coeffs, pts))
            w = inv_derivs(field, pts, len(pts))
            assert np.array_equal(moments(field, pts, w), moments_by_halving(field, pts, w))


_VECTOR_OPS = ("vadd", "vneg", "vsub", "vmul", "vscale", "vpow", "matmul")


def _vector_op_calls(monkeypatch, q, H, V, a, b) -> int:
    """The FieldSpec vector operations build_grid_record calls, not counting
    those one operation calls inside another."""
    field = make_field(*split_prime_power(q))
    calls, depth = [0], [0]

    def counted(op):
        def call(self, *args):
            calls[0] += depth[0] == 0
            depth[0] += 1
            try:
                return op(self, *args)
            finally:
                depth[0] -= 1

        return call

    for name in _VECTOR_OPS:
        monkeypatch.setattr(FieldSpec, name, counted(getattr(FieldSpec, name)))
    build_grid_record(field, H, V, a, b)
    monkeypatch.undo()
    return calls[0]


# Instances of one shape class take the same steps whatever the grid size:
# one vpow makes an axis's points and one checks them, and a square grid's
# two axes are one axis.
_SHAPE_CLASSES = {
    "rectangular": ((13, 13, 7, 2, 1), (64, 64, 10, 2, 2), (256, 256, 18, 2, 2),
                    (6679, 6679, 3, 2, 0)),
    "square": ((13, 13, 13, 2, 0), (64, 64, 64, 2, 1), (256, 256, 256, 2, 1),
               (13, 13, 13, 2, 2), (64, 64, 64, 2, 2), (256, 256, 256, 2, 2)),
}


def test_build_code_takes_a_bounded_number_of_vector_ops(monkeypatch):
    counts = {shape: [_vector_op_calls(monkeypatch, *inst) for inst in insts]
              for shape, insts in _SHAPE_CLASSES.items()}
    assert counts == {"rectangular": [4] * 4, "square": [2] * 6}, counts


def test_a_wrong_closed_form_exits_4(monkeypatch, capsys):
    # the closed-form coset distance one above what ex1's band tops prove
    forms = grid_codes.closed_forms
    monkeypatch.setattr(grid_codes, "closed_forms",
                        lambda *args: forms(*args)._replace(coset_d=forms(*args).coset_d + 1))
    assert cli.main(["construct", "--preset", "ex1"]) == 4
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: (q=5,H=5,V=3,a=0,b=0) band corners give coset d = 6, "
                              "not the closed form 7\n")
