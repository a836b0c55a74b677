import dataclasses

import pytest

from qlrc import build_code, from_spanning_set, make_delta_params, make_field, make_grid_params
from qlrc.grid_codes import _axis_points, _evaluation_rows, _power_table


@pytest.fixture(scope="session")
def gf2():
    return make_field(2)


@pytest.fixture(scope="session")
def gf3():
    return make_field(3)


@pytest.fixture(scope="session")
def gf4():
    return make_field(2, 2)


@pytest.fixture(scope="session")
def gf5():
    return make_field(5)


@pytest.fixture(scope="session")
def gf7():
    return make_field(7)


@pytest.fixture(scope="session")
def gf8():
    return make_field(2, 3)


@pytest.fixture(scope="session")
def gf9():
    return make_field(3, 2)


def _record(field, H, V, a, b):
    grid = make_grid_params(H, V, field)
    return build_code(grid, make_delta_params(grid, a, b))


@pytest.fixture(scope="session")
def ex1_record(gf5):
    return _record(gf5, 5, 3, 0, 0)


@pytest.fixture(scope="session")
def rem3_record(gf3):
    return _record(gf3, 3, 3, 0, 0)


@pytest.fixture(scope="session")
def ex1e_record(gf8):
    return _record(gf8, 8, 8, 1, 1)


@pytest.fixture(scope="session")
def grid55_record(gf5):
    return _record(gf5, 5, 5, 0, 0)


@pytest.fixture(scope="session")
def without_top_band():
    """A record's copy whose C(Delta) lost the monomials of its top y-degree J."""
    def drop(rec):
        field = rec.grid.field
        X = _power_table(field, _axis_points(field, rec.grid.H))
        Y = _power_table(field, _axis_points(field, rec.grid.V))
        J = max(mono.j for mono in rec.delta)
        rows = _evaluation_rows(field, X, Y, [mono for mono in rec.delta if mono.j < J])
        return dataclasses.replace(rec, code=from_spanning_set(field, list(rows)))

    return drop
