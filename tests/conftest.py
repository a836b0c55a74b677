import dataclasses

import pytest

from qlrc import build_grid_record, make_field
from qlrc import grid_codes, linear_codes, verifier
from qlrc.errors import AssertionFailed


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


@pytest.fixture(scope="session")
def ex1_record(gf5):
    return build_grid_record(gf5, 5, 3, 0, 0)


@pytest.fixture(scope="session")
def rem3_record(gf3):
    return build_grid_record(gf3, 3, 3, 0, 0)


@pytest.fixture(scope="session")
def ex1e_record(gf8):
    return build_grid_record(gf8, 8, 8, 1, 1)


@pytest.fixture(scope="session")
def grid55_record(gf5):
    return build_grid_record(gf5, 5, 5, 0, 0)


@pytest.fixture(scope="session")
def with_band_hole():
    """A record's copy whose Delta lost band 0, below its last band J.

    Every column's rank drops to the J nonempty bands, one short of J + 1.
    """
    def drop(rec):
        tops = rec.tops.copy()
        tops[0] = -1
        return dataclasses.replace(rec, tops=tops)

    return drop


@pytest.fixture
def no_generator_matrices(monkeypatch):
    """Building, row-reducing or reducing against a generator matrix raises."""
    def refuse(*args, **kwargs):
        raise AssertionError("a generator matrix was built or reduced")

    monkeypatch.setattr(grid_codes, "from_spanning_set", refuse)
    monkeypatch.setattr(linear_codes, "_rref", refuse)
    monkeypatch.setattr(linear_codes, "in_row_space", refuse)


@pytest.fixture
def force_claim(monkeypatch):
    """force_claim(mode) makes that theorem's claim raise "forced failure"."""
    def boom(row):
        raise AssertionFailed("forced failure")

    def force(mode):
        theorem = verifier._THEOREMS[mode]
        monkeypatch.setitem(verifier._THEOREMS, mode, theorem._replace(claim=boom))

    return force
