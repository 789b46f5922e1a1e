import numpy as np
import pytest

from floqex import BZGrid, ModelParams, occupations


def mesh_points(grid):
    """(kx, ky) of every mesh point of ``grid``, in flat order."""
    return grid.point(np.arange(grid.n_sites))


@pytest.fixture(scope="session")
def params():
    return ModelParams()


@pytest.fixture(scope="session")
def grid64():
    return BZGrid.square(64)


@pytest.fixture(scope="session")
def grid128():
    return BZGrid.square(128)


@pytest.fixture(scope="session")
def grid256():
    return BZGrid.square(256)


@pytest.fixture(scope="session")
def occ128(params, grid128):
    return occupations(params, grid128)


@pytest.fixture(scope="session")
def occ256(params, grid256):
    return occupations(params, grid256)
