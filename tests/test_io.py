"""Byte contract of the CSV artifact writers.

``paths_csv`` and ``grid_density_csv`` must write exactly the bytes of
the per-cell writers they replaced (``oracles.*_csv_cells``), edge values
included, and the sha256 constants below were taken from those writers
on two fixed inputs.
"""
import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from subdiff.gaussian import PathEnsemble
from subdiff.io import grid_density_csv, paths_csv
from subdiff.timechange import GridDensity

EDGE = (-0.0, 0.0, float("nan"), float("inf"), -float("inf"), 5e-324,
        -5e-324, 1e-320, 1.7976931348623157e308, 0.1, -1.0 / 3.0, 1e22, 1e-7)


def _grid(n_t, n_x, seed, edge=False):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0.0, 5.0, n_t))
    x = np.sort(rng.uniform(-8.0, 8.0, n_x))
    values = rng.standard_normal((n_t, n_x)) * 10.0 ** rng.integers(
        -30, 30, (n_t, n_x))
    if edge:
        flat = values.reshape(-1)
        flat[:len(EDGE)] = EDGE[:flat.size]
    return GridDensity(t, x, values, np.zeros(n_t))


def _ensemble(n_paths, n_t, n_dim, seed):
    rng = np.random.default_rng(seed)
    grid = np.concatenate([[-0.0], np.sort(rng.uniform(0.0, 2.0, n_t - 1))])
    return PathEnsemble(grid, rng.standard_normal((n_paths, n_t, n_dim)))


@pytest.mark.parametrize("n_t, n_x", [(1, 1), (2, 5), (401, 400), (2, 0),
                                      (0, 3)])
def test_grid_density_matches_per_cell_writer(n_t, n_x):
    gd = _grid(n_t, n_x, seed=n_t * 1000 + n_x)
    assert grid_density_csv(gd) == oracles.grid_density_csv_cells(gd)


@pytest.mark.parametrize("shape", [(1, 1), (3, 7)])
def test_grid_density_edge_values(shape):
    gd = _grid(*shape, seed=7, edge=True)
    assert grid_density_csv(gd) == oracles.grid_density_csv_cells(gd)


def test_grid_density_edge_axes():
    # the axes are formatted once each and reused on every row
    t = np.array([-0.0, 5e-324, 1e-320, 0.25])
    x = np.array([-np.inf, -0.0, 5e-324, 1e-320, 1e300, np.inf])
    values = np.resize(np.array(EDGE), (4, 6))
    gd = GridDensity(t, x, values, np.zeros(4))
    assert grid_density_csv(gd) == oracles.grid_density_csv_cells(gd)


@pytest.mark.parametrize("n_paths, n_t, n_dim",
                         [(1, 1, 1), (4, 9, 1), (3, 6, 3), (50, 51, 1),
                          (2, 3, 0)])
def test_paths_match_per_cell_writer(n_paths, n_t, n_dim):
    ens = _ensemble(n_paths, n_t, n_dim, seed=n_paths + 10 * n_dim)
    assert paths_csv(ens) == oracles.paths_csv_cells(ens)


@pytest.mark.parametrize("n_dim", [1, 3])
def test_paths_edge_values(n_dim):
    # PathEnsemble refuses non-finite paths; the writers take any
    # ensemble-shaped object
    paths = np.resize(np.array(EDGE), (2, 5, n_dim))
    ens = SimpleNamespace(grid=np.array([-0.0, 5e-324, 1e-320, 0.5, 1.0]),
                          paths=paths, n_paths=2)
    assert paths_csv(ens) == oracles.paths_csv_cells(ens)


def test_no_paths_writes_the_header_only():
    ens = SimpleNamespace(grid=np.linspace(0.0, 1.0, 3),
                          paths=np.zeros((0, 3, 2)), n_paths=0)
    assert paths_csv(ens) == oracles.paths_csv_cells(ens) == (
        "path_id,t,value_1,value_2\n")


# Inputs built from exact arithmetic only (integers, one division each),
# so their bytes are the same on every platform.
def _fixed_grid():
    t = np.arange(1, 8) / 8.0
    x = np.arange(-5, 6) / 3.0
    k = np.arange(7 * 11).reshape(7, 11)
    values = ((k * 7919) % 1009 - 504) / 37.0
    values[0, :5] = (-0.0, np.nan, np.inf, 5e-324, 1e-320)
    return GridDensity(t, x, values, np.zeros(7))


def _fixed_paths():
    k = np.arange(5 * 6 * 2).reshape(5, 6, 2)
    paths = ((k * 104729) % 2003 - 1001) / 113.0
    paths[0, 0] = (-0.0, 5e-324)
    return PathEnsemble(np.arange(6) / 10.0, paths)


# sha256 of the per-cell writers' output on the two fixed inputs
FIXED_GRID_SHA256 = (
    "eb71867e86674c993feb94150a51bf55e5b2e5f79b53f5c050326df21240162e")
FIXED_PATHS_SHA256 = (
    "bfc140c91097251a9c40b5a112913f98799612f47327fadef23a01e5cde16b9a")


def test_fixed_inputs_keep_their_bytes():
    grid_csv = grid_density_csv(_fixed_grid())
    paths_text = paths_csv(_fixed_paths())
    assert hashlib.sha256(grid_csv.encode()).hexdigest() == FIXED_GRID_SHA256
    assert (hashlib.sha256(paths_text.encode()).hexdigest()
            == FIXED_PATHS_SHA256)
