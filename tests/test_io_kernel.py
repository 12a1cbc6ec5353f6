"""The array formatter behind the grid and path writers against '%.17g'.

Every value is compared with Python's own ``'%.17g' % x``, one cell at a
time; the inputs are the ones where a 17-digit conversion goes wrong
first: random bit patterns, powers of ten and their neighbours, exact
18-digit ties, subnormals, non-finite values and the edges of the fast
path's range.
"""
import json
import math
import os
from types import SimpleNamespace

import hypothesis.extra.numpy as hnp
import numpy as np
from hypothesis import given, settings, strategies as st

import oracles
from subdiff import io as artifact_io
from subdiff import ScaledLaplacian, solve_fractional
from subdiff.cli import load_config, main
from subdiff.io import grid_density_csv, paths_csv, scalar_fallbacks
from subdiff.timechange import GridDensity

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def _render(values):
    """The writers' text of each value: one path, one line per value."""
    v = np.asarray(values, dtype=float).reshape(-1)
    ens = SimpleNamespace(grid=np.zeros(v.size), paths=v.reshape(1, -1, 1),
                          n_paths=1)
    lines = paths_csv(ens).split("\n")
    assert lines[0] == "path_id,t,value" and lines[-1] == ""
    # every line starts "0,0," (path 0 at t 0)
    return [line[4:] for line in lines[1:-1]]


def _assert_matches(values):
    v = np.asarray(values, dtype=float).reshape(-1)
    got = _render(v)
    want = ["%.17g" % x for x in v.tolist()]
    assert len(got) == len(want)
    bad = [(x, g, w) for x, g, w in zip(v.tolist(), got, want) if g != w]
    assert not bad, bad[:5]


def test_random_bit_patterns():
    rng = np.random.default_rng(25)
    n_finite = 0
    for _ in range(8):
        v = np.frombuffer(rng.bytes(8 * 2**17), np.float64)
        v = v[np.isfinite(v)]
        _assert_matches(v)
        n_finite += v.size
    assert n_finite >= 10**6


def test_wide_magnitudes_and_short_values():
    rng = np.random.default_rng(26)
    n = 2**15
    scaled = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-300, 301, n)
    integers = rng.integers(0, 10**17, n).astype(float)
    dyadic = rng.integers(0, 2**53, n) / 2.0 ** rng.integers(0, 80, n)
    _assert_matches(np.concatenate([scaled, integers, -dyadic]))


def test_powers_of_ten_and_their_neighbours():
    p = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
    _assert_matches(np.concatenate(near + [-x for x in near]))


def _ties(n, seed):
    """n doubles a / 2^j, a odd, whose exact decimal a 5^j / 10^j has 18
    significant digits, the last a 5: halfway between two 17-digit
    values."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        a = int(rng.integers(1, 2**53)) | 1
        j = next((j for j in range(1, 80) if len(str(a * 5**j)) == 18), None)
        if j is not None:
            out.append(a / 2**j * (-1) ** len(out))
    return out


def test_exact_ties_round_half_even_through_the_scalar_route(monkeypatch):
    ties = [123456789012345.625, -987654312098765 / 8] + _ties(300, seed=27)
    assert "%.17g" % ties[0] == "123456789012345.62"
    seen = []
    real = artifact_io.format_float
    monkeypatch.setattr(artifact_io, "format_float",
                        lambda x: seen.append(x) or real(x))
    _assert_matches(ties)
    assert set(ties) <= set(seen)
    assert scalar_fallbacks(ties) == len(ties)


EDGE = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e-320,
        2.2250738585072014e-308, 2.2250738585072009e-308,
        1.7976931348623157e308, -1.7976931348623157e308]


def test_edge_values_and_range_limits():
    lo, hi = artifact_io._FAST_MIN, artifact_io._FAST_MAX
    limits = [np.nextafter(x, d) for x in (lo, hi)
              for d in (0.0, np.inf)] + [lo, hi]
    values = EDGE + limits + [-x for x in limits]
    _assert_matches(values)
    outside = [x for x in values if x != 0 and not lo <= abs(x) <= hi]
    assert len(outside) == 14
    assert scalar_fallbacks(outside) == len(outside)


def test_zeros_need_no_scalar_route():
    assert scalar_fallbacks([0.0, -0.0, 1.5, -2.5e-7, 1e100]) == 0
    assert _render([0.0, -0.0]) == ["0", "-0"]


@settings(max_examples=150, deadline=None)
@given(hnp.arrays(np.float64, st.integers(0, 40), elements=st.floats()))
def test_any_float_array_matches(values):
    _assert_matches(values)


@settings(max_examples=40, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=3, max_dims=3,
                                               min_side=0, max_side=5),
                  elements=st.floats()))
def test_paths_writer_matches_per_cell_writer_on_any_floats(paths):
    ens = SimpleNamespace(grid=np.arange(paths.shape[1]) / 7.0, paths=paths,
                          n_paths=paths.shape[0])
    assert paths_csv(ens) == oracles.paths_csv_cells(ens)


def test_blocks_split_a_long_line_and_a_long_row():
    # more cells per line and per row than one block holds
    rng = np.random.default_rng(28)
    block = artifact_io._BLOCK_CELLS
    wide = SimpleNamespace(grid=np.array([0.0, 0.5]),
                           paths=rng.standard_normal((1, 2, block + 3)),
                           n_paths=1)
    assert paths_csv(wide) == oracles.paths_csv_cells(wide)
    x = np.linspace(-1.0, 1.0, block + 5)
    gd = GridDensity([0.25], x, rng.standard_normal((1, x.size)), [0.0])
    assert grid_density_csv(gd) == oracles.grid_density_csv_cells(gd)


def test_cli_solve_writes_the_per_cell_bytes(tmp_path):
    with open(os.path.join(CONFIGS, "bm_beta05.json")) as fh:
        body = json.load(fh)
    body["solver"].update(n_t=60, n_x=90)
    cfg = tmp_path / "bm.json"
    cfg.write_text(json.dumps(body))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    gd = solve_fractional(ScaledLaplacian(0.5), 0.5,
                          load_config(str(cfg))["solver"])
    written = (out / "solution.csv").read_text()
    assert written == oracles.grid_density_csv_cells(gd)
