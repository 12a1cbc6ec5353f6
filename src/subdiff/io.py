"""Deterministic artifact writers: CSV payloads with JSON provenance sidecars.

Numbers are formatted with %.17g (17 significant digits: enough to
round-trip every double, though not always the shortest string that
does), no timestamps go into payloads, and every file lands via
write-then-rename, so re-running a configuration with the same seed
reproduces byte-identical CSVs and no partial artifact survives a failure.

The grid and path writers render whole arrays, ``_BLOCK_CELLS`` cells at
a time, through one kernel (``_cells``); their bytes are those of
``format_float`` on every cell on its own (``tests/oracles.py`` keeps that
per-cell writer as the reference).

- *Digits.* A value x with ``_FAST_MIN`` <= |x| <= ``_FAST_MAX`` is scaled
  to y = |x| 10^(16 - e), e = floor(log10 |x|), as a double-double
  p + lo. 10^k is a two-double table built with integer arithmetic,
  exact to 2^-106 relative, and the product is Dekker's split and
  two-product, exact because numpy does not fuse multiply-adds. The
  error of y is then below 1e-14. Where y >= 10^16, p >= 2^53 is an
  integer, so the 17 digits are D = p + floor(lo), plus one when the
  fraction of lo is above one half; a D of 10^17 carries into e.
- *Fallback.* ``format_float`` itself takes nan, +-inf, magnitudes
  outside the range (subnormals among them), and every value whose
  fraction lies within ``_TIE_MARGIN`` (1e-9) of one half, whose y is
  below 10^16 + 1e-9 (log10 rounded e up) or whose D exceeds 10^17 (log10
  rounded e down). So the fast path never decides a tie, which %.17g
  breaks to even, and where it answers the true y lies on the same side
  of every rounding boundary as its approximation: D and e are exact. A
  y in [10^17 - 1/2, 10^17 + 1/2) rounds to the carried D either way.
  0 and -0 need no digits.
- *Text.* Every %.17g text the fast path writes is a subsequence of one
  52-column template (``_CELL_TEMPLATE``), and which columns it keeps
  depends only on its sign, its layout (fixed notation for
  -4 <= e < 17, else d.ddde+-XX) and its count of significant digits:
  one row of a precomputed table. Each block is one byte matrix of whole
  lines, the axis texts and separators included, and its kept bytes,
  taken in order, are the block's text.
"""
from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile

import numpy as np

__all__ = [
    "atomic_write",
    "format_float",
    "paths_csv",
    "grid_density_csv",
    "table_csv",
    "provenance",
    "scalar_fallbacks",
    "write_artifact",
]


def format_float(x: float) -> str:
    return "%.17g" % float(x)


def atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# cells per rendering block: a block's byte matrices then stay in cache
# (2^14 cells and more ran slower on a 401 x 400 grid, 2^12 no faster)
_BLOCK_CELLS = 1 << 13
# the fast path's magnitudes, and its distance from a tie or a decade
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_TIE_MARGIN = 1e-9
# the exponents k of the 10^k table
_K_MIN, _K_MAX = -270, 300
_D_MIN, _D_MAX = 10**16, 10**17
# Every %.17g text of the fast path is a subsequence of one cell of this
# template, and the cell's last column is its separator (a comma, or the
# line's newline): the sign, the digits before the point, the "0" of
# 0.xxx, the point, up to three zeros after it, the digits after them,
# then e, the exponent's sign and three exponent digits ("." marks
# columns never kept). A cell is 52 columns and starts on a multiple of
# four bytes, so that digits 1..16 of each digit run are four aligned
# uint32 stores of four digits each; the zeros and digit 0 of the second
# run are one more, of "000" and that digit.
_CELL_TEMPLATE = np.frombuffer(b"..-" + b"?" * 17 + b"..0.000" + b"?" * 17
                               + b"e????..,", np.uint8)
_CELL = _CELL_TEMPLATE.size
_SIGN, _RUN1, _LEAD, _POINT, _ZEROS, _RUN2, _EXP = 2, 3, 22, 23, 24, 27, 44
# the longest %.17g text ("-1.7976931348623157e+308")
_TEXT = 24


def _split(a):
    """Dekker's split: a = hi + lo, each half of 26 bits or fewer."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _pow10():
    """(hi, lo, hi_hi, hi_lo) over k in [_K_MIN, _K_MAX]: hi + lo is
    10^k to 2^-106 relative, hi its correctly rounded double and
    hi_hi + hi_lo its split; Python's int arithmetic is exact and its
    int true division correctly rounded."""
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k >= 0:
            hi.append(float(10**k))
            lo.append(float(10**k - int(hi[-1])))
        else:
            q = 10**-k
            hi.append(1 / q)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * q) / (den * q))
    hi = np.array(hi)
    tables = (hi, np.array(lo), *_split(hi))
    for t in tables:
        t.flags.writeable = False
    return tables


def _digits(x):
    """(D, e, ok) for 0 < x in [_FAST_MIN, _FAST_MAX]: x rounds to
    D 10^(e - 16) at 17 significant digits, D in [10^16, 10^17), where ok
    holds (the module docstring has the argument)."""
    k = 16 - np.floor(np.log10(x)).astype(np.int64)
    hi, lo, hi_hi, hi_lo = (t[k - _K_MIN] for t in _pow10())
    p = x * hi
    xh, xl = _split(x)
    y_lo = (((xh * hi_hi - p) + xh * hi_lo + xl * hi_hi) + xl * hi_lo
            + x * lo)
    whole = np.floor(y_lo)
    frac = y_lo - whole
    n = p.astype(np.int64) + whole.astype(np.int64)
    d = n + (frac > 0.5)
    ok = ((np.abs(frac - 0.5) >= _TIE_MARGIN) & (d <= _D_MAX)
          & ((n - _D_MIN) + frac >= _TIE_MARGIN))
    carry = d == _D_MAX
    d[carry] = _D_MIN
    return d, 16 - k + carry, ok


_ZERO_LAYOUT = 23


def _keep_table():
    """The kept template columns of a text, one row per (sign bit,
    layout, significant digits): ``row = (sign * 24 + layout) * 18 +
    n_sig``. Layouts 0..20 are fixed notation for exponents -4..16, 21
    and 22 exponent notation with a 2- and a 3-digit exponent, and 23 is
    a zero."""
    neg, layout, n_sig = (a.reshape(-1, 1) for a in np.meshgrid(
        np.arange(2), np.arange(24), np.arange(18), indexing="ij"))
    e = layout - 4
    fixed = layout <= 20
    small = fixed & (e < 0)
    whole = np.where(fixed, np.maximum(e + 1, 0), 1)
    j = np.arange(17)
    keep = np.zeros((len(e), _CELL), bool)
    keep[:, _SIGN:_SIGN + 1] = neg == 1
    keep[:, _RUN1:_RUN1 + 17] = j < whole
    keep[:, _LEAD:_LEAD + 1] = small
    keep[:, _POINT:_POINT + 1] = n_sig > whole
    keep[:, _ZEROS:_ZEROS + 3] = np.arange(3) < np.where(small, -e - 1, 0)
    keep[:, _RUN2:_RUN2 + 17] = (j >= whole) & (j < n_sig)
    keep[:, _EXP:_EXP + 5] = ~fixed & [True, True, False, True, True]
    keep[:, _EXP + 2:_EXP + 3] = layout == 22
    zero = (layout == _ZERO_LAYOUT).ravel()
    keep[zero, _RUN1:] = False
    keep[zero, _LEAD] = True
    keep[:, -1] = True
    return keep


# one void item per row, so that a row is copied as one item
_KEEP = _keep_table().view(f"V{_CELL}")[:, 0]
# '%04d' of 0..9999 as four bytes in one uint32
_QUAD_DIGITS = (np.arange(10**4)[:, None] // np.array([1000, 100, 10, 1])
                % 10).astype(np.uint8)
_QUADS = (_QUAD_DIGITS + ord("0")).view(np.uint32).reshape(-1)
# the significant digits of D when its last nonzero digit is in quad q
# (digits 1..4, 5..8, 9..12, 13..16) at that quad's value; 1 for a zero
_LAST_NONZERO = 3 - np.argmax(_QUAD_DIGITS[:, ::-1] != 0, axis=1)
_N_SIG = [np.where(np.arange(10**4) > 0, 4 * q + 2 + _LAST_NONZERO,
                   1).astype(np.int8) for q in range(4)]


def _classify(v):
    """(D, e, zero, scalar) for the 1-D array v: ``_digits`` of every
    value (of 1 where |v| is out of range), where v is 0 or -0, and the
    indices that ``format_float`` formats."""
    a = np.abs(v)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    d, e, ok = _digits(np.where(fast, a, 1.0))
    zero = a == 0
    return d, e, zero, np.flatnonzero(~(fast & ok | zero))


def scalar_fallbacks(values) -> int:
    """How many of ``values`` the grid and path writers format one by
    one with ``format_float`` (ties, non-finite values, subnormals and
    magnitudes outside the fast path's range)."""
    return _classify(np.ravel(np.asarray(values, dtype=np.float64)))[3].size


def _cells(v, chars, keep):
    """Fill the (v.size, _CELL) views ``chars``, which hold
    ``_CELL_TEMPLATE`` on entry and start on a multiple of four bytes,
    and ``keep``: the kept characters of row r, in order, are
    ``format_float(v[r])`` and its separator. Returns the rows formatted
    by ``format_float`` itself, whose ``chars`` no longer hold the
    template."""
    d, e, zero, slow = _classify(v)
    c0 = d // 10**16
    hi, lo = np.divmod(d - c0 * 10**16, 10**8)
    # digits 1-4, 5-8, 9-12 and 13-16 of D
    groups = (*np.divmod(hi, 10**4), *np.divmod(lo, 10**4))
    quads = [_QUADS[g] for g in groups]
    words = chars.view(np.uint32)
    chars[:, _RUN1] = c0 + ord("0")
    words[:, _ZEROS // 4] = _QUADS[c0]
    for i, q in enumerate(quads):
        words[:, (_RUN1 + 1) // 4 + i] = q
        words[:, (_RUN2 + 1) // 4 + i] = q
    chars[:, _EXP + 1] = np.where(e < 0, ord("-"), ord("+"))
    chars[:, _EXP + 2:_EXP + 5] = _QUADS[np.abs(e)].view(np.uint8).reshape(
        -1, 4)[:, 1:]
    n_sig = np.maximum(
        np.maximum(_N_SIG[0][groups[0]], _N_SIG[1][groups[1]]),
        np.maximum(_N_SIG[2][groups[2]], _N_SIG[3][groups[3]]))
    layout = np.where((e >= -4) & (e <= 16), e + 4, 21 + (np.abs(e) >= 100))
    layout[zero] = _ZERO_LAYOUT
    keep.view(_KEEP.dtype)[:, 0] = _KEEP[(np.signbit(v) * 24 + layout) * 18
                                         + n_sig]
    if slow.size:
        text = np.array([format_float(x) for x in v[slow].tolist()],
                        dtype=f"S{_TEXT}").view(np.uint8)
        text = text.reshape(slow.size, _TEXT)
        chars[slow, :_TEXT] = text
        keep[slow, :_TEXT] = text != 0
        keep[slow, _TEXT:-1] = False
    return slow


def _text_table(strings, width):
    """(chars, keep) rows of ``strings`` padded to ``width`` bytes."""
    chars = np.array([s.encode() for s in strings], dtype=f"S{width}")
    chars = chars.view(np.uint8).reshape(len(strings), width)
    return chars, chars != 0


def _lines(header, outer, inner, values) -> str:
    """header, then one line per (o, i) of the (n_outer, n_inner, n_cols)
    array ``values``, o-major: ``outer[o]``, ``inner[i]`` (each ends in
    its own comma), then the line's values joined by commas."""
    n_outer, n_inner, n_cols = values.shape
    out = [header + "\n"]
    if n_outer * n_inner == 0:
        return out[0]
    w_o = max(map(len, outer)) or 1
    w_i = max(map(len, inner)) or 1
    w_i += -(w_o + w_i) % 4
    (o_chars, o_keep), (i_chars, i_keep) = (
        _text_table(outer, w_o), _text_table(inner, w_i))
    cells = [w_o + w_i + j * _CELL for j in range(n_cols)]
    width = w_o + w_i + max(_CELL * n_cols, 1)
    per_line = max(n_cols, 1)
    inner_per = max(1, min(n_inner, _BLOCK_CELLS // per_line))
    outer_per = max(1, _BLOCK_CELLS // (inner_per * per_line))
    # one buffer for every block: the cell templates, and the inner texts
    # while the blocks span the same inner range, are written once
    chars = np.empty((outer_per * inner_per, width), np.uint8)
    keep = np.zeros((outer_per * inner_per, width), bool)
    for at in cells:
        chars[:, at:at + _CELL] = _CELL_TEMPLATE
    chars[:, -1], keep[:, -1] = ord("\n"), True
    inner_written = None
    for o0 in range(0, n_outer, outer_per):
        for i0 in range(0, n_inner, inner_per):
            block = values[o0:o0 + outer_per, i0:i0 + inner_per]
            n_o, n_i = block.shape[:2]
            b_chars, b_keep = chars[:n_o * n_i], keep[:n_o * n_i]
            grids = (b_chars.reshape(n_o, n_i, width),
                     b_keep.reshape(n_o, n_i, width))
            for grid, tab in zip(grids, (o_chars, o_keep)):
                grid[:, :, :w_o] = tab[o0:o0 + n_o, None]
            if inner_written != (i0, n_i):
                for grid, tab in zip(grids, (i_chars, i_keep)):
                    grid[:, :, w_o:w_o + w_i] = tab[None, i0:i0 + n_i]
                inner_written = i0, n_i
            slow = [_cells(block[:, :, j].reshape(-1),
                           b_chars[:, at:at + _CELL], b_keep[:, at:at + _CELL])
                    for j, at in enumerate(cells)]
            out.append(str(b_chars[b_keep], "ascii"))
            for rows, at in zip(slow, cells):
                chars[rows, at:at + _TEXT] = _CELL_TEMPLATE[:_TEXT]
    return "".join(out)


def paths_csv(ensemble) -> str:
    """path_id,t,value rows (value_1..value_n columns for n > 1)."""
    n_paths, n_t, n_dim = ensemble.paths.shape
    if n_dim == 1:
        header = "path_id,t,value"
    else:
        header = "path_id,t," + ",".join(
            f"value_{j + 1}" for j in range(n_dim)
        )
    return _lines(header, [f"{p}," for p in range(n_paths)],
                  [format_float(t) + "," for t in ensemble.grid.tolist()],
                  np.asarray(ensemble.paths, dtype=np.float64))


def grid_density_csv(gd) -> str:
    return _lines("t,x,q", [format_float(t) + "," for t in gd.t_grid.tolist()],
                  [format_float(x) + "," for x in gd.x_grid.tolist()],
                  np.asarray(gd.values, dtype=np.float64)[:, :, None])


def table_csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(
                format_float(v) if isinstance(v, float) else str(v)
                for v in row
            )
        )
    return "\n".join(lines) + "\n"


def provenance(config_obj: dict, seed: int | None = None) -> dict:
    import scipy

    blob = json.dumps(config_obj, sort_keys=True).encode()
    out = {
        "config": config_obj,
        "config_sha256": hashlib.sha256(blob).hexdigest(),
        "package_version": _pkg_version(),
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
    }
    if seed is not None:
        out["seed"] = seed
    return out


def _pkg_version() -> str:
    try:
        from importlib.metadata import version

        return version("subdiff")
    except Exception:
        return "unknown"


def write_artifact(outdir: str, name: str, csv_text: str, meta: dict) -> list[str]:
    """Write name.csv plus name.meta.json; returns the written paths."""
    csv_path = os.path.join(outdir, f"{name}.csv")
    meta_path = os.path.join(outdir, f"{name}.meta.json")
    atomic_write(csv_path, csv_text)
    atomic_write(meta_path, json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return [csv_path, meta_path]
