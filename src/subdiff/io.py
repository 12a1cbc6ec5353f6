"""Deterministic artifact writers: CSV payloads with JSON provenance sidecars.

Numbers are formatted with %.17g (17 significant digits: enough to
round-trip every double, though not always the shortest string that
does), no timestamps go into payloads, and every file lands via
write-then-rename, so re-running a configuration with the same seed
reproduces byte-identical CSVs and no partial artifact survives a failure.

The grid and path writers format each axis value once and fill one
%-template per row of the array with that row's values in a single %
operation; the bytes are those of formatting every cell on its own
(``tests/oracles.py`` keeps that writer as the reference).
"""
from __future__ import annotations

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


def _templated_rows(header: str, prefixes, cells, rows) -> str:
    """header, then per (prefix, row) one line per cell: the prefix
    joined to the cell, whose %.17g fields the row's values fill."""
    lines = [header]
    if cells:
        for prefix, row in zip(prefixes, rows, strict=True):
            lines.append(prefix + ("\n" + prefix).join(cells) % tuple(row))
    return "\n".join(lines) + "\n"


def paths_csv(ensemble) -> str:
    """path_id,t,value rows (value_1..value_n columns for n > 1)."""
    n_paths, n_t, n_dim = ensemble.paths.shape
    if n_dim == 1:
        header = "path_id,t,value"
    else:
        header = "path_id,t," + ",".join(
            f"value_{j + 1}" for j in range(n_dim)
        )
    fields = "," + ",".join(["%.17g"] * n_dim)
    cells = ["," + format_float(t) + fields for t in ensemble.grid.tolist()]
    rows = ensemble.paths.reshape(n_paths, n_t * n_dim).tolist()
    return _templated_rows(header, map(str, range(n_paths)), cells, rows)


def grid_density_csv(gd) -> str:
    cells = ["," + format_float(x) + ",%.17g" for x in gd.x_grid.tolist()]
    prefixes = map(format_float, gd.t_grid.tolist())
    return _templated_rows("t,x,q", prefixes, cells, gd.values.tolist())


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
