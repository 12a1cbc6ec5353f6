"""Deterministic artifact writers: CSV payloads with JSON provenance sidecars.

Numbers are formatted with %.17g (17 significant digits: enough to
round-trip every double, though not always the shortest string that
does), no timestamps go into payloads, and every file lands via
write-then-rename, so re-running a configuration with the same seed
reproduces byte-identical CSVs and no partial artifact survives a failure.
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


def paths_csv(ensemble) -> str:
    """path_id,t,value rows (value_1..value_n columns for n > 1)."""
    n_dim = ensemble.paths.shape[2]
    if n_dim == 1:
        header = "path_id,t,value"
    else:
        header = "path_id,t," + ",".join(
            f"value_{j + 1}" for j in range(n_dim)
        )
    lines = [header]
    for p in range(ensemble.n_paths):
        for i, t in enumerate(ensemble.grid):
            vals = ",".join(
                format_float(ensemble.paths[p, i, j]) for j in range(n_dim)
            )
            lines.append(f"{p},{format_float(t)},{vals}")
    return "\n".join(lines) + "\n"


def grid_density_csv(gd) -> str:
    lines = ["t,x,q"]
    for i, t in enumerate(gd.t_grid):
        for j, x in enumerate(gd.x_grid):
            lines.append(
                f"{format_float(t)},{format_float(x)},"
                f"{format_float(gd.values[i, j])}"
            )
    return "\n".join(lines) + "\n"


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
