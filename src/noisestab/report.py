"""Machine-readable reports: deterministic JSON plus CSV plot data.

The JSON report is {config, results, runtime_seconds, library_version,
timestamp}. Serialization is canonical (sorted keys, repr floats), so two
runs with the same config and seed are byte-identical outside the two
volatile timing fields, which :func:`report_fingerprint` strips.
"""
from __future__ import annotations

import json
import os
import time

VOLATILE_FIELDS = ("runtime_seconds", "timestamp")


def _py(value):
    """Recursively coerce numpy scalars/arrays into JSON-ready builtins."""
    if isinstance(value, dict):
        return {str(k): _py(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_py(v) for v in value]
    if getattr(value, "ndim", None):
        return value.tolist()
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        return value.item()
    return value


def estimate_dict(est) -> dict:
    return {"value": float(est.value), "se": float(est.std_error),
            "samples": int(est.samples), "seed": int(est.seed),
            "cap_hit": bool(est.cap_hit)}


def build_report(config_dict: dict, results: list[dict],
                 runtime_seconds: float, library_version: str) -> dict:
    return {
        "config": _py(config_dict),
        "results": _py(results),
        "runtime_seconds": float(runtime_seconds),
        "library_version": library_version,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def write_json(report: dict, path: str):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_json(report))


def report_fingerprint(report: dict) -> bytes:
    """Canonical bytes of a report with the volatile fields removed."""
    stable = {k: v for k, v in report.items() if k not in VOLATILE_FIELDS}
    return json.dumps(stable, indent=2, sort_keys=True).encode("utf-8")


def format_float(x: float) -> str:
    """17 significant digits: lossless float round trip."""
    return f"{float(x):.17g}"


def render_csv(columns: list[str], rows: list[list]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, bool):
                cells.append("true" if cell else "false")
            elif isinstance(cell, float):
                cells.append(format_float(cell))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_csv(columns: list[str], rows: list[list], path: str):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_csv(columns, rows))
