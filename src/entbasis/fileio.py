"""JSON serialization for matrices, bases, and check reports.

Complex numbers are stored as [re, im] pairs, row-major, so files are
human-diffable and round-trip bit-exactly (Python floats serialize via
repr, which json reads back to the identical double). Keys are written
sorted and with fixed indentation, so identical inputs produce
byte-identical files.
"""

import json
import math

import numpy as np

from .entangled import EntangledBasis

__all__ = [
    "matrix_to_obj",
    "matrix_from_obj",
    "basis_to_obj",
    "basis_from_obj",
    "report_to_obj",
    "save_json",
    "load_json",
]


def matrix_to_obj(m):
    """{"rows", "cols", "data": [[re, im], ...]} for a dense complex matrix."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    data = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def _json_int(value, what):
    """value if it is a JSON integer; a bool, float or string is refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError("%s must be an integer, got %r" % (what, value))
    return value


def matrix_from_obj(obj):
    """Inverse of matrix_to_obj, validating shape, length, and finiteness."""
    try:
        rows, cols = _json_int(obj["rows"], "rows"), _json_int(obj["cols"], "cols")
        data = obj["data"]
    except (KeyError, TypeError) as exc:
        raise ValueError("matrix object needs rows, cols, data fields") from exc
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    if not isinstance(data, list):
        raise ValueError("matrix data must be a list of [re, im] pairs")
    if len(data) != rows * cols:
        raise ValueError(
            "data length %d does not match %d x %d" % (len(data), rows, cols)
        )
    out = np.empty(rows * cols, dtype=complex)
    for k, pair in enumerate(data):
        try:
            re, im = pair
            re, im = float(re), float(im)
        except (TypeError, ValueError) as exc:
            raise ValueError("entry %d is not a [re, im] pair" % k) from exc
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ValueError("entry %d is not finite" % k)
        out[k] = complex(re, im)
    return out.reshape(rows, cols)


def basis_to_obj(basis):
    """{"dim", "operators": [matrix objects]} for an EntangledBasis."""
    return {
        "dim": int(basis.dim),
        "operators": [matrix_to_obj(x) for x in basis.ops],
    }


def basis_from_obj(obj):
    """Inverse of basis_to_obj; validates the operator count and sizes."""
    try:
        dim, raw = _json_int(obj["dim"], "dim"), obj["operators"]
    except (KeyError, TypeError) as exc:
        raise ValueError("basis object needs dim and operators fields") from exc
    if dim < 1:
        raise ValueError("dim must be positive")
    if not isinstance(raw, list):
        raise ValueError("basis operators must be a list of matrix objects")
    if len(raw) != dim * dim:
        raise ValueError(
            "operator count %d does not match dim %d (need %d)"
            % (len(raw), dim, dim * dim)
        )
    ops = np.empty((dim * dim, dim, dim), dtype=complex)
    for k, mobj in enumerate(raw):
        m = matrix_from_obj(mobj)
        if m.shape != (dim, dim):
            raise ValueError("operator %d has shape %s, expected %d x %d"
                             % (k, m.shape, dim, dim))
        ops[k] = m
    return EntangledBasis(dim, ops)


def report_to_obj(report):
    """JSON-ready dictionary for a CheckReport."""
    return {
        "name": report.name,
        "trials": int(report.trials),
        "maxViolation": float(report.max_violation),
        "threshold": float(report.threshold),
        "passed": bool(report.passed),
        "verdict": report.verdict,
        "witnesses": [dict(w) for w in report.witnesses],
        "details": dict(report.details),
    }


def save_json(obj, path):
    """Write sorted-key JSON with a trailing newline; deterministic output."""
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_json(path):
    with open(path) as fh:
        return json.load(fh)
