"""JSON serialization for matrices, bases, and check reports.

Complex numbers are stored as [re, im] pairs, row-major, so files are
human-diffable and round-trip bit-exactly (each double is written as its
Python repr, which json reads back to the identical double). Keys are
sorted and indentation is fixed, so identical inputs produce
byte-identical files.

Basis files are written by basis_bytes as ASCII bytes from the stacked
operator array, a block of operators at a time: gen --out writes them,
dump_basis decodes them into a text file and the layout reader compares them
with the file it read. A shift-and-multiply operator has d nonzero entries
of d^2, so most doubles in the file are +0.0, the only double whose bits are
all zero and the only one spelled "0.0", and the writer's work grows with
the other doubles alone. Once per call it builds the bytes of a block of
operators whose doubles are all +0.0, from the strings defined below, and
the offset of each double's "0.0" in it. Consecutive blocks form spans that
hold at most _BLOCK_DOUBLES of the other doubles, or one block that holds
more. Each distinct bit pattern among them is formatted once per span (repr,
or NaN, Infinity, -Infinity as json spells them), and one join per block
alternates the formatted doubles with views of the template's text between
them, or their separator if they are neighbours. The bytes are exactly what
json.dump(basis_to_obj(basis), fh, sort_keys=True, indent=2) writes; the
stdlib encoder (pure Python once indent is set) is kept as the test oracle
for it and writes the small files, matrices and reports, through save_json.
Matrix data is read back with one numpy conversion per matrix.

load_basis reads basis files back, and for text in dump_basis's exact
layout it builds no JSON tree. layout.scan_layout matches the file head
for dim and scans line-aligned windows of the bytes. Each double has a
line of its own: a newline, ten spaces, the token, then "," or nothing. A
"0.0" token costs no parse, since the result starts as +0.0; numpy's text
reader parses the others, which must give 2 d^4 finite doubles.
basis_bytes of that basis is then compared with the file, chunk by chunk,
and the basis is taken only if every byte matches and none is left over.
So the writer specifies the reader, and no number grammar is checked by
hand: the bytes are what json.dump writes for this basis, each double
spelled as its repr, which json reads back as the same double, and the
result is bit for bit basis_from_obj(load_json(path)). Every other input
goes to that pair of functions, unchanged: another spelling of a double
("1.00", "1E+16", an integer), other whitespace, a non-finite token, a
wrong count, dim < 1. It stays the fallback and the test oracle, so the
ValueError is the same too. Files of at most 64 KiB go to it as well:
json reads them in about a millisecond.
"""

import json
import math
import os

import numpy as np

from .entangled import EntangledBasis

__all__ = [
    "matrix_to_obj",
    "matrix_from_obj",
    "basis_to_obj",
    "basis_from_obj",
    "report_to_obj",
    "basis_bytes",
    "dump_basis",
    "save_json",
    "load_json",
    "load_basis",
]


def matrix_to_obj(m):
    """{"rows", "cols", "data": [[re, im], ...]} for a dense complex matrix."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    data = np.stack((m.real, m.imag), -1).reshape(-1, 2).tolist()
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
    pairs = _float_array(data)
    if pairs is None or pairs.shape != (rows * cols, 2) or not np.isfinite(pairs).all():
        raise _entry_error(data)
    return pairs.view(complex).reshape(rows, cols)


def _float_array(data):
    """data as a float array, or None if an entry is not a real number.

    One numpy conversion finds the dtype: numbers give a numeric one, and
    integers beyond int64 an object one. A string gives a string dtype, and
    is refused as rows, cols and dim refuse it, although float() would
    parse a numeric one.
    """
    try:
        values = np.array(data)
        if values.dtype.kind in "biuf" or values.dtype.kind == "O" and not _holds_string(values.flat):
            return values.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):
        pass
    return None


def _holds_string(values):
    """Whether one of values is a string."""
    return any(isinstance(x, (str, bytes)) for x in values)


def _entry_error(data):
    """The ValueError naming the first entry of data that is not a finite [re, im] pair."""
    for k, pair in enumerate(data):
        try:
            # a JSON array of two numbers; an object would unpack into its keys
            if not isinstance(pair, (list, tuple)) or _holds_string(pair):
                raise TypeError("not an array of numbers")
            real, imag = pair
            real, imag = float(real), float(imag)
        except (TypeError, ValueError):
            return ValueError("entry %d is not a [re, im] pair" % k)
        except OverflowError:
            return ValueError("entry %d is too large for a double" % k)
        if not (math.isfinite(real) and math.isfinite(imag)):
            return ValueError("entry %d is not finite" % k)
    return ValueError("matrix data must be a list of [re, im] pairs")


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


# the text dump_basis writes around the doubles: the file's head, an operator's head
# (%d: cols), the text between a pair's re and im, between two pairs, an operator's
# tail (%d: rows), and the file's tail. scan_layout reads dim off the file's head and
# leaves the rest to dump_basis, which it runs on what it read to check the file
FILE_HEAD = '{\n  "dim": %d,\n  "operators": ['
OP_HEAD = '\n    {\n      "cols": %d,\n      "data": [\n        [\n          '
RE_IM = ",\n          "
PAIR_SEP = "\n        ],\n        [\n          "
OP_TAIL = '\n        ]\n      ],\n      "rows": %d\n    }'
FILE_TAIL = "\n  ]\n}\n"


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# doubles per block of text, and the most that are not +0.0 per span of blocks: of 1 << 12
# to 1 << 17, 1 << 13 dumps Fourier d=24 and Sylvester d=16 fastest; larger blocks are slower
_BLOCK_DOUBLES = 1 << 13


def _json_float(x):
    """json's spelling of a double: its repr, or NaN, Infinity, -Infinity."""
    text = repr(x)
    return _JSON_NONFINITE.get(text, text)


def basis_bytes(basis):
    """The bytes save_json(basis_to_obj(basis), path) writes, in chunks: the head, each
    block of operators and the comma before it, the tail (see the module docstring)."""
    ops = np.ascontiguousarray(basis.ops)
    n, rows, cols = ops.shape
    yield (FILE_HEAD % basis.dim).encode()
    if not n:
        yield b"]\n}\n"
        return
    head, tail, pairs = OP_HEAD % cols, OP_TAIL % rows, rows * cols
    step = max(1, _BLOCK_DOUBLES // (2 * pairs))
    block = min(step, n)
    # the text of a block of operators whose doubles are all 0.0, where each double's
    # 0.0 starts in it, and the separator after each double: re/im, pair/pair, op/op.
    # The text between two slots is a memoryview of the template, not a copy: copied
    # slices of a kilobyte or so come from the C heap, and freed there between the
    # blocks' larger strings they left it fragmented and the process larger
    pair = "0.0" + RE_IM + "0.0"
    zero_op = head + (pair + PAIR_SEP) * (pairs - 1) + pair + tail
    template = memoryview(",".join([zero_op] * block).encode())
    slots = (np.arange(block)[:, None, None] * (len(zero_op) + 1) + len(head)
             + np.arange(pairs)[:, None] * (len(pair) + len(PAIR_SEP))
             + [0, len(pair) - 3]).reshape(-1)
    seps = np.array([RE_IM.encode(), PAIR_SEP.encode()] * pairs, dtype=object)
    seps[-1] = (tail + "," + head).encode()
    seps = np.tile(seps, block)
    # a complex array is its re, im doubles interleaved: the order the file lists them
    bits, size = ops.view(np.int64).reshape(-1), 2 * pairs * step
    hi = 0
    for start in range(0, bits.size, size):
        if start == hi:
            # a span: this block, then the next while at most _BLOCK_DOUBLES doubles are not +0.0
            hi, room = start + size, _BLOCK_DOUBLES - np.count_nonzero(bits[start:start + size])
            while hi < bits.size and (room := room - np.count_nonzero(bits[hi:hi + size])) >= 0:
                hi += size
            nonzero = start + np.flatnonzero(bits[start:hi])
            # each distinct double is formatted once per span, however many slots it fills
            distinct, which = np.unique(bits[nonzero], return_inverse=True)
            values = distinct.view(np.float64)
            fmt = repr if np.isfinite(values).all() else _json_float
            words = np.array([fmt(x).encode() for x in values.tolist()], object)[which].tolist()
        first, last = np.searchsorted(nonzero, [start, start + size]).tolist()
        end = min(size, bits.size - start) // (2 * pairs) * (len(zero_op) + 1) - 1
        if start:
            yield b","
        if first == last:
            yield bytes(template[:end])
            continue
        # the text between two doubles that are not +0.0: their separator when they are
        # neighbours, so that a dense block slices nothing, else a view of the template
        nz = nonzero[first:last] - start
        at = slots[nz]
        gaps = seps[nz].tolist()
        apart = np.flatnonzero(np.diff(nz) != 1)
        for k, a, b in zip(apart.tolist(), (at[apart] + 3).tolist(), at[apart + 1].tolist()):
            gaps[k] = template[a:b]
        gaps[-1] = template[at[-1] + 3:end]
        text = [template[:at[0]]] * (2 * nz.size + 1)
        text[1::2] = words[first:last]
        text[2::2] = gaps
        yield b"".join(text)
    yield FILE_TAIL.encode()


def dump_basis(basis, fh):
    """Write basis to the text file fh as save_json(basis_to_obj(basis), path) would."""
    for chunk in basis_bytes(basis):
        fh.write(str(chunk, "ascii"))


def save_json(obj, path):
    """Write sorted-key JSON with a trailing newline; deterministic output."""
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_json(path):
    """json.load of path; nesting too deep for the decoder is a ValueError too."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError as exc:
            raise ValueError("JSON nested too deeply") from exc


def load_basis(path):
    """basis_from_obj(load_json(path)), without the JSON tree for dump_basis's layout.

    A file in that layout is scanned a window of lines at a time, and only
    its doubles that are not 0.0 are parsed; any other text goes to
    basis_from_obj(load_json(path)). Either way the basis is the same bit for
    bit, and so is the ValueError (see the module docstring). A file of up to
    _SCAN_MIN_BYTES goes to json too.
    """
    basis = None
    with open(path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size > _SCAN_MIN_BYTES:
            from .layout import scan_layout  # loaded only by a process that reads a large file

            basis = scan_layout(fh)
    return basis_from_obj(load_json(path)) if basis is None else basis


# json reads a file this small in about a millisecond; the scan's mapped buffers and
# its module would only add to the memory of a process that reads no large file
_SCAN_MIN_BYTES = 1 << 16
