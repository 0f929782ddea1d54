"""JSON serialization for matrices, bases, and check reports.

Complex numbers are stored as [re, im] pairs, row-major, so files are
human-diffable and round-trip bit-exactly (each double is written as its
Python repr, which json reads back to the identical double). Keys are
sorted and indentation is fixed, so identical inputs produce
byte-identical files.

Basis files are written by basis_bytes as ASCII bytes from the stacked
operator array, a block of operators at a time: gen --out writes them,
dump_basis decodes them into a text file and scan_layout compares them with
the file it read. A shift-and-multiply operator has d nonzero entries
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

load_basis reads basis files back, here too; a file over 64 KiB in
dump_basis's exact layout goes to scan_layout, which builds no JSON tree.
It matches the file head for dim and reads the rest in windows of 256 KiB,
never the whole file: a whole-file scan of Fourier d=24 (17 MB) took 80 ms
against 62 ms, and a fresh process that loaded it peaked at 104 MB against
37 MB. The basis it builds is the one buffer kept in pages of its own,
mapped rather than from the heap (scan_layout gives the measured reason).
It starts as +0.0, so only the tokens that are not "0.0" are looked for.
Marks: a token starts after two spaces with a byte in "-".."9" and is not
"0.0" before "," or a newline; the comparisons go to bool buffers reused
for every window. Each is cut as a row of _TOKEN bytes and ends at its
first "," or newline. Slots: its offset less the extra bytes of the tokens
before it (length - 3 each) is its "0.0"'s offset in a file of zeros, which
the writer's own arithmetic (_zero_operator) turns into its double's index.
Batches: each time the rows hold _BLOCK_DOUBLES tokens, numpy parses each
distinct token among them once, and they must give finite doubles. Two
tokens that share a 64-bit key mixed from their bytes share a double, wrong
for one of them, which the write-back refuses: basis_bytes of the basis
they make is compared with the file, chunk by chunk. That write-back is the
only rule that accepts a file: every byte must match and none be left over.
So the writer specifies the reader, and no number grammar is checked by
hand: the bytes are what json.dump writes for this basis, each double
spelled as its repr, which json reads back as the same double, and the
result is bit for bit basis_from_obj(load_json(path)). Every other input
goes to that pair of functions, unchanged: another spelling of a double
("1.00", "1E+16", an integer), other whitespace, a non-finite token, a
wrong count, dim < 1. It stays the fallback and the test oracle, so the
ValueError is the same too.
"""

import json
import math
import mmap
import os
import re

import numpy as np

from .entangled import EntangledBasis
from .reports import require_positive

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
    require_positive(dim, "dim")
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
# leaves the rest to basis_bytes, which it runs on what it read to check the file
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


def _zero_operator(rows, cols):
    """The text of an operator whose doubles are all 0.0, and where their 0.0 start in it:
    the first's offset, the step from one [re, im] pair to the next and from re to im.
    Operators follow each other one comma apart."""
    head, pair = OP_HEAD % cols, "0.0" + RE_IM + "0.0"
    text = head + (pair + PAIR_SEP) * (rows * cols - 1) + pair + OP_TAIL % rows
    return text, len(head), len(pair) + len(PAIR_SEP), len(pair) - 3


def basis_bytes(basis):
    """The bytes save_json(basis_to_obj(basis), path) writes, in chunks: the head, each
    block of operators and the comma before it, the tail (see the module docstring)."""
    ops = np.ascontiguousarray(basis.ops)
    n, rows, cols = ops.shape
    yield (FILE_HEAD % basis.dim).encode()
    pairs = rows * cols
    step = max(1, _BLOCK_DOUBLES // (2 * pairs))
    block = min(step, n)
    # the text of a block of operators whose doubles are all 0.0, where each double's
    # 0.0 starts in it, and the separator after each double: re/im, pair/pair, op/op.
    # The text between two slots is a memoryview of the template, not a copy: copied
    # slices of a kilobyte or so come from the C heap, and freed there between the
    # blocks' larger strings they left it fragmented and the process larger
    zero_op, first, stride, gap = _zero_operator(rows, cols)
    template = memoryview(",".join([zero_op] * block).encode())
    slots = (np.arange(block)[:, None, None] * (len(zero_op) + 1) + first
             + np.arange(pairs)[:, None] * stride + [0, gap]).reshape(-1)
    seps = np.array([RE_IM.encode(), PAIR_SEP.encode()] * pairs, dtype=object)
    seps[-1] = (OP_TAIL % rows + "," + OP_HEAD % cols).encode()
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
            nonzero = start + np.flatnonzero(bits[start:hi] != 0)
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


# bytes read per window, and per token: a double's longest repr has 24, then "," or a newline
_WINDOW = 1 << 18
_TOKEN = 25
# odd multipliers of a token's second and third 8-byte words in its key
_KEY_MIX = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xC2B2AE3D27D4EB4F))
_HEAD_RE = re.compile(re.escape(FILE_HEAD.encode()).replace(b"%d", b"([1-9][0-9]{0,8})"))


def scan_layout(fh):
    """The basis in the binary file fh if fh holds exactly dump_basis's text of it, else None.

    The tokens that are not "0.0" must be finite doubles at slots of the
    layout, and basis_bytes of the basis they make must give back every byte of fh.
    """
    size = os.fstat(fh.fileno()).st_size
    cap = min(_WINDOW, size)
    buf = bytearray(cap + _TOKEN)
    a = np.frombuffer(buf, dtype=np.uint8)
    total = fh.readinto(memoryview(buf)[:cap])
    head = _HEAD_RE.match(buf, 0, total)
    if head is None:
        return None
    dim = int(head.group(1))
    n = dim * dim
    # every double takes at least "0.0" and a newline; no allocation for a header that lies
    if 4 * 2 * n * n > size:
        return None
    # the basis in pages of its own, returned to the system when it is dropped: from the
    # heap (np.zeros) it stayed resident after each verify, and basis-io's peak RSS read
    # 136.7-137.2 MB against 130.8-131.8 MB (10 runs each, 2-core Xeon VM). Mapped private and
    # populated, d=24's 1,296 pages take 1.1 ms to touch and unmap, not 2.4-3.2 ms page by page
    private = getattr(mmap, "MAP_PRIVATE", None)
    doubles = np.frombuffer(mmap.mmap(-1, 16 * n * n) if private is None else mmap.mmap(
        -1, 16 * n * n, private | mmap.MAP_ANONYMOUS | getattr(mmap, "MAP_POPULATE", 0)),
        dtype=float)
    zero_op, first, stride, gap = _zero_operator(dim, dim)
    rows = np.lib.stride_tricks.sliding_window_view(a, _TOKEN)
    # reused for every window: with fresh temporaries a warm verify of Fourier d=24 made
    # 9,295 page faults against 2,151, and took 76-78 ms against 61 ms
    mark, zero, other = (np.empty(cap, dtype=bool) for _ in range(3))
    lo, base, extra, batch, at = head.end(), -head.end(), 0, [], []
    while True:
        last = total < cap
        hi = total if last else max(lo, total - _TOKEN)
        # a token starts after a space with a byte in "-".."9". doubles is already +0.0, so
        # "0.0" is not marked: in the writer's text a token with "0" first and third is "0.0"
        # if its fourth byte is "," or a newline (below "0"), else "0.0" and more digits
        m, z, o, x = mark[:hi - lo], zero[:hi - lo], other[:hi - lo], a[lo:hi]
        np.equal(a[lo - 1:hi - 1], 32, out=m)
        m &= np.greater_equal(x, 45, out=o)
        m &= np.less_equal(x, 57, out=o)
        np.equal(x, 48, out=z)
        z &= np.equal(a[lo + 2:hi + 2], 48, out=o)
        z &= np.less(a[lo + 3:hi + 3], 48, out=o)
        s = lo + np.flatnonzero(np.greater(m, z, out=m))
        s = s[a[s - 2] == 32]  # not the digits of "cols": d and "rows": d
        batch.append(rows[s])
        at.append(base + s)
        if last or sum(map(len, at)) >= _BLOCK_DOUBLES:
            text, at = np.concatenate(batch), np.concatenate(at)
            # a token ends at "," or a newline: "+" is in the writer's 1e+16
            end = ((text == 44) | (text == 10)).argmax(1)
            if not end.all():
                return None
            # each token's offset in a file of all 0.0, then its slot in the writer's arithmetic
            grown = np.cumsum(end - 3)
            op, r = np.divmod(at - extra - grown + end - 3, len(zero_op) + 1)
            pair, r = np.divmod(r - first, stride)
            im, r = np.divmod(r, gap)
            if at.size and (r.any() or im.max() > 1 or min(op.min(), pair.min()) < 0
                            or max(op.max(), pair.max()) >= n):
                return None
            text[np.arange(_TOKEN) >= end[:, None]] = 0
            # each distinct token is parsed once, keyed by its first 24 bytes: the token and its
            # zeroed tail. Tokens that share a key get one double, which the write-back refuses
            words = np.ndarray((len(text), 3), np.uint64, text, 0, (_TOKEN, 8))
            key = words[:, 0] + words[:, 1] * _KEY_MIX[0] + words[:, 2] * _KEY_MIX[1]
            distinct, which = np.unique(key, return_inverse=True)
            row = np.empty(distinct.size, dtype=np.intp)
            row[which] = np.arange(which.size)
            try:
                values = text.take(row, 0).view("S%d" % _TOKEN)[:, 0].astype(float)
            except ValueError:
                return None
            if not np.isfinite(values).all():
                return None
            doubles[2 * (op * n + pair) + im] = values[which]
            extra += grown[-1:].sum()
            batch, at = [], []
        if last:
            break
        # the bytes a later mark looks two back at, and the rows not yet cut
        buf[:total - hi + 2] = buf[hi - 2:total]
        base, lo = base + hi - 2, 2
        total = total - hi + 2
        total += fh.readinto(memoryview(buf)[total:cap])
    basis = EntangledBasis(dim, doubles.view(complex).reshape(n, dim, dim))
    fh.seek(0)
    # basis_bytes is lazy: no span is formatted, and no block joined, after the first that differs
    for chunk in basis_bytes(basis):
        if fh.read(len(chunk)) != chunk:
            return None
    return basis if fh.read(1) == b"" else None


def load_basis(path):
    """basis_from_obj(load_json(path)), the same bit for bit and error for error; a file
    over _SCAN_MIN_BYTES in dump_basis's layout is read by scan_layout, without a JSON tree."""
    basis = None
    with open(path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size > _SCAN_MIN_BYTES:
            basis = scan_layout(fh)
    return basis_from_obj(load_json(path)) if basis is None else basis


# json reads a small file faster than the scan sets up and writes the basis back. gen's files,
# json / scan in ms, best of 5x200 (2-core Xeon VM): d=3 (5 KiB) 0.09-0.10 / 0.27-0.29, d=5
# (35 KiB) 0.39-0.40 / 0.40-0.45, d=6 (70 KiB) 0.74-0.75 / 0.56, d=7 (128 KiB) 1.26-1.31 / 0.78-0.87
_SCAN_MIN_BYTES = 1 << 16
