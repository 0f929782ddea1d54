"""A reader of basis files in dump_basis's layout that builds no JSON tree.

scan_layout parses the doubles of such a file, writes the basis they make
back with fileio.dump_basis, and takes it only if that gives the file byte
for byte; else it returns None, and fileio.load_basis hands the file to the
JSON reader. The fileio module docstring says why the two agree bit for bit.
"""

import mmap
import os
import re

import numpy as np

from .entangled import EntangledBasis
from .fileio import FILE_HEAD, dump_basis

__all__ = ["scan_layout"]

# bytes read per window; the layout's lines are far shorter
_WINDOW = 1 << 18
_HEAD_RE = re.compile(re.escape(FILE_HEAD.encode()).replace(b"%d", b"([1-9][0-9]{0,8})"))


def _mapped(count, dtype):
    """A zeroed array in pages of its own, which go back to the system when it is dropped.

    From the heap, the reader's buffers and the temporaries between them would
    leave it larger for good, and a JSON reader that comes next would need more.
    """
    return np.frombuffer(mmap.mmap(-1, count * np.dtype(dtype).itemsize), dtype=dtype)


def _line_windows(fh, start):
    """start, then the rest of fh, as uint8 windows that each end with a newline.

    Each is a view of one mapped buffer, valid until the next is asked for.
    None ends them at a line longer than a window or a last line without its
    newline: the layout has neither."""
    buf = mmap.mmap(-1, 2 * _WINDOW)
    view = np.frombuffer(buf, dtype=np.uint8)
    have = len(start)
    buf[:have] = start
    while True:
        got = fh.readinto(memoryview(buf)[have:have + _WINDOW])
        total = have + got
        cut = buf.rfind(b"\n", 0, total) + 1
        have = total - cut
        if have >= _WINDOW or have and not got:
            yield None
            return
        yield view[:cut]
        buf[:have] = buf[cut:total]
        if not got:
            return


def _token_spans(a):
    """Starts and ends of the tokens on the lines of window a with a space
    at column 9 and none at 10. In the layout those are the doubles' lines (ten
    spaces, the token, then "," or nothing)."""
    nl = np.flatnonzero(a == 10)
    starts = np.empty_like(nl)
    starts[:1] = 0
    starts[1:] = nl[:-1] + 1
    long = nl - starts > 10
    starts, nl = starts[long], nl[long]
    hit = (a[starts + 9] == 32) & (a[starts + 10] != 32)
    starts, nl = starts[hit] + 10, nl[hit]
    return starts, nl - (a[nl - 1] == 44)


class _Compare:
    """A text sink that compares what is written with the binary file fh from its
    start; it reads no further after the first mismatch."""

    def __init__(self, fh):
        fh.seek(0)
        self.fh, self.same = fh, True

    def write(self, text):
        self.same = self.same and self.fh.read(len(text)) == text.encode()


def scan_layout(fh):
    """The basis in the binary file fh if fh holds exactly dump_basis's text of it, else None.

    The tokens on the doubles' lines must be 2 d^4 finite doubles, and
    dump_basis of the basis they make must give back every byte of fh.
    """
    first_window = fh.read(_WINDOW)
    head = _HEAD_RE.match(first_window)
    if head is None:
        return None
    dim = int(head.group(1))
    n = dim * dim
    # every double takes at least "0.0" and a newline; no allocation for a header that lies
    if 4 * 2 * n * n > os.fstat(fh.fileno()).st_size:
        return None
    doubles = _mapped(2 * n * n, float)
    count = 0
    for a in _line_windows(fh, first_window[head.end():]):
        if a is None:
            return None
        ts, te = _token_spans(a)
        if count + ts.size > doubles.size:
            return None
        # doubles is already +0.0: only the tokens that are not "0.0" are parsed
        keep = te - ts != 3
        t3 = ts[~keep]
        keep[~keep] = (a[t3] != 48) | (a[t3 + 1] != 46) | (a[t3 + 2] != 48)
        # each kept token with the byte after it, that byte made a newline
        starts, ends = ts[keep], te[keep] + 1
        offsets = np.cumsum(ends - starts)
        text = a[np.repeat(ends - offsets, ends - starts) + np.arange(offsets[-1:].sum())]
        text[offsets - 1] = 10
        try:
            values = np.fromstring(text.tobytes(), dtype=float, sep="\n")
        except ValueError:
            return None
        if values.size != starts.size or not np.isfinite(values).all():
            return None
        doubles[count + np.flatnonzero(keep)] = values
        count += ts.size
    if count != doubles.size:
        return None
    basis = EntangledBasis(dim, doubles.view(complex).reshape(n, dim, dim))
    sink = _Compare(fh)
    dump_basis(basis, sink)
    return basis if sink.same and fh.read(1) == b"" else None
