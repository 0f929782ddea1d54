"""A reader of basis files in dump_basis's layout that builds no JSON tree.

fileio.dump_basis writes every basis file in one layout, the one
json.dump(..., sort_keys=True, indent=2) gives, from the strings fileio
defines. scan_layout reads a file in exactly that layout back and returns
None for any other text, which fileio.load_basis then hands to the JSON
reader; see the fileio module docstring for why the two agree bit for bit.
"""

import mmap
import os
import re

import numpy as np

from .entangled import EntangledBasis
from .fileio import FILE_HEAD, FILE_TAIL, OP_HEAD, OP_TAIL, PAIR_SEP, RE_IM

__all__ = ["scan_layout"]

# bytes read per window; the layout's lines are far shorter
_WINDOW = 1 << 18
# bytes of token text parsed per batch; a window's worth of it made the batch's
# arrays large enough to leave the heap larger for a JSON reader that comes next
_BATCH = 1 << 16
_HEAD_RE = re.compile(re.escape(FILE_HEAD.encode()).replace(b"%d", b"([1-9][0-9]{0,8})"))

# classes of the bytes that are not digits in number text with "\n" after each
# number: 0 "\n", 1 "-", 2 "+", 5 ".", 6 "e" or "E", 7 anything else
_CLASS = np.full(256, 7, dtype=np.uint8)
for _chars, _code in (("\n", 0), ("-", 1), ("+", 2), (".", 5), ("eE", 6)):
    _CLASS[[ord(c) for c in _chars]] = _code


def _pair_table(follows):
    """Lookup of 8 * class + next class: True where next may follow class."""
    table = np.zeros(64, dtype=bool)
    for cls, nexts in follows.items():
        table[[8 * cls + n for n in nexts]] = True
    return table


# JSON's number grammar read off the non-digits alone, for two of them side by side
# ("-" starts a number or an exponent's digits, "+" only the latter) and for two with
# digits between (a number ends in a digit, and digits never precede a sign)
_NEXT_TO = _pair_table({0: (1,), 6: (1, 2)})
_APART = _pair_table({c: (0, 5, 6) for c in (0, 1, 2, 5, 6)})
# the marks "\n", "." and "e" alone: one "." at most, then one "e" at most, and at
# least one of them (a number without either is an integer)
_MARK = np.array([c in (0, 5, 6) for c in range(8)])
_MARKS_FOLLOW = _pair_table({0: (5, 6), 5: (0, 6), 6: (0,)})


def _json_floats(text):
    """True when the bytes text are JSON numbers with a fraction or exponent, each
    followed by "\\n": the numbers json.load reads as floats, by float()."""
    # the non-digits, after a "\n" at -1 that starts the first number
    at = np.flatnonzero(text - 48 > 9)
    if not at.size or at[-1] != text.size - 1:
        return False
    pos = np.empty(at.size + 1, dtype=np.intp)
    pos[0], pos[1:] = -1, at
    cls = np.empty(pos.size, dtype=np.uint8)
    cls[0], cls[1:] = 0, _CLASS[text[at]]
    pairs = cls[:-1] * 8 + cls[1:]
    if not np.where(np.diff(pos) == 1, _NEXT_TO[pairs], _APART[pairs]).all():
        return False
    marks = cls[_MARK[cls]]
    if not _MARKS_FOLLOW[marks[:-1] * 8 + marks[1:]].all():
        return False
    # no digit after a leading 0 of the integer part ("01.5"; an exponent may have them)
    first = pos[:-1][cls[:-1] == 0] + 1
    first += text[first] == 45
    return not ((text[first] == 48) & (text[first + 1] - 48 <= 9)).any()


def _operator_skeleton(dim):
    """dump_basis's text of one operator and the comma after it, without the doubles."""
    pairs = dim * dim
    return (OP_HEAD % dim + (RE_IM + PAIR_SEP) * (pairs - 1) + RE_IM
            + OP_TAIL % dim + ",").encode()


def _mapped(count, dtype):
    """A zeroed array in pages of its own, which go back to the system when it is dropped.

    The reader's buffers and result are mapped so: from the heap, they and the
    temporaries allocated between them would leave it larger for good, and the
    JSON reader that comes next in the same process would need more memory.
    """
    return np.frombuffer(mmap.mmap(-1, count * np.dtype(dtype).itemsize), dtype=dtype)


def _line_windows(fh, start):
    """start, then the rest of fh, as uint8 windows that each end with a newline.

    Yields None, and stops, at a line longer than a window or a last line
    without its newline: the layout has neither. A window is a view of one
    buffer (mapped, as in _mapped), valid until the next one is asked for.
    """
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
    """Starts, ends and newlines of the tokens on the lines of window a with a space
    at column 9 and none at 10. In the layout those are the doubles' lines (ten
    spaces, the token, then "," or nothing); in other text the skeleton differs."""
    nl = np.flatnonzero(a == 10)
    starts = np.empty_like(nl)
    starts[:1] = 0
    starts[1:] = nl[:-1] + 1
    long = nl - starts > 10
    starts, nl = starts[long], nl[long]
    hit = (a[starts + 9] == 32) & (a[starts + 10] != 32)
    starts, nl = starts[hit] + 10, nl[hit]
    return starts, nl - (a[nl - 1] == 44), nl


def scan_layout(fh):
    """The basis in fh if its bytes are dump_basis's layout with JSON float tokens, else None.

    The text with the tokens taken out must be the layout's skeleton: the
    file head, _operator_skeleton(dim) once per operator, the last comma
    replaced by the file tail. The tokens must be JSON floats, finite, and
    2 d^4 of them.
    """
    first_window = fh.read(_WINDOW)
    head = _HEAD_RE.match(first_window)
    if head is None:
        return None
    dim = int(head.group(1))
    n = dim * dim
    size = os.fstat(fh.fileno()).st_size
    # every double takes at least "0.0" and a newline; no allocation for a header that lies
    if 4 * 2 * n * n > size:
        return None
    unit = np.frombuffer(_operator_skeleton(dim), dtype=np.uint8)
    # the skeleton repeated for the longest window, which is at most the whole file
    reps = min(size, 2 * _WINDOW) // unit.size + 2
    tiled = _mapped(reps * unit.size, np.uint8)
    tiled.reshape(reps, unit.size)[:] = unit
    tail = np.frombuffer(FILE_TAIL.encode(), dtype=np.uint8)
    last = n * unit.size - 1          # skeleton offset where the file tail starts
    doubles = _mapped(2 * n * n, float)
    pos = count = 0                   # skeleton bytes and tokens seen so far
    # the tokens that are not "0.0", each with a newline, and a mask of which tokens
    # they are from token `first` on; parsed a batch at a time, so that numpy keeps
    # no cache of small arrays of every length the windows give
    texts, masks, first, pending = [], [], 0, 0
    for a in _line_windows(fh, first_window[head.end():]):
        if a is None:
            return None
        ts, te, nl = _token_spans(a)
        if not (te > ts).all() or count + ts.size > doubles.size:
            return None
        bounds = np.empty(2 * ts.size + 2, dtype=np.intp)
        bounds[0], bounds[1:-1:2], bounds[2:-1:2], bounds[-1] = 0, ts, te, a.size
        token = np.repeat(np.arange(bounds.size - 1) % 2 == 1, np.diff(bounds))
        skeleton = a[~token]
        k = skeleton.size
        j = max(0, min(k, last - pos))
        off = pos % unit.size
        if not (pos + k <= last + tail.size
                and np.array_equal(skeleton[:j], tiled[off:off + j])
                and np.array_equal(skeleton[j:], tail[pos + j - last:pos + k - last])):
            return None
        pos += k
        # only the tokens that are not "0.0" are parsed; doubles is already +0.0
        short = np.flatnonzero(te - ts == 3)
        t3 = ts[short]
        zero = short[(a[t3] == 48) & (a[t3 + 1] == 46) & (a[t3 + 2] == 48)]
        nonzero = np.ones(ts.size, dtype=bool)
        nonzero[zero] = False
        t0 = ts[zero]
        token[t0] = token[t0 + 1] = token[t0 + 2] = False
        token[nl[nonzero]] = True
        texts.append(a[token])
        masks.append(nonzero)
        count += ts.size
        pending += texts[-1].size
        # freed before the next window's arrays are made, not as they are replaced: with
        # both windows' arrays live at once, the heap grew by about twice a window's
        del ts, te, nl, bounds, token, skeleton, short, t3, zero, t0
        if pending >= _BATCH:
            if not _parse_into(doubles, first, texts, masks):
                return None
            texts, masks, first, pending = [], [], count, 0
    if not (pos == last + tail.size and count == doubles.size
            and _parse_into(doubles, first, texts, masks)):
        return None
    return EntangledBasis(dim, doubles.view(complex).reshape(n, dim, dim))


def _parse_into(doubles, first, texts, masks):
    """Parse the token texts into doubles where the masks, from index first on, say.

    False when a token is not a JSON float or is not finite.
    """
    if not texts:
        return True
    text = np.concatenate(texts)
    if not text.size:
        return True
    if not _json_floats(text):
        return False
    values = np.fromstring(text.tobytes(), dtype=float, sep="\n")
    where = first + np.flatnonzero(np.concatenate(masks))
    if values.size != where.size or not np.isfinite(values).all():
        return False
    doubles[where] = values
    return True
