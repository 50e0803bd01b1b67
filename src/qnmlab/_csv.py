"""CSV files from equal-length columns, with floats as exactly '%.17g' % v.

Python's '%.17g' costs about 1 us a cell, and a 400k-row `evolve.csv` has
1.6M of them. Here whole columns are formatted in numpy instead:

- k = floor(log10|x|) and y = |x| * 10**(16 - k), computed as a Dekker
  two-product of |x| with a double-double table of powers of ten (error
  below 1e-14 on y ~ 1e16), so the 17 significant digits are the integer
  D = round(y), split into 4-digit groups by integer floor division by
  the constants 10**8 and 10**4 and a multiply-subtract for each
  remainder (numpy divides an array by a scalar far faster than its
  divmod does), then looked up in a table of 4-digit ASCII groups.
- Each cell is laid out at fixed positions in a zero-padded row of 32
  bytes, built as four little-endian uint64 words: sign, '0.000' prefix,
  first digit, the other 16 digits with the '.' slot, 'e+XX' exponent, and
  the separator in the last byte. '%g' picks fixed notation for
  -4 <= k < 17 and strips trailing zeros after the point only. The pad
  bytes of a whole chunk are then dropped in one bytes.translate, which
  deletes every zero byte without the boolean mask of a numpy compress.

A cell the fast path cannot certify goes to Python's '%.17g' instead: y
within 1e-6 of a rounding tie, D outside (10**16, 10**17) (log10 put k one
off, or rounding carried into an 18th digit; this also covers y < 2**53,
where the high part of y need not be an integer), and x that is 0, nan,
inf or outside (1e-200, 1e200), where the products could leave the
normal range.

CsvFile writes such chunks to a file and keeps its manifest record;
StreamedCsv does so while the run that fills the file goes on.
"""

from __future__ import annotations

import contextlib
import os
import struct
import sys
import time

import numpy as np

#: Rows formatted per block; bounds the working memory, not the output.
CHUNK_ROWS = 8192

#: uint64 words of one float cell and its separator (the widest '%.17g',
#: '-4.9406564584124654e-324', is 24 bytes).
_CELL_WORDS = 4

#: Decimal exponents k the fast path can meet for |x| in (1e-200, 1e200).
_K_MIN, _K_MAX = -201, 200

#: Veltkamp's splitter for float64: 2**27 + 1.
_SPLITTER = 134217729.0

#: Slots after the first digit: 16 digits and the '.'.
_TAIL = 17

#: Capacity asked for the pipe to StreamedCsv's writer child: about five
#: chunks, and Linux's default limit for an unprivileged process.
_PIPE_BYTES = 1 << 20

#: The header of a chunk in that pipe: its rows, the bytes of its CSV text
#: (0: the columns follow raw, 24 bytes a row) and its fallback cells.
_CHUNK = struct.Struct("<qqq")

#: Unread bytes in the pipe that mean the child is behind: CHUNK_ROWS raw
#: rows. A pipe left at its default 64 KiB never holds that many, so there
#: the child formats every chunk.
_BEHIND = _CHUNK.size + 24 * CHUNK_ROWS


def _word(text: bytes) -> int:
    """The little-endian uint64 whose bytes from byte 1 on are text."""
    return int.from_bytes(text, "little") << 8


def _power_of_ten(p: int) -> tuple[float, float]:
    """10**p as hi + lo, each correctly rounded (so is int / int)."""
    if p >= 0:
        hi = float(10 ** p)
        return hi, float(10 ** p - int(hi))
    q = 10 ** -p
    hi = 1 / q
    num, den = hi.as_integer_ratio()
    return hi, (den - num * q) / (den * q)


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp split: v = high + low, each with at most 26 bits."""
    c = v * _SPLITTER
    high = c - (c - v)
    return high, v - high


def _exponent_tables() -> tuple[np.ndarray, ...]:
    """Per k: the scale 10**(16 - k) as hi (and its split) + lo, the tail
    slot of the '.' (_TAIL: none), the digits that are never stripped, and
    the words holding the fixed-notation prefix and the exponent suffix."""
    ks = range(_K_MIN, _K_MAX + 1)
    fixed = [-4 <= k < 17 for k in ks]
    hi, lo = np.array([_power_of_ten(16 - k) for k in ks]).T
    dot = [k if 0 <= k < 17 else _TAIL if f else 0 for k, f in zip(ks, fixed)]
    integer = [k + 1 if 0 <= k < 17 else 1 for k in ks]
    prefix = [_word(b"0." + b"0" * (-k - 1)) if k < 0 and f else 0
              for k, f in zip(ks, fixed)]
    suffix = [0 if f else _word(b"e%+03d" % k) for k, f in zip(ks, fixed)]
    return (hi, *_split(hi), lo, np.array(dot), np.array(integer),
            np.array(prefix, np.uint64), np.array(suffix, np.uint64))


(_TEN_HI, _TEN_HI_HIGH, _TEN_HI_LOW, _TEN_LO, _DOT, _INTEGER, _PREFIX,
 _SUFFIX) = _exponent_tables()


def _tail_masks() -> np.ndarray:
    """For '.' slot t and e kept slots of the tail (index t * 18 + e): the
    byte masks of the digits before and after the '.', and the '.', each
    as the three words of the tail."""
    t = np.arange(_TAIL + 1)[:, None, None]
    e = np.arange(_TAIL + 1)[None, :, None]
    j = np.arange(24)
    table = np.stack((
        np.where((j < t) & (j < e), 0xFF, 0),
        np.where((t < j) & (j < e), 0xFF, 0),
        np.where((j == t) & (t < e), ord("."), 0)))
    words = table.astype(np.uint8).view("<u8")  # (3, 18, 18, 3)
    return words.reshape(3, -1, 3).transpose(0, 2, 1).copy()


#: [before, after, dot][word][t * 18 + e], see _tail_masks.
_MASKS = _tail_masks()

#: '%04d' % q as four bytes of a little-endian word, and its trailing zeros.
_QUADS = sum((np.arange(10_000, dtype=np.uint64) // 10 ** (3 - i) % 10 + 48)
             << np.uint64(8 * i) for i in range(4))
_QUAD_ZEROS = sum(np.arange(10_000) % 10 ** e == 0 for e in range(1, 5))


def format_floats(x: np.ndarray, cells: np.ndarray) -> int:
    """Write '%.17g' % v of each float64 v of x into the rows of cells.

    cells is an (x.size, 4) '<u8' array of zeros except for the separator
    in the last byte; bytes 0..30 of each row receive the cell's ASCII,
    with zero bytes as padding. Returns the number of cells formatted by
    Python's '%'.
    """
    a = np.abs(x)
    fast = (a > 1e-200) & (a < 1e200)
    a = np.where(fast, a, 1.0)  # placeholder: these cells are overwritten
    row = np.floor(np.log10(a)).astype(np.intp) - _K_MIN

    # y = a * 10**(16 - k) = hi + lo: Dekker's exact product with the high
    # part of the power, plus a times its low part.
    hi = a * _TEN_HI.take(row)
    a_high, a_low = _split(a)
    b_high, b_low = _TEN_HI_HIGH.take(row), _TEN_HI_LOW.take(row)
    lo = (((a_high * b_high - hi) + a_high * b_low + a_low * b_high)
          + a_low * b_low) + a * _TEN_LO.take(row)
    # hi >= 2**53 is an integer, so round(y) = hi + floor(lo) + (frac > 1/2)
    whole = np.floor(lo)
    frac = lo - whole
    digits = hi.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    certain = (fast & (np.abs(frac - 0.5) > 1e-6)
               & (digits > 10 ** 16) & (digits < 10 ** 17))

    # D = lead | q0 q1 | q2 q3 in 4-digit groups
    top = digits // 10 ** 8
    low8 = digits - top * 10 ** 8
    lead = top // 10 ** 8
    mid8 = top - lead * 10 ** 8
    q0 = mid8 // 10_000
    q1 = mid8 - q0 * 10_000
    q2 = low8 // 10_000
    q3 = low8 - q2 * 10_000
    words = [_QUADS.take(q0) | _QUADS.take(q1) << 32,
             _QUADS.take(q2) | _QUADS.take(q3) << 32]

    # '%g' strips trailing zeros, but only after the point
    trailing = _QUAD_ZEROS.take(q3)
    for i, q in enumerate((q2, q1, q0), 1):
        trailing += (trailing == 4 * i) * _QUAD_ZEROS.take(q)
    kept = np.maximum(17 - trailing, _INTEGER.take(row))
    dot = _DOT.take(row)
    layout = dot * (_TAIL + 1) + kept - 1 + (kept - 1 > dot)
    shifted = [words[0] << 8, words[1] << 8 | words[0] >> 56, words[1] >> 56]

    cells[:, 0] |= ((x < 0) * np.uint64(ord("-")) | _PREFIX.take(row)
                    | (lead.astype(np.uint64) + 48) << 48)
    for i in range(3):
        before, after, point = (m[i].take(layout) for m in _MASKS)
        word = shifted[i] & after | point
        if i < 2:
            word |= words[i] & before
        cells[:, 1 + i] |= word
    cells[:, 3] |= _SUFFIX.take(row)
    slow = np.flatnonzero(~certain)
    if slow.size:
        text = np.array([b"%.17g" % v for v in x[slow].tolist()], dtype="S31")
        cells.view(np.uint8)[slow, :31] = text.view(np.uint8).reshape(-1, 31)
    return int(slow.size)


def csv_chunks(columns):
    """Yield (bytes, fallback cells) for the CSV lines of the columns.

    columns are equal-length sequences; float columns print as '%.17g' %
    value, integer columns as '%d' and others as '%s'. A complex column z
    prints as three float columns: re, im and abs(z), which is hypot, as
    Python's complex abs (np.abs differs in the last digit). Each yield
    covers CHUNK_ROWS rows and counts the float cells formatted by Python.
    """
    _lift_trim_threshold()
    columns = [np.asarray(c) for c in columns]
    columns = [part for c in columns for part in (
        (c.real, c.imag, np.hypot(c.real, c.imag)) if c.dtype.kind == "c"
        else (c.astype(np.float64, copy=False),) if c.dtype.kind == "f"
        else (c,))]
    for start in range(0, len(columns[0]), CHUNK_ROWS):
        parts = [c[start:start + CHUNK_ROWS] for c in columns]
        texts = [None if p.dtype.kind == "f" else p.astype(np.bytes_)
                 for p in parts]
        # each cell ends in its separator byte, at the end of its words
        widths = [_CELL_WORDS if t is None else t.itemsize // 8 + 1
                  for t in texts]
        ends = np.cumsum(widths)
        block = np.zeros((parts[0].size, ends[-1]), "<u8")
        view = block.view(np.uint8)
        view[:, 8 * ends - 1] = ord(",")
        view[:, -1] = ord("\n")
        fallback = 0
        for part, text, width, end in zip(parts, texts, widths, ends):
            if text is None:
                fallback += format_floats(part, block[:, end - width:end])
            else:
                start_byte = 8 * (end - width)
                view[:, start_byte:start_byte + text.itemsize] = text.view(
                    np.uint8).reshape(text.size, text.itemsize)
        yield view.tobytes().translate(None, b"\0"), fallback


#: A CSV file's record (see _record), as StreamedCsv's writer child sends it.
_REPORT = struct.Struct("<qqqd")


def _record(rows: int, size: int, fallback: int, write_s: float) -> dict:
    """A CSV file's entry in the manifest's csv block."""
    return {"rows": rows, "bytes": size, "fallback_cells": fallback,
            "write_s": write_s}


class CsvFile:
    """A CSV file written in blocks: the header line on opening, then the
    lines of each block of equal-length columns given to add(). An
    exception inside its with block removes the file, which is partial."""

    def __init__(self, path: str, header: str) -> None:
        self.start = time.perf_counter()
        self.fh = open(path, "wb")
        self.size = self.fh.write(header.encode() + b"\n")
        self.rows = self.fallback = 0

    def __enter__(self) -> CsvFile:
        return self

    def __exit__(self, kind, exc, tb) -> None:
        self.fh.close()
        if kind is not None:
            with contextlib.suppress(OSError):
                os.remove(self.fh.name)

    def add(self, *columns) -> None:
        self.write(len(columns[0]), csv_chunks(columns))

    def write(self, rows: int, chunks) -> None:
        """Write rows rows given as csv_chunks' (bytes, fallback cells)."""
        for data, slow in chunks:
            self.size += self.fh.write(data)
            self.fallback += slow
        self.rows += rows

    def record(self) -> dict:
        return _record(self.rows, self.size, self.fallback,
                       time.perf_counter() - self.start)


def _received(pipe, rows: int):
    """Yield (rows, csv_chunks' chunks) for a run of rows rows read from pipe.

    Each chunk comes as its _CHUNK header and then either its CSV text or
    the bytes of its times and of its w, which are formatted here. Raises
    EOFError if the pipe ends first: the sender has died.
    """
    done = 0
    while done < rows:
        header = pipe.read(_CHUNK.size)
        n, size, fallback = (_CHUNK.unpack(header)
                             if len(header) == _CHUNK.size else (0, 0, 0))
        n = min(n, rows - done)
        if size:
            text = pipe.read(size)
            whole, chunks = len(text) == size, [(text, fallback)]
        else:
            times, w = np.empty(n), np.empty(n, dtype=complex)
            whole = pipe.readinto(times) + pipe.readinto(w) == 24 * n
            chunks = csv_chunks((times, w))
        if not (n and whole):
            raise EOFError(f"the run ended after {done} of {rows} rows")
        yield n, chunks
        done += n


def _lift_trim_threshold() -> None:
    """Keep a process's CSV formatting from faulting its pages in anew.

    glibc gives the top of its heap back to the OS whenever more than its
    trim threshold is free there: 128 KiB, or twice the largest mmap()ed
    block freed so far. One chunk's formatting temporaries pass that, so
    each chunk would fault its pages in again (some 140k faults for the
    README run, nearly doubling the writer's CPU time). Freeing one 4 MiB
    block first lifts the threshold above them; every csv_chunks call does.
    """
    np.empty(1 << 19)


def _writer_child(csv: StreamedCsv, data_fd: int, report_fd: int,
                  parent_fds: tuple[int, int]):
    """The whole life of a writer child: write the chunks read from data_fd
    to csv's file, then send its record on report_fd, or its error there
    (CsvFile removes the partial file). It first closes its copies of the
    parent's pipe ends, so that the data pipe ends when the parent closes
    it or dies, and ends only through os._exit, so it never runs the
    parent's atexit handlers or teardown or flushes its stdio buffers."""
    code = 1
    try:
        for fd in parent_fds:
            os.close(fd)
        with open(data_fd, "rb") as pipe, open(report_fd, "wb") as report:
            try:
                with CsvFile(csv.path, csv.header) as out:
                    for rows, chunks in _received(pipe, csv.rows):
                        out.write(rows, chunks)
            except BaseException as exc:
                report.write(str(exc).encode())
            else:
                report.write(_REPORT.pack(*out.record().values()))
                code = 0
    finally:
        os._exit(code)


class StreamedCsv:
    """A CSV file of rows rows, written while the run that fills it goes on.

    Entering forks a writer child and returns send(times, w), which pipes
    it a chunk: a float column and a complex one (three in the file, see
    csv_chunks). The child formats on a second core beside the run, and
    touches only numpy, its pipes and the file, so no lock held by a thread
    that fork does not copy can stop it. When the child is behind, with a
    whole raw chunk still unread in the pipe, send formats its chunk in the
    run instead and pipes the text, so both cores format; the child stays
    the file's only writer and writes every chunk in order. Without os.fork
    (Windows) send writes inline. Leaving reaps the child on every path. A
    clean exit sets record, the file's manifest entry plus writer_cpu_s, the
    child's user plus system seconds from os.wait4 (inline, the CPU seconds
    of send), and run_formatted_chunks, the chunks formatted in the run
    (inline, all of them). An exception removes the file, which holds a
    failed run; a failed writer, or a pipe the child has closed, raises
    OSError.
    """

    def __init__(self, path: str, header: str, rows: int) -> None:
        self.path, self.header, self.rows = path, header, rows
        self.pid, self.cpu_s, self.record = None, 0.0, None
        self.formatted = 0

    def __enter__(self):
        if not hasattr(os, "fork"):
            self.out = CsvFile(self.path, self.header)
            return self._add
        import fcntl

        sys.stdout.flush()
        sys.stderr.flush()
        data_r, data_w = os.pipe()
        report_r, report_w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (data_r, data_w, report_r, report_w):
                os.close(fd)
            raise
        if not self.pid:
            _writer_child(self, data_r, report_w, (data_w, report_r))
        os.close(data_r)
        os.close(report_w)
        if hasattr(fcntl, "F_SETPIPE_SZ"):  # Linux
            # A pipe holds 64 KiB by default, a third of a chunk, so each
            # side would wait on the other at every chunk.
            with contextlib.suppress(OSError):  # over the host's maximum
                fcntl.fcntl(data_w, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        self.pipe, self.report = open(data_w, "wb"), open(report_r, "rb")
        return self._send

    def _behind(self) -> bool:
        """Whether a whole raw chunk waits unread in the pipe to the child."""
        import fcntl
        import termios

        # Linux counts a pipe's unread bytes from either end; where the
        # write end reads 0, the child formats every chunk
        unread = fcntl.ioctl(self.pipe, termios.FIONREAD, bytes(4))
        return int.from_bytes(unread, sys.byteorder) >= _BEHIND

    def _send(self, times, w) -> None:
        if not self._behind():
            self.pipe.write(_CHUNK.pack(len(times), 0, 0))
            self.pipe.write(times)
            self.pipe.write(w)
            return
        texts, fallbacks = zip(*csv_chunks((times, w)))
        text = b"".join(texts)
        self.pipe.write(_CHUNK.pack(len(times), len(text), sum(fallbacks)))
        self.pipe.write(text)
        self.formatted += 1

    def _add(self, times, w) -> None:
        mark = time.process_time()
        self.out.add(times, w)
        self.cpu_s += time.process_time() - mark
        self.formatted += 1

    def __exit__(self, kind, exc, tb) -> bool:
        failure = ""
        if self.pid is None:
            self.out.fh.close()
            record = self.out.record()
        else:
            with contextlib.suppress(BrokenPipeError):
                self.pipe.close()  # the child sees the end of the run
            with self.report:
                report = self.report.read()
            _, status, usage = os.wait4(self.pid, 0)
            self.cpu_s = usage.ru_utime + usage.ru_stime
            if code := os.waitstatus_to_exitcode(status):
                failure = report.decode() or (
                    f"the {os.path.basename(self.path)} writer ended with "
                    f"status {code}")
            else:
                record = _record(*_REPORT.unpack(report))
        if kind is not None or failure:
            with contextlib.suppress(OSError):
                os.remove(self.path)
        if failure and (kind is None or issubclass(kind, BrokenPipeError)):
            raise OSError(failure) from exc
        if kind is None:
            self.record = {**record, "writer_cpu_s": self.cpu_s,
                           "run_formatted_chunks": self.formatted}
        return False
