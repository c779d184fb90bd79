"""Reading and writing the package's UTF-8 text files.

Readers decode a file a block of lines at a time; bytes that are not
UTF-8 are reported with their exact file and line. Numbers are parsed with
:func:`parse_numbers`. Writers build their output next to the target and
rename it over the target only once it is complete.
"""

from __future__ import annotations

import os
from contextlib import contextmanager


def read_lines(path, error):
    """Yield (line number, line) for every line of a UTF-8 text file.

    Lines end at '\\n', '\\r\\n' or '\\r', as in text mode, and are
    yielded without their terminator. The file is read and decoded about
    ``_BLOCK`` bytes of whole lines at a time. A line that is not valid
    UTF-8 raises ``error("<path>:<line>: ...")``, after the lines before it.
    """
    lineno = 0
    with open(path, "rb") as fh:
        for data in _line_blocks(fh):
            try:
                text = data.decode("utf-8")
            except UnicodeDecodeError:
                yield from _decode_each(path, data.splitlines(), lineno, error)  # raises
            # str.splitlines would also split at '\x0c', '\x1c'-'\x1e', '\x85',
            # '\u2028' and '\u2029'; bytes.splitlines splits where text mode does
            lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
            if not lines[-1]:
                lines.pop()
            yield from enumerate(lines, lineno + 1)
            lineno += len(lines)


# bytes read and decoded at a time, which bounds the memory a large file takes
_BLOCK = 1 << 18


def _line_blocks(fh):
    """The bytes of a binary file in blocks that end at a line end or at its end."""
    pending = []
    for block in iter(lambda: fh.read(_BLOCK), b""):
        # a '\r' that ends the block may begin a '\r\n'
        end = max(block.rfind(b"\n"), block.rfind(b"\r", 0, -1)) + 1
        if end:
            yield b"".join([*pending, block[:end]])
            pending = [block[end:]]
        else:
            pending.append(block)
    yield b"".join(pending)


def _decode_each(path, raw_lines, lineno, error):
    """Decode lines after line ``lineno`` one at a time, up to the bad one."""
    for lineno, raw in enumerate(raw_lines, lineno + 1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise error(
                f"{path}:{lineno}: not UTF-8 ({exc.reason} at byte {exc.start + 1})"
            ) from None
        yield lineno, line


# every character of a number int or float accepts, less '_', whitespace
# and non-ASCII digits; "inf", "infinity" and "nan" in any case included
_NUMBER_CHARS = b"0123456789+-.eEinftyaINFTYA"


def _number_chars_only(text):
    return text.isascii() and not text.encode().translate(None, _NUMBER_CHARS)


def parse_numbers(texts, kind=float):
    """``[kind(text) for text in texts]`` for ``kind`` int or float, strictly.

    Python's int and float also accept '_' between digits, surrounding
    whitespace and non-ASCII digits, so '1_0' would read as 10. Such text
    raises ValueError, as any text they reject does, naming the first bad
    text.
    """
    texts = list(texts)
    # one check for all texts, and one conversion if they pass it
    if all(texts) and _number_chars_only("".join(texts)):
        try:
            return list(map(kind, texts))
        except ValueError:
            pass  # the loop below names the text
    numbers = []
    for text in texts:
        try:
            if not text or not _number_chars_only(text):
                raise ValueError
            numbers.append(kind(text))
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ValueError(f"could not convert {text!r} to {what}") from None
    return numbers


@contextmanager
def atomic_output(path):
    """Yield a temp path in the target directory, renamed over ``path`` on success.

    On any failure the temp file is removed and ``path`` is left as it was.
    """
    import tempfile  # here, so that importing the CLI does not load it

    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sparsetag-")
    os.close(fd)
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
