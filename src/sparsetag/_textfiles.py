"""Reading and writing the package's UTF-8 text files.

Readers decode one line at a time, so bytes that are not UTF-8 are
reported with their exact file and line, and parse numbers with
:func:`parse_numbers`. Writers build their output next to the target and
rename it over the target only once it is complete.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager


def read_lines(path, error):
    """Yield (line number, line) for every line of a UTF-8 text file.

    Lines end at '\\n', '\\r\\n' or '\\r', as in text mode, and are
    yielded without their terminator. A line that is not valid UTF-8
    raises ``error("<path>:<line>: ...")``.
    """
    lineno = 0
    with open(path, "rb") as fh:
        for chunk in fh:
            for raw in chunk.splitlines():
                lineno += 1
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise error(
                        f"{path}:{lineno}: not UTF-8 ({exc.reason} at byte {exc.start + 1})"
                    ) from None
                yield lineno, line


# every character of a number int or float accepts, less '_', whitespace
# and non-ASCII digits; "inf", "infinity" and "nan" in any case included
_NUMBER_CHARS = "0123456789+-.eEinftyaINFTYA"


def parse_numbers(texts, kind=float):
    """``[kind(text) for text in texts]`` for ``kind`` int or float, strictly.

    Python's int and float also accept '_' between digits, surrounding
    whitespace and non-ASCII digits, so '1_0' would read as 10. Such text
    raises ValueError, as any text they reject does, naming the first bad
    text.
    """
    numbers = []
    for text in texts:
        try:
            if not text or text.strip(_NUMBER_CHARS):
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
