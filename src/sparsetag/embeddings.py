"""Dense word-embedding tables: loading, lookup and corpus coverage."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ._base import SparsetagError
from ._textfiles import parse_numbers, read_lines


class EmbeddingError(SparsetagError, ValueError):
    """Malformed embedding file or inconsistent table.

    ``row`` is the index of the offending word when one word is at fault,
    so a reader can name its line.
    """

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


@dataclass(frozen=True)
class CoverageReport:
    """Fraction of corpus tokens / distinct word forms that have a vector."""

    tokens_total: int
    tokens_covered: int
    types_total: int
    types_covered: int

    @property
    def token_coverage(self) -> float:
        return self.tokens_covered / self.tokens_total if self.tokens_total else 0.0

    @property
    def type_coverage(self) -> float:
        return self.types_covered / self.types_total if self.types_total else 0.0


class EmbeddingTable:
    """Immutable vocabulary plus row-major matrix of dense word vectors.

    ``vectors[i]`` is the embedding of ``words[i]``.
    """

    def __init__(self, words, vectors):
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise EmbeddingError("vector matrix must be 2-dimensional")
        if len(words) != vectors.shape[0]:
            raise EmbeddingError(
                f"{len(words)} words but {vectors.shape[0]} vector rows"
            )
        if not np.all(np.isfinite(vectors)):
            raise EmbeddingError("embedding matrix contains non-finite values")
        index = {}
        for i, w in enumerate(words):
            if w in index:
                raise EmbeddingError(f"duplicate word in vocabulary: {w!r}", i)
            index[w] = i
        self.words = list(words)
        self.vectors = vectors
        self._index = index

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word) -> bool:
        return word in self._index

    def row(self, word):
        """Index of ``word`` under exact match, or None."""
        return self._index.get(word)

    def lookup(self, word, lowercase_fallback=False):
        """Vector for ``word``, or None.

        Matching is exact; with ``lowercase_fallback`` the lowercased form
        is tried before giving up.
        """
        i = self._index.get(word)
        if i is None and lowercase_fallback:
            i = self._index.get(word.lower())
        if i is None:
            return None
        return self.vectors[i]

    def has_vector(self, word, lowercase_fallback=False) -> bool:
        """True when a row exists for ``word``."""
        if word in self._index:
            return True
        return lowercase_fallback and word.lower() in self._index


def _looks_like_header(fields) -> bool:
    if len(fields) != 2:
        return False
    try:
        parse_numbers(fields, int)
    except ValueError:
        return False
    return True


# Lines that load_embeddings parses and checks at once. Their split fields
# stay alive until the block is parsed, so the block is kept small: on the
# seed-1 ner-tag vectors (522 lines of 64 values; medians of 61 interleaved
# loads, shared 2-core VM) 32 / 64 / 128 / 4,096 lines took 7.2 / 7.0 /
# 7.0 / 8.0 ms against 9.7 ms line by line, and the learn-dict process
# peaked at 42.7 MB RSS with 64 or 128 lines, 43.1 MB with 256 and 44.8 MB
# with 512 or more, against 43.6 MB line by line.
_EMBEDDING_ROWS = 128


def load_embeddings(path, format="text") -> EmbeddingTable:
    """Read a whitespace-separated text embedding file.

    Each record is ``word v1 v2 ... vk`` on one line. An optional first
    line ``|V| k`` is auto-detected for format "text" and required for
    format "word2vec-text". The dimensionality k is fixed by the first
    data line; any disagreeing line is a parse error. A bad line raises
    ``EmbeddingError("<path>:<line>: ...")``. The records are parsed
    ``_EMBEDDING_ROWS`` lines at a time.
    """
    if format not in ("text", "word2vec-text"):
        raise EmbeddingError(f"unsupported embedding format: {format!r}")
    words, blocks, linenos, chunk = [], [], [], []
    dim = None

    def parse():
        """Move the split lines of ``chunk`` into words, blocks and linenos."""
        nonlocal dim
        if not chunk:
            return
        if dim is None:
            dim = len(chunk[0][1]) - 1
        blocks.append(_parse_records(path, chunk, dim))
        words.extend(fields[0] for _, fields in chunk)
        linenos.extend(lineno for lineno, _ in chunk)
        chunk.clear()

    try:
        for lineno, line in read_lines(path, EmbeddingError):
            fields = line.split()
            if not fields:
                continue
            if lineno == 1 and (format == "word2vec-text" or _looks_like_header(fields)):
                if format == "word2vec-text" and not _looks_like_header(fields):
                    raise EmbeddingError(
                        f"{path}:1: word2vec-text requires a '|V| k' header line"
                    )
                continue
            chunk.append((lineno, fields))
            if len(chunk) == _EMBEDDING_ROWS:
                parse()
    except EmbeddingError:
        # read_lines stops at a line that is not UTF-8, and a bad line before
        # it is named first
        parse()
        raise
    parse()
    if not words:
        raise EmbeddingError(f"{path}: no embedding records found")
    try:
        return EmbeddingTable(words, np.concatenate(blocks))
    except EmbeddingError as exc:
        where = path if exc.row is None else f"{path}:{linenos[exc.row]}"
        raise EmbeddingError(f"{where}: {exc}") from None


def _parse_records(path, chunk, dim):
    """The vectors of (line number, split line) records as one array.

    The values are parsed with one ``parse_numbers`` call and checked with
    one finiteness test. When that fails, the records are parsed one at a
    time, which raises ``EmbeddingError("<path>:<line>: ...")`` for the
    first bad one.
    """
    if dim and all(len(fields) == dim + 1 for _, fields in chunk):
        try:
            values = parse_numbers(chain.from_iterable(fields[1:] for _, fields in chunk))
        except ValueError:
            pass
        else:
            vectors = np.array(values, dtype=np.float64).reshape(len(chunk), dim)
            if np.isfinite(vectors).all():
                return vectors
    rows = []
    for lineno, fields in chunk:
        if len(fields) < 2:
            raise EmbeddingError(f"{path}:{lineno}: expected 'word v1 ... vk'")
        if len(fields) != dim + 1:
            raise EmbeddingError(
                f"{path}:{lineno}: expected {dim} values, found {len(fields) - 1}"
            )
        try:
            vec = parse_numbers(fields[1:])
        except ValueError as exc:
            raise EmbeddingError(f"{path}:{lineno}: non-numeric field ({exc})") from None
        if not all(map(math.isfinite, vec)):
            raise EmbeddingError(f"{path}:{lineno}: non-finite value")
        rows.append(vec)
    return np.array(rows, dtype=np.float64)


def save_embeddings(path, table: EmbeddingTable, header: bool = True) -> None:
    """Write a table back out in the text format (full float precision)."""
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"{len(table)} {table.dim}\n")
        for word, vec in zip(table.words, table.vectors):
            fh.write(word + " " + " ".join(repr(float(v)) for v in vec) + "\n")


def coverage(table: EmbeddingTable, dataset, lowercase_fallback=False) -> CoverageReport:
    """Token- and type-level coverage of ``table`` over ``dataset``.

    A token counts as covered when a vector row exists for its form.
    Order of sentences is irrelevant.
    """
    sentences = dataset.sentences
    if not sentences:
        raise EmbeddingError("coverage of an empty dataset is undefined")
    tokens_total = 0
    tokens_covered = 0
    seen = {}
    for sentence in sentences:
        for token in sentence:
            form = token.form
            hit = seen.get(form)
            if hit is None:
                hit = table.has_vector(form, lowercase_fallback=lowercase_fallback)
                seen[form] = hit
            tokens_total += 1
            tokens_covered += hit
    types_total = len(seen)
    types_covered = sum(seen.values())
    return CoverageReport(
        tokens_total=tokens_total,
        tokens_covered=tokens_covered,
        types_total=types_total,
        types_covered=types_covered,
    )
