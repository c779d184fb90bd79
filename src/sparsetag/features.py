"""Token-in-context feature extraction for every labeling scheme.

Schemes: sparse-code indicators (sc), raw embedding coordinates (dense),
Brown-cluster path prefixes (brown), feature-rich word templates with and
without character templates (fr_w, fr_wc), word identity (wi), and the
union wi_sc. Extraction is a pure function of the sentence, position and
immutable resources; vectors come back sorted by feature string.

Under every scheme but fr_w / fr_wc a token's vector is the union, over
the offsets of its window, of the features of the word type at that
offset. Each word type is numbered once per run in a :class:`WordTypes`
table cached on the FeatureResources object, as CRFsuite interns its
attributes: the type holds one row of untagged attributes (names such
as ``+3`` or ``w=dog``, each numbered once, and their values) in name
order, and its block at offset o is that row with the offset's tag in
front of every name.

:func:`sentence_features` therefore returns a sentence as its type ids
alone; the CRF reads each (offset, type) block from the table, so
extraction, training and tagging cost per word type, not per feature
occurrence. Flattened in the string order of their tags, a position's
blocks are the token's sorted, unique vector, which
:func:`token_features` returns. Under fr_w / fr_wc each position is a
type of its own, at the one offset 0, whose names carry no tag.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain

from ._base import SCHEMES, SparsetagError
from ._textfiles import read_lines

_NUMBER_RE = re.compile(r"^[+-]?\d+([.,]\d+)*$")


class FeatureError(SparsetagError, ValueError):
    """Missing resource or invalid feature request."""


@dataclass
class FeatureConfig:
    scheme: str
    window: int = 1

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise FeatureError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.window not in (1, 2):
            raise FeatureError("window must be 1 or 2")


@dataclass(frozen=True)
class FeatureResources:
    """Immutable lookups the schemes draw on; only the needed ones are set.

    The object also caches, filled on first use, the :class:`WordTypes`
    table of each scheme and window. The cache assumes the resources never
    change: build a new object rather than editing the codes, table or
    clusters it holds.
    """

    codes: object = None          # SparseCodes
    table: object = None          # EmbeddingTable
    clusters: dict = field(default=None)  # word -> bit-string path
    lowercase_fallback: bool = False
    # (scheme, window) -> WordTypes
    _type_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)


class _Table(dict):
    """A dict that makes each missing value by ``make(key)`` and keeps it."""

    def __init__(self, make):
        super().__init__()
        self._make = make

    def __missing__(self, key):
        value = self[key] = self._make(key)
        return value


class WordTypes:
    """The types of one scheme and window, numbered in order of first use.

    Type i is one row of attributes: ``attrs[i]`` lists the ids of its
    untagged names in block order and ``values[i]`` their values.
    ``attr_names`` holds each name once, at its id. ``offsets`` pairs each
    window offset with the tag put in front of the names there, in the
    string order of the tags, so the type's block at offset o holds
    ``(tag + name, value)`` for every entry of its row. Given ``row``, a
    function from a word form to its (names, values), ``words`` maps each
    form to its type id, adding the type on first use.
    """

    def __init__(self, offsets, row=None):
        self.offsets = tuple(offsets)
        self.attr_names = []
        self.attrs = []
        self.values = []
        self._attr_index = {}
        if row is not None:
            self.words = _Table(lambda word: self.add(*row(word)))

    def __len__(self):
        return len(self.attrs)

    def add(self, names, values=None):
        """Append a type whose row holds ``names`` (values 1.0 if None); returns its id."""
        index = self._attr_index
        for name in names:
            if name not in index:
                index[name] = len(self.attr_names)
                self.attr_names.append(name)
        self.attrs.append([index[name] for name in names])
        self.values.append([1.0] * len(names) if values is None else list(values))
        return len(self.attrs) - 1

    def blocks(self, ids, t):
        """The blocks of position t of a sentence of type ``ids``, in tag order.

        One tuple of (tagged name, value) pairs per offset inside the
        sentence.
        """
        names = self.attr_names
        return [
            tuple(zip([tag + names[a] for a in self.attrs[ids[t + o]]], self.values[ids[t + o]]))
            for o, tag in self.offsets if 0 <= t + o < len(ids)
        ]


def _safe(text: str) -> str:
    """Feature strings must not contain whitespace."""
    return "".join("_" if ch.isspace() else ch for ch in text)


def _offset_tag(o: int) -> str:
    return "[0]" if o == 0 else f"[{o:+d}]"


# Window offsets in the string order of their tags, [+1] [+2] [-1] [-2] [0]:
# concatenating per-offset sorted lists in this order yields a sorted list.
_WINDOW_OFFSETS = {w: sorted(range(-w, w + 1), key=_offset_tag) for w in (1, 2)}


def sparse_features(alpha) -> set:
    """Sign-and-index indicators of a sparse code's nonzero coefficients.

    ``alpha`` is an (indices, values) pair; each nonzero j yields
    '+j' or '-j' depending on the coefficient's sign.
    """
    idx, val = alpha
    return {("+" if v > 0 else "-") + str(i) for i, v in zip(idx.tolist(), val.tolist())}


def dense_features(vector) -> list:
    """One real-valued feature per embedding coordinate, zeros included."""
    return [(f"d:{j}", float(v)) for j, v in enumerate(vector)]


def brown_features(path: str, lengths=(4, 6, 10, 20)) -> set:
    """Length-p prefixes of a Brown cluster bit-string path.

    Paths shorter than p contribute the whole path for that p.
    """
    return {f"bp{p}={path[:min(p, len(path))]}" for p in sorted(lengths)}


def load_clusters(path) -> dict:
    """Read `bitstring<TAB>word<TAB>count` Brown clustering output.

    A line whose path is empty or not made of 0s and 1s raises
    ``FeatureError("<path>:<line>: ...")``.
    """
    clusters = {}
    for lineno, line in read_lines(path, FeatureError):
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) < 2:
            raise FeatureError(f"{path}:{lineno}: expected 'path<TAB>word[<TAB>count]'")
        bits, word = cols[0], cols[1]
        if not bits or bits.strip("01"):
            raise FeatureError(f"{path}:{lineno}: path {bits!r} is not a non-empty bit string")
        clusters[word] = bits
    return clusters


def rich_features(sentence, t, include_chars=False) -> set:
    """Word-template features of the feature-rich baseline at position t.

    Word level: unigrams at offsets -2..2, target/other pairs out to
    offset 9 on each side, and contiguous 2- to 5-grams anchored around
    the target. Character level (when enabled): number / title-case /
    no-alphanumeric indicators plus prefixes and suffixes of length 1-4
    of the target form. Templates touching positions outside the
    sentence are skipped.
    """
    n = len(sentence)
    if not 0 <= t < n:
        raise FeatureError(f"position {t} out of range for sentence of length {n}")
    feats = set()

    def form(i):
        return _safe(sentence[i])

    for j in range(-2, 3):
        if 0 <= t + j < n:
            feats.add(f"w[{j}]={form(t + j)}")
    for i in range(1, 10):
        if t + i < n:
            feats.add(f"w[0,{i}]={form(t)}|{form(t + i)}")
        if t - i >= 0:
            feats.add(f"w[{-i},0]={form(t - i)}|{form(t)}")
    ngram_anchors = (
        [(j, j + 1) for j in range(-2, 2)]
        + [(j, j + 2) for j in range(-2, 1)]
        + [(j - 1, j + 2) for j in range(-1, 1)]
        + [(-2, 2)]
    )
    for a, b in ngram_anchors:
        if t + a >= 0 and t + b < n:
            grams = "|".join(form(t + i) for i in range(a, b + 1))
            feats.add(f"w[{a}..{b}]={grams}")

    if include_chars:
        w = sentence[t]
        if _NUMBER_RE.match(w):
            feats.add("num=1")
        if w.istitle():
            feats.add("title=1")
        if not any(ch.isalnum() for ch in w):
            feats.add("nonalnum=1")
        sw = _safe(w)
        for i in range(1, 5):
            feats.add(f"pre{i}={sw[:i]}")
            feats.add(f"suf{i}={sw[-i:]}")
    return feats


def _word_row(word, scheme, resources: FeatureResources):
    """(names, values) of ``word``'s untagged attributes, in name order."""
    low = resources.lowercase_fallback
    if scheme == "dense":
        vector = resources.table.lookup(word, lowercase_fallback=low)
        pairs = () if vector is None else sorted(dense_features(vector))
        return [name for name, _ in pairs], [value for _, value in pairs]
    names = []
    if scheme in ("sc", "wi_sc"):
        entry = resources.codes.get(word, lowercase_fallback=low)
        if entry is not None:
            names = sorted(sparse_features(entry))
    elif scheme == "brown":
        path = resources.clusters.get(word)
        if path is not None:
            names = sorted(brown_features(path))
    if scheme in ("wi", "wi_sc"):
        names.append(f"w={_safe(word)}")  # after every '+j' and '-j'
    return names, None


_REQUIRED = {
    "sc": ("codes", "sparse codes"),
    "wi_sc": ("codes", "sparse codes"),
    "dense": ("table", "embedding table"),
    "brown": ("clusters", "cluster table"),
}


def _check_resources(scheme, resources: FeatureResources):
    if scheme in _REQUIRED:
        attr, what = _REQUIRED[scheme]
        if getattr(resources, attr) is None:
            raise FeatureError(f"scheme {scheme!r} needs a {what}")


def word_types(config: FeatureConfig, resources: FeatureResources) -> WordTypes:
    """The run's :class:`WordTypes` table for the configured scheme and window.

    Made on first use and cached on ``resources``. Under fr_w / fr_wc it
    has the one offset 0 with an empty tag and grows by one type per
    position that :func:`sentence_features` extracts.
    """
    scheme = config.scheme
    _check_resources(scheme, resources)
    key = scheme, config.window
    types = resources._type_cache.get(key)
    if types is None:
        if scheme in ("fr_w", "fr_wc"):
            types = WordTypes([(0, "")])
        else:
            types = WordTypes(
                [(o, _offset_tag(o)) for o in _WINDOW_OFFSETS[config.window]],
                lambda word: _word_row(word, scheme, resources),
            )
        resources._type_cache[key] = types
    return types


def token_features(sentence, t, config: FeatureConfig, resources: FeatureResources):
    """Feature vector for the token at position t under the configured scheme.

    Returns a list of (feature string, value) pairs, unique and sorted.
    Indicator features carry value 1.0; out-of-vocabulary words simply
    contribute nothing at their offset.
    """
    n = len(sentence)
    if not 0 <= t < n:
        raise FeatureError(f"position {t} out of range for sentence of length {n}")
    scheme = config.scheme

    if scheme in ("fr_w", "fr_wc"):
        out = [(f, 1.0) for f in rich_features(sentence, t, include_chars=scheme == "fr_wc")]
        out.sort()
        return out

    types = word_types(config, resources)
    return list(chain.from_iterable(types.blocks(list(map(types.words.__getitem__, sentence)), t)))


def sentence_features(sentence, config: FeatureConfig, resources: FeatureResources):
    """The type ids of a sentence of word forms, one per position.

    Ids index the :class:`WordTypes` table that :func:`word_types` gives
    for the same config and resources; position t's blocks
    (``WordTypes.blocks``), flattened, are ``token_features(sentence, t,
    ...)``. Under a windowed scheme a position's id is its word's type.
    Under fr_w / fr_wc each position becomes a new type, holding its
    token's feature-rich templates.
    """
    types = word_types(config, resources)
    if config.scheme in ("fr_w", "fr_wc"):
        chars = config.scheme == "fr_wc"
        return [types.add(sorted(rich_features(sentence, t, include_chars=chars)))
                for t in range(len(sentence))]
    return list(map(types.words.__getitem__, sentence))
