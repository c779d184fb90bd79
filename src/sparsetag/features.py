"""Token-in-context feature extraction for every labeling scheme.

Schemes: sparse-code indicators (sc), raw embedding coordinates (dense),
Brown-cluster path prefixes (brown), feature-rich word templates with and
without character templates (fr_w, fr_wc), word identity (wi), and the
union wi_sc. Extraction is a pure function of the sentence, position and
immutable resources; vectors come back sorted by feature string.

Under every scheme but fr_w / fr_wc a token's vector is the union, over
the offsets of its window, of the features of the word type at that
offset. Each word's list is built and sorted once; its block at each
offset of the window is a tuple of that list with the offset's tag in
front of every name, cached on the FeatureResources object.
:func:`sentence_features` hands each position its blocks, in the string
order of their tags; flattened in that order they are the token's
sorted, unique vector, which :func:`token_features` returns. Extraction
therefore costs per word type, not per feature occurrence, and so does
scoring: a block is the same object wherever its word appears, so the
CRF scores it once. fr_w / fr_wc keep per-token templates, one list per
position.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain

from ._base import SparsetagError
from ._textfiles import read_lines

SCHEMES = ("sc", "dense", "brown", "fr_w", "fr_wc", "wi", "wi_sc")

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

    The object also caches each word type's feature list per scheme and
    window offset, filled on first use. The cache assumes the resources
    never change: build a new object rather than editing the codes, table
    or clusters it holds.
    """

    codes: object = None          # SparseCodes
    table: object = None          # EmbeddingTable
    clusters: dict = field(default=None)  # word -> bit-string path
    lowercase_fallback: bool = False
    _type_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)


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
    """Read `bitstring<TAB>word<TAB>count` Brown clustering output."""
    clusters = {}
    for lineno, line in read_lines(path, FeatureError):
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) < 2:
            raise FeatureError(f"{path}:{lineno}: expected 'path<TAB>word[<TAB>count]'")
        bits, word = cols[0], cols[1]
        if bits.strip("01"):
            raise FeatureError(f"{path}:{lineno}: path {bits!r} is not a bit string")
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


def _word_features(word, config: FeatureConfig, resources: FeatureResources):
    """(name, value) pairs of one word type under a windowed scheme, untagged."""
    scheme = config.scheme
    low = resources.lowercase_fallback
    feats = []
    if scheme in ("wi", "wi_sc"):
        feats.append((f"w={_safe(word)}", 1.0))
    if scheme in ("sc", "wi_sc"):
        entry = resources.codes.get(word, lowercase_fallback=low)
        if entry is not None:
            feats.extend((f, 1.0) for f in sparse_features(entry))
    elif scheme == "dense":
        vector = resources.table.lookup(word, lowercase_fallback=low)
        if vector is not None:
            feats.extend(dense_features(vector))
    elif scheme == "brown":
        path = resources.clusters.get(word)
        if path is not None:
            feats.extend((f, 1.0) for f in brown_features(path))
    return feats


def _type_features(word, offset, config: FeatureConfig, resources: FeatureResources):
    """Sorted, offset-tagged features of ``word`` seen at ``offset``; cached.

    On a word's first use its untagged list is sorted once, and the
    blocks of every offset of the window are built from it: a tag put in
    front of every name keeps the order. A block is a tuple, so the same
    object can be shared by every position that holds it.
    """
    scheme = config.scheme
    cache = resources._type_cache
    feats = cache.get((scheme, offset, word))
    if feats is None:
        untagged = sorted(_word_features(word, config, resources))
        for o in _WINDOW_OFFSETS[config.window]:
            tag = _offset_tag(o)
            cache[scheme, o, word] = tuple([(tag + name, value) for name, value in untagged])
        feats = cache[scheme, offset, word]
    return feats


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

    _check_resources(scheme, resources)
    return list(chain.from_iterable(_position_blocks(sentence, t, config, resources)))


def _position_blocks(sentence, t, config: FeatureConfig, resources: FeatureResources):
    """Cached blocks of the offsets around t inside the sentence, in tag order."""
    n = len(sentence)
    return tuple([
        _type_features(sentence[t + o], o, config, resources)
        for o in _WINDOW_OFFSETS[config.window] if 0 <= t + o < n
    ])


def sentence_features(sentence, config: FeatureConfig, resources: FeatureResources):
    """Feature blocks of every position of a sentence of word forms.

    Position t gets a tuple of blocks, each a sequence of (name, value)
    pairs; flattened in order they give ``token_features(sentence, t,
    ...)``. Under a windowed scheme there is one block per offset inside
    the sentence, in the string order of the offset tags, and each is the
    cached tuple of the word type there. Under fr_w / fr_wc a position
    has one block, a list built for that token alone.
    """
    n = len(sentence)
    scheme = config.scheme
    if scheme in ("fr_w", "fr_wc"):
        return [(token_features(sentence, t, config, resources),) for t in range(n)]
    _check_resources(scheme, resources)
    return [_position_blocks(sentence, t, config, resources) for t in range(n)]
