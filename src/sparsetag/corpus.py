"""CoNLL-style corpus readers, tag mapping, BIO/IOBES conversion, subsetting."""

from __future__ import annotations

import re
from dataclasses import dataclass

from ._textfiles import read_lines
from .evaluation import extract_spans


class CorpusError(ValueError):
    """Malformed corpus file or inconsistent labeling."""


@dataclass(frozen=True)
class Token:
    form: str
    label: str


@dataclass
class Dataset:
    """Ordered sentences of (form, gold label) tokens for one task."""

    sentences: list
    task: str  # "pos" | "ner"

    def __len__(self):
        return len(self.sentences)

    def labels(self):
        return [[tok.label for tok in sent] for sent in self.sentences]

    def forms(self):
        return [[tok.form for tok in sent] for sent in self.sentences]


# The 12 coarse part-of-speech categories targeted by treebank tag maps.
UNIVERSAL_POS_TAGS = frozenset(
    {"VERB", "NOUN", "PRON", "ADJ", "ADV", "ADP", "CONJ", "DET", "NUM", "PRT", "X", "."}
)

_NER_TAG_RE = re.compile(r"^(O|[BIES]-[^\s]+)$")


def _sentences_from_rows(row_iter):
    sentences = []
    current = []
    for row in row_iter:
        if row is None:
            if current:
                sentences.append(current)
                current = []
        else:
            current.append(row)
    if current:
        sentences.append(current)
    return sentences


def read_conllx(path, use_cpostag=False) -> Dataset:
    """Read a CoNLL-X file: tab-separated, FORM in column 2, POSTAG in 5.

    With ``use_cpostag`` the coarse tag (column 4) is taken instead.
    Blank lines separate sentences; trailing blanks are ignored.
    """
    tag_col = 3 if use_cpostag else 4

    def rows():
        for lineno, line in read_lines(path, CorpusError):
            if not line.strip():
                yield None
                continue
            cols = line.split("\t")
            if len(cols) < 5:
                raise CorpusError(
                    f"{path}:{lineno}: expected >= 5 tab-separated columns, found {len(cols)}"
                )
            if not cols[1]:
                raise CorpusError(f"{path}:{lineno}: empty word form")
            yield Token(form=cols[1], label=cols[tag_col])

    sentences = _sentences_from_rows(rows())
    if not sentences:
        raise CorpusError(f"{path}: no sentences found")
    return Dataset(sentences=sentences, task="pos")


_CONLLU_PLAIN_ID = re.compile(r"^\d+$")
_CONLLU_RANGE_ID = re.compile(r"^\d+-\d+$")
_CONLLU_EMPTY_ID = re.compile(r"^\d+\.\d+$")


def read_conllu(path) -> Dataset:
    """Read a CoNLL-U file, taking UPOS (column 4) as the label.

    Comment lines start with '#'. Multiword-token range lines (id ``i-j``)
    are dropped while their component word lines are kept; empty-node
    lines (id ``i.j``) are dropped.
    """

    def rows():
        for lineno, line in read_lines(path, CorpusError):
            if not line.strip():
                yield None
                continue
            if line.startswith("#"):
                continue
            cols = line.split("\t")
            if len(cols) < 4:
                raise CorpusError(
                    f"{path}:{lineno}: expected >= 4 tab-separated columns, found {len(cols)}"
                )
            tok_id = cols[0]
            if _CONLLU_RANGE_ID.match(tok_id) or _CONLLU_EMPTY_ID.match(tok_id):
                continue
            if not _CONLLU_PLAIN_ID.match(tok_id):
                raise CorpusError(f"{path}:{lineno}: malformed token id {tok_id!r}")
            if not cols[1]:
                raise CorpusError(f"{path}:{lineno}: empty word form")
            yield Token(form=cols[1], label=cols[3])

    sentences = _sentences_from_rows(rows())
    if not sentences:
        raise CorpusError(f"{path}: no sentences found")
    return Dataset(sentences=sentences, task="pos")


def read_conll_ner(path, fmt="2003", normalize=True) -> Dataset:
    """Read a CoNLL-2002/2003 NER file (whitespace columns, tag last).

    ``-DOCSTART-`` lines are dropped. 2003-style files use IOB1 and are
    normalized to BIO on read (unless ``normalize`` is off, e.g. for
    prediction files that are already canonical): each sentence's spans,
    as :func:`~sparsetag.evaluation.extract_spans` reads them, are
    rewritten with a B- tag on every span start. Tags must look like
    ``O`` or ``B-TYPE``/``I-TYPE`` (``E-``/``S-`` accepted so IOBES
    prediction files can be re-read).
    """
    if fmt not in ("2002", "2003"):
        raise CorpusError(f"unsupported NER format: {fmt!r}")

    def rows():
        for lineno, line in read_lines(path, CorpusError):
            if not line.strip():
                yield None
                continue
            cols = line.split()
            if cols[0] == "-DOCSTART-":
                continue
            if len(cols) < 2:
                raise CorpusError(
                    f"{path}:{lineno}: expected at least 'form tag', found {line!r}"
                )
            tag = cols[-1]
            if not _NER_TAG_RE.match(tag):
                raise CorpusError(f"{path}:{lineno}: malformed NER tag {tag!r}")
            yield Token(form=cols[0], label=tag)

    sentences = _sentences_from_rows(rows())
    if not sentences:
        raise CorpusError(f"{path}: no sentences found")
    if fmt == "2003" and normalize:
        sentences = [_respan(sent, iobes=False)[0] for sent in sentences]
    return Dataset(sentences=sentences, task="ner")


def load_tagmap(path) -> dict:
    """Read a two-column ``fine<TAB>universal`` tag map; '#' comments allowed."""
    mapping = {}
    for lineno, line in read_lines(path, CorpusError):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 2:
            raise CorpusError(f"{path}:{lineno}: expected 'fine<TAB>universal'")
        mapping[cols[0]] = cols[1]
    return mapping


def map_universal(dataset: Dataset, tagmap: dict) -> Dataset:
    """Replace every fine POS tag by its mapped tag; unmapped tags error."""
    sentences = []
    for sent in dataset.sentences:
        mapped = []
        for tok in sent:
            if tok.label not in tagmap:
                raise CorpusError(f"tag {tok.label!r} missing from tag map")
            mapped.append(Token(form=tok.form, label=tagmap[tok.label]))
        sentences.append(mapped)
    return Dataset(sentences=sentences, task=dataset.task)


def _span_tags(spans, length, iobes=False):
    """Tags of ``length`` tokens holding the given (type, start, end) spans.

    BIO marks a span B- then I-; IOBES marks a one-token span S- and a
    longer one B-, I-..., E-. Tokens outside every span are O.
    """
    tags = ["O"] * length
    for etype, start, end in spans:
        if start == end and iobes:
            tags[start] = "S-" + etype
            continue
        tags[start] = "B-" + etype
        for i in range(start + 1, end + 1):
            tags[i] = "I-" + etype
        if iobes:
            tags[end] = "E-" + etype
    return tags


def _respan(sentence, iobes):
    """Rewrite a sentence's tags in one scheme. Returns (tokens, repairs).

    Spans are read as the scorer reads them; a span whose first tag is I-
    (no live span of its type before it) counts as one repair.
    """
    tags = [tok.label for tok in sentence]
    spans = extract_spans(tags)
    repairs = sum(tags[start].startswith("I-") for _, start, _ in spans)
    new_tags = _span_tags(spans, len(tags), iobes=iobes)
    return [Token(form=tok.form, label=tag) for tok, tag in zip(sentence, new_tags)], repairs


def to_iobes(dataset: Dataset):
    """Convert BIO (or IOBES) labels to IOBES. Returns (dataset, repair count).

    Spans are read as :func:`~sparsetag.evaluation.extract_spans` reads
    them, so the converted tags hold exactly the entities the scorer
    counts. A span that starts with an I- tag is repaired as a span start
    and counted.
    """
    converted = [_respan(sent, iobes=True) for sent in dataset.sentences]
    sentences = [tokens for tokens, _ in converted]
    return Dataset(sentences=sentences, task=dataset.task), sum(n for _, n in converted)


def from_iobes(dataset: Dataset) -> Dataset:
    """Inverse of :func:`to_iobes`: the same spans, rewritten in BIO."""
    sentences = [_respan(sent, iobes=False)[0] for sent in dataset.sentences]
    return Dataset(sentences=sentences, task=dataset.task)


def iobes_labels(entity_types) -> list:
    """Full IOBES label alphabet for the given entity types (plus O)."""
    labels = ["O"]
    for etype in sorted(entity_types):
        for prefix in ("B", "I", "E", "S"):
            labels.append(f"{prefix}-{etype}")
    return labels


def subset_first_n(dataset: Dataset, n: int) -> Dataset:
    """The first min(n, |dataset|) sentences, in original order."""
    if n < 1:
        raise CorpusError("subset size must be >= 1")
    return Dataset(sentences=dataset.sentences[:n], task=dataset.task)


def replace_labels(dataset: Dataset, label_sequences) -> Dataset:
    """A copy of ``dataset`` with gold labels swapped for the given ones."""
    if len(label_sequences) != len(dataset.sentences):
        raise CorpusError("label sequences do not match dataset shape")
    sentences = []
    for sent, labels in zip(dataset.sentences, label_sequences):
        if len(labels) != len(sent):
            raise CorpusError("label sequences do not match dataset shape")
        sentences.append(
            [Token(form=tok.form, label=lab) for tok, lab in zip(sent, labels)]
        )
    return Dataset(sentences=sentences, task=dataset.task)


def write_dataset(path, dataset: Dataset, fmt: str) -> None:
    """Write ``dataset`` in the given input format's column layout.

    Only the columns this toolkit reads are populated; the rest are '_'.
    The output re-parses under the matching reader.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for sent in dataset.sentences:
            for i, tok in enumerate(sent, start=1):
                if fmt == "conllx":
                    cols = [str(i), tok.form, "_", tok.label, tok.label] + ["_"] * 5
                    fh.write("\t".join(cols) + "\n")
                elif fmt == "conllu":
                    cols = [str(i), tok.form, "_", tok.label] + ["_"] * 6
                    fh.write("\t".join(cols) + "\n")
                elif fmt in ("ner2002", "ner2003"):
                    fh.write(f"{tok.form} {tok.label}\n")
                else:
                    raise CorpusError(f"unsupported output format: {fmt!r}")
            fh.write("\n")


def read_dataset(path, fmt: str, use_cpostag=False, normalize=True) -> Dataset:
    """Dispatch to the reader matching a CLI format name."""
    if fmt == "conllx":
        return read_conllx(path, use_cpostag=use_cpostag)
    if fmt == "conllu":
        return read_conllu(path)
    if fmt == "ner2002":
        return read_conll_ner(path, fmt="2002", normalize=normalize)
    if fmt == "ner2003":
        return read_conll_ner(path, fmt="2003", normalize=normalize)
    raise CorpusError(f"unsupported corpus format: {fmt!r}")
