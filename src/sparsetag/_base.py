"""Names the CLI and every layer share, kept free of NumPy.

The CLI builds its parser and catches the package's errors from here, so
``--help`` and usage errors import no layer, and ``eval`` no numerical one.
"""

# Objective variants of sparse coding; see :mod:`sparsetag.sparse_coding`.
VARIANTS = ("sc1", "sc3", "sc4")

# Feature schemes; see :mod:`sparsetag.features`.
SCHEMES = ("sc", "dense", "brown", "fr_w", "fr_wc", "wi", "wi_sc")

# Corpus file formats; see :mod:`sparsetag.corpus`.
CORPUS_FORMATS = ("conllx", "conllu", "ner2002", "ner2003")


class SparsetagError(Exception):
    """Base of every error the package raises for bad input or a failed solve.

    Each subclass also derives from ``ValueError`` (bad input) or
    ``RuntimeError`` (a solver failure). The CLI reports any of them with
    exit code 1.
    """
