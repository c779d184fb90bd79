"""Names the CLI and every layer share, kept free of NumPy.

The CLI builds its parser and catches the package's errors from here, so
``--help``, ``eval`` and usage errors never import the numerical layers.
"""

# Objective variants of sparse coding; see :mod:`sparsetag.sparse_coding`.
VARIANTS = ("sc1", "sc3", "sc4")


class SparsetagError(Exception):
    """Base of every error the package raises for bad input or a failed solve.

    Each subclass also derives from ``ValueError`` (bad input) or
    ``RuntimeError`` (a solver failure). The CLI reports any of them with
    exit code 1.
    """
