"""Sparse-coded word-embedding features for CRF sequence labeling.

Every public name, and every submodule, is imported on first use
(PEP 562), so ``import sparsetag`` loads no layer and no NumPy.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "BasisReport": "sparse_coding",
    "CoverageReport": "embeddings",
    "CrfModel": "crf",
    "Dataset": "corpus",
    "Dictionary": "sparse_coding",
    "EmbeddingTable": "embeddings",
    "FeatureConfig": "features",
    "FeatureResources": "features",
    "SparseCodes": "sparse_coding",
    "SparseCodingConfig": "sparse_coding",
    "Token": "corpus",
    "TrainConfig": "crf",
    "encode": "sparse_coding",
    "learn_dictionary": "sparse_coding",
    "load_embeddings": "embeddings",
    "solve_lasso": "sparse_coding",
    "sparsity_level": "sparse_coding",
}

_SUBMODULES = ("cli", "corpus", "crf", "embeddings", "evaluation", "features", "sparse_coding")

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
