import numpy as np
import pytest

from termset_retrieval.importance import IdentifierTable
from termset_retrieval.index import build_index
from termset_retrieval.synthetic import make_random_identifiers


def central_difference(fn, weights, step=1e-5):
    """Independent gradient oracle: central finite differences per coordinate."""
    grad = np.zeros_like(weights)
    for i in range(len(weights)):
        up, down = weights.copy(), weights.copy()
        up[i] += step
        down[i] -= step
        grad[i] = (fn(up) - fn(down)) / (2 * step)
    return grad


def max_relative_error(a, b, floor=1e-5):
    """Relative error with a floor at the finite-difference noise scale.

    Central differences at step 1e-5 carry roundoff/truncation noise around
    1e-10, so components smaller than the floor are compared absolutely
    against it rather than amplifying noise.
    """
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / scale))


@pytest.fixture
def tiny_table():
    """Three documents over seven terms: {a,b,c}, {a,b,d}, {e,f,g}."""
    return IdentifierTable(
        3,
        {
            "D1": ["a", "b", "c"],
            "D2": ["a", "b", "d"],
            "D3": ["e", "f", "g"],
        },
    )


@pytest.fixture
def tiny_index(tiny_table):
    return build_index(tiny_table)


def term_ids(index, *terms):
    return [index.dictionary.id_of(t) for t in terms]


# stems of at most four characters, so distinct terms often share their
# first four characters (the `query_prefix4` feature)
STEMS = ("brid", "fill", "ab", "t00")
SUFFIXES = ("", "ge", "s", "1x", "y", "zz")
STEM_WORDS = tuple(sorted(stem + suffix for stem in STEMS for suffix in SUFFIXES))


def word_registry(num_docs, vocab_size, n, seed=0):
    """`make_random_identifiers` with its terms renamed to words from STEM_WORDS."""
    table = make_random_identifiers(num_docs, vocab_size, n, seed=seed)
    rename = dict(zip(sorted({t for ts in table.terms_by_doc.values() for t in ts}), STEM_WORDS))
    return IdentifierTable(
        n, {doc: [rename[t] for t in terms] for doc, terms in table.terms_by_doc.items()}
    )
