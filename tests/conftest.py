import numpy as np
import pytest
from hypothesis import strategies as st

from termset_retrieval.importance import IdentifierTable
from termset_retrieval.index import SequenceView, build_index, root_beam
from termset_retrieval.scorer import _query_slots
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


def holders(searchable, prefix):
    """Positions of the documents holding `prefix`, by a full-registry scan.

    Under `Index` an identifier holds a prefix that names distinct terms of
    its set; under `SequenceView`, one its stored order starts with.
    """
    prefix = np.asarray(prefix, dtype=np.int64)
    if isinstance(searchable, SequenceView):
        return np.flatnonzero((searchable.index.order[:, : len(prefix)] == prefix).all(axis=1))
    return np.flatnonzero(np.isin(searchable.sets, prefix).sum(axis=1) == len(prefix))


def one_step(searchable, prefix):
    """`expand` of the one-prefix beam `prefix`, its documents found by `holders`."""
    docs = holders(searchable, prefix)
    seqs = np.asarray(prefix, dtype=np.int64).reshape(1, len(prefix))
    return searchable.expand(seqs, docs, np.array([0, len(docs)]))


def walk(searchable, prefix):
    """Descend from the root along `prefix` by `expand`, `locate` and `descend`.

    Returns the one-prefix beam (seqs, docs, ptr) as `expand` takes it, or
    None once a term is not among the extensions of the prefix before it.
    """
    beam = root_beam(searchable)
    for term_id in prefix:
        step = searchable.expand(*beam)
        pick = step.locate(np.zeros(1, dtype=np.int64), np.array([term_id]))
        if pick[0] < 0:
            return None
        *beam, _ = step.descend(pick)
    return tuple(beam)


# stems of at most four characters, so distinct terms often share their
# first four characters (the `query_prefix4` feature)
STEMS = ("brid", "fill", "ab", "t00")
SUFFIXES = ("", "ge", "s", "1x", "y", "zz")
STEM_WORDS = tuple(sorted(stem + suffix for stem in STEMS for suffix in SUFFIXES))


def prepared_rows(scorer, queries):
    """A per-row query list as the kernels take it: the scorer's form of its
    distinct queries (`prepare`), and each row's position among them."""
    slots, qidx = _query_slots(queries)
    return scorer.prepare(slots), qidx


def word_registry(num_docs, vocab_size, n, seed=0):
    """`make_random_identifiers` with its terms renamed to words from STEM_WORDS."""
    table = make_random_identifiers(num_docs, vocab_size, n, seed=seed)
    rename = dict(zip(sorted({t for ts in table.terms_by_doc.values() for t in ts}), STEM_WORDS))
    return IdentifierTable(
        n, {doc: [rename[t] for t in terms] for doc, terms in table.terms_by_doc.items()}
    )


def outcome(load, path):
    """What `load` makes of a file: ("ok", what it returned) or (exception type, message)."""
    try:
        return "ok", load(path)
    except Exception as exc:  # noqa: BLE001 - every failure is compared with the oracle's
        return type(exc).__name__, str(exc)


# UTF-8 chunks that shift a text file's records, ids and line breaks;
# \x0c, U+0085 and U+2028 split a line for `str.splitlines` only
FUZZ_CHUNKS = st.sampled_from(
    [b"\t", b"\n", b"\r", b",", b"-", b" ", b"0", b"1", b"9", b"D", b"T", b"x", b"_",
     b"\xff", b"\xc3", b"\x0c", b"\xc2\x85", "\u2028".encode(), "\u0663".encode()]
)


@st.composite
def file_mutations(draw, data: bytes):
    """One byte-level edit at a random offset, or a whole line deleted, duplicated or swapped."""
    kind = draw(st.sampled_from(["truncate", "replace", "insert", "delete", "delete-line",
                                 "duplicate-line", "swap-lines"]))
    if "line" in kind:
        lines = data.split(b"\n")
        i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
        if kind == "delete-line":
            del lines[i]
        elif kind == "duplicate-line":
            lines.insert(j, lines[i])
        else:
            lines[i], lines[j] = lines[j], lines[i]
        return b"\n".join(lines)
    at = draw(st.integers(0, len(data)))
    if kind == "truncate":
        return data[:at]
    if kind == "delete":
        return data[:at] + data[at + draw(st.integers(1, 8)) :]
    chunk = b"".join(draw(st.lists(FUZZ_CHUNKS, min_size=1, max_size=3)))
    if kind == "insert":
        return data[:at] + chunk + data[at:]
    return data[:at] + chunk + data[at + len(chunk) :]
