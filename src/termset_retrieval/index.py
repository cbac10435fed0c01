"""Identifier registry and the prefix -> postings inverted index.

Term-level posting lists are global and immutable once built. Prefixes
are never stored: a decoding step holds a beam of prefixes with the
documents whose identifiers contain every prefix term, and `expand` turns
it into a `Step`, whose extensions of each prefix are the union of its
documents' remaining identifier terms.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from . import atomic
from .errors import DataError, InvariantError
from .importance import IdentifierTable, TermDictionary, _find, _first_bad_row, _strictly_ascending

_INDEX_FORMAT = "termset-index/3"


@dataclass
class Step:
    """Every one-term extension of a whole beam of equal-depth prefixes.

    The beam: row h of `seqs` is hypothesis h's prefix, and `beam_docs`
    lists the documents that hold each prefix, hypothesis by hypothesis
    (ascending within each). Extensions are
    ordered by (parent, term): `parents` and `terms` name them, `sizes`
    count their child documents and `leads` hold the lowest child document.
    Extension i's child postings, ascending, are beam_docs[k - origins[i]]
    for the keys k of its run, keys[starts[i]:][:sizes[i]].
    `offsets[h]:offsets[h + 1]` are hypothesis h's extensions.
    """

    searchable: object
    seqs: np.ndarray
    beam_docs: np.ndarray
    parents: np.ndarray
    terms: np.ndarray
    sizes: np.ndarray
    leads: np.ndarray
    keys: np.ndarray
    starts: np.ndarray
    origins: np.ndarray
    offsets: np.ndarray

    @property
    def depth(self) -> int:
        return self.seqs.shape[1]

    @property
    def n(self) -> int:
        return self.searchable.n

    def children(self, picks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Child postings of extensions `picks`, as flat docs and offsets."""
        sizes = self.sizes[picks]
        ptr = np.zeros(len(picks) + 1, dtype=np.int64)
        np.cumsum(sizes, out=ptr[1:])
        if ptr[-1] == len(picks):  # every child is one document, its lead
            return self.leads[picks], ptr
        gather = np.repeat(self.starts[picks] - ptr[:-1], sizes) + np.arange(ptr[-1])
        return self.beam_docs.take(self.keys[gather] - np.repeat(self.origins[picks], sizes)), ptr

    def locate(self, hyps: np.ndarray, terms: np.ndarray) -> np.ndarray:
        """Position of extension (hyps[i], terms[i]) in the step, -1 where there is none."""
        vocab = len(self.searchable.dictionary)
        keys = self.parents * vocab + self.terms  # ascending: extensions go by (parent, term)
        return np.where((terms >= 0) & (terms < vocab), _find(keys, hyps * vocab + terms), -1)

    def descend(self, picks: np.ndarray):
        """The next beam: one hypothesis per distinct extension among `picks`.

        Returns its prefixes, its postings (flat docs and offsets), and each
        pick's hypothesis in it.
        """
        kept, inverse = np.unique(picks, return_inverse=True)
        docs, ptr = self.children(kept)
        seqs = np.column_stack([self.seqs[self.parents[kept]], self.terms[kept]])
        return seqs, docs, ptr, inverse


def root_beam(searchable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The depth-0 beam, as `expand` takes it: the empty prefix, held by every document."""
    docs = searchable.all_docs
    return np.empty((1, 0), dtype=np.int64), docs, np.array([0, len(docs)])


def _expand(searchable, seqs, docs, ptr, columns) -> Step:
    """The beam's extensions (see `Step`), from the terms each document may add.

    `columns[i]` holds the distinct terms, ascending, that may follow the
    prefix for document docs[i]; terms of the hypothesis's own prefix are
    dropped. A beam whose every hypothesis holds one document is expanded
    as a dense block (`_dense_step`), any other by one sort (`_sort_step`);
    both give the same extensions, child sizes, leads and child postings.
    """
    vocab = len(searchable.dictionary)
    if len(docs) * vocab > 1 << 63:  # the sort's keys lie below 2 x docs x V, and 2**64
        raise InvariantError(f"{len(docs)} beam documents x {vocab} terms overflow the sort key")
    if len(docs) == len(seqs) and (ptr[1:] - ptr[:-1] == 1).all():
        return _dense_step(searchable, seqs, docs, columns)
    return _sort_step(searchable, seqs, docs, ptr, columns)


def _sort_step(searchable, seqs, docs, ptr, columns) -> Step:
    """`_expand` by one sort of keys unique per (hypothesis, term, document).

    Hypothesis h's c documents (ascending) take s = bit_length(c - 1) row
    bits: the document in row r among them gets the keys base[h] + (term <<
    s) + r, base[h] being the sum of V << s over the hypotheses before h.
    Sorted, they go by (hypothesis, term, document), and all lie below
    base[H] < 2 * len(docs) * V. Each run of one (hypothesis, term) is one
    extension: its length is the child size, and it lists the child
    postings in order, lead first. Only the terms are decoded for every
    key, to find the runs; hypothesis and document only at run starts.
    """
    vocab, width = len(searchable.dictionary), columns.shape[1]
    counts = ptr[1:] - ptr[:-1]
    rowbits = np.frexp(counts - 1)[1]  # bit_length(c - 1): a row among c documents
    slots = np.left_shift(counts > 0, rowbits, dtype=np.uint64, casting="unsafe")  # per term
    ends = slots.cumsum() * np.uint64(vocab)  # where each hypothesis's keys end
    top = int(ends[-1])
    dtype = np.int32 if top <= 1 << 31 else np.int64 if top <= 1 << 63 else np.uint64
    shifts = rowbits.astype(dtype)
    base = np.zeros(len(counts), dtype=dtype)
    base[1:] = ends[:-1]
    rowbase = base - ptr[:-1].astype(dtype)  # base[h] + r = rowbase[h] + position
    doc_base, doc_shift = base.repeat(counts)[:, None], shifts.repeat(counts)[:, None]
    first_key = (rowbase.repeat(counts) + np.arange(len(docs), dtype=dtype))[:, None]
    keys = np.left_shift(columns.astype(dtype, copy=False), doc_shift) + first_key
    keys = np.sort(keys, axis=None)
    # each row of width keys lies in one hypothesis's block
    terms = np.right_shift(keys.reshape(len(docs), width) - doc_base, doc_shift).ravel()
    edges = np.ones(len(keys) + 1, dtype=bool)
    np.not_equal(terms[1:], terms[:-1], out=edges[1:-1])
    edges[ptr[1:-1] * width] = True
    bounds = edges.nonzero()[0]  # run starts, then the end
    starts = bounds[:-1]
    runs = starts.searchsorted(ptr * width)
    runs = runs[1:] - runs[:-1]  # runs per hypothesis
    parents = np.arange(len(seqs)).repeat(runs)
    ids = terms[starts].astype(columns.dtype, copy=False)
    keep = np.ones(len(starts), dtype=bool)
    for column in seqs.T:  # drop the prefix's own terms
        keep &= column.repeat(runs) != ids
    starts, parents, ids = starts[keep], parents[keep], ids[keep]
    offsets = parents.searchsorted(np.arange(len(seqs) + 1))
    kept = offsets[1:] - offsets[:-1]
    # a key minus its extension's origin is its document's position in docs
    origins = np.left_shift(ids.astype(dtype, copy=False), shifts.repeat(kept))
    origins += rowbase.repeat(kept)
    return Step(
        searchable, seqs, docs, parents, ids, (bounds[1:] - bounds[:-1])[keep],
        docs.take(keys[starts] - origins), keys, starts, origins, offsets,
    )


def _dense_step(searchable, seqs, docs, columns) -> Step:
    """`_expand` of a beam in which hypothesis h holds one document, docs[h].

    Its extensions are that document's terms, columns[h], bar the prefix's:
    each has child size 1 and lead docs[h]. Its one key is h, at origin 0.
    """
    keep = (columns[:, :, None] != seqs[:, None, :]).all(axis=2)
    parents = keep.nonzero()[0]
    return Step(
        searchable, seqs, docs, parents, columns[keep], np.ones_like(parents),
        docs[parents], parents, np.arange(len(parents)), np.zeros_like(parents),
        np.searchsorted(parents, np.arange(len(seqs) + 1)),
    )


class Index:
    """The prefix index of an `IdentifierTable`; shared read-only across queries.

    It shares the table's dictionary, doc ids and read-only `order` and
    `sets` rows, which the table checked when it was built. The doc ids
    ascend strictly: document positions then order documents exactly as
    their ids do, which the decoder's tie rule uses.
    """

    def __init__(self, table: IdentifierTable):
        self.dictionary, self.doc_ids, self.n = table.dictionary, table.doc_ids, table.n
        self.order, self.sets = table.order, table.sets  # importance-descending, sorted
        num_docs, vocab = len(self.doc_ids), len(self.dictionary)
        # term-level postings as CSR: term t's documents are
        # posting_docs[posting_ptr[t]:posting_ptr[t + 1]], in position
        # order: the keys term * docs + doc are unique, so one sort orders them
        keys = self.sets.astype(np.int64) * num_docs + np.arange(num_docs)[:, None]
        self.posting_docs = (np.sort(keys, axis=None) % num_docs).astype(np.int32)
        self.posting_ptr = np.zeros(vocab + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.sets.ravel(), minlength=vocab), out=self.posting_ptr[1:])
        self.posting_sizes = np.diff(self.posting_ptr)
        self.all_docs = np.arange(num_docs, dtype=np.int32)
        self.root_feasible = terms = np.flatnonzero(self.posting_sizes > 0).astype(np.int32)
        # the root step's arrays but its beam (see `expand`); not the Step
        # itself, whose `searchable` would tie a cycle back to this index
        starts = self.posting_ptr[terms]
        self._root = (
            np.zeros(len(terms), dtype=np.int64), terms, self.posting_sizes[terms],
            self.posting_docs[starts], self.posting_docs, starts,
            np.zeros(len(terms), dtype=np.int32), np.array([0, len(terms)]),
        )
        for array in self._root:
            array.flags.writeable = False

    def __len__(self):
        return len(self.doc_ids)

    def postings(self, term_id: int) -> np.ndarray:
        return self.posting_docs[self.posting_ptr[term_id] : self.posting_ptr[term_id + 1]]

    def expand(self, seqs: np.ndarray, docs: np.ndarray, ptr: np.ndarray) -> Step:
        """Extensions of every prefix in a beam (see `Step`).

        The only depth-0 beam is the root (`root_beam`), whose children are
        the term postings: its step is built once, with the index.
        """
        if seqs.shape[1] == 0:
            return Step(self, seqs, docs, *self._root)
        return _expand(self, seqs, docs, ptr, self.sets.take(docs, axis=0))

    def doc_position(self, doc_id: str) -> int:
        """The position of a document, by bisection of the ascending `doc_ids`."""
        pos = bisect_left(self.doc_ids, doc_id)
        if pos == len(self.doc_ids) or self.doc_ids[pos] != doc_id:
            raise DataError(f"document {doc_id!r} is not in the index")
        return pos

    def identifier_ids(self, doc_id: str, ordered: bool = False) -> np.ndarray:
        row = self.order if ordered else self.sets
        return row[self.doc_position(doc_id)]

    def identifier_terms(self, doc_id: str) -> list[str]:
        return [self.dictionary.term_of(int(t)) for t in self.order[self.doc_position(doc_id)]]

    def memory_bytes(self) -> int:
        arrays = self.order.nbytes + self.sets.nbytes
        arrays += self.posting_docs.nbytes + self.posting_ptr.nbytes
        strings = sum(len(t.encode("utf-8")) for t in self.dictionary.terms)
        strings += sum(len(d.encode("utf-8")) for d in self.doc_ids)
        return arrays + strings


def build_index(table: IdentifierTable) -> Index:
    """Index a registry; its rows were checked when the table was built."""
    if not table.doc_ids:
        raise DataError("empty registry")
    return Index(table)


def naive_feasible_terms(index: Index, prefix_ids) -> np.ndarray:
    """Full-registry scan: check every document for prefix containment, then union.

    Kept as the reference path the posting-list walk is benchmarked against.
    """
    prefix = np.asarray(sorted(prefix_ids), dtype=index.sets.dtype)
    if len(prefix) == 0:
        return np.unique(index.sets)
    hits = np.isin(index.sets, prefix).sum(axis=1) == len(prefix)
    if not hits.any():
        return np.empty(0, dtype=index.sets.dtype)
    union = np.unique(index.sets[hits])
    return np.setdiff1d(union, prefix, assume_unique=True)


# ---------------------------------------------------------------------------
# Fixed-sequence view (identifier-scheme ablation)
# ---------------------------------------------------------------------------


class SequenceView:
    """Decoding constraints for fixed-order identifiers over the same registry.

    The feasible set at depth i is each surviving document's i-th stored
    term, i.e. a trie over the importance-ordered sequences.
    """

    def __init__(self, index: Index):
        self.index = index
        self.n = index.n
        self.dictionary = index.dictionary
        self.doc_ids = index.doc_ids
        self.all_docs = index.all_docs

    def expand(self, seqs: np.ndarray, docs: np.ndarray, ptr: np.ndarray) -> Step:
        """Extensions of every prefix in a beam: each document's next stored term."""
        depth = seqs.shape[1]
        return _expand(self, seqs, docs, ptr, self.index.order[docs, depth : depth + 1])


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

# the magic line, then n, docs, terms and the byte lengths of the terms and
# doc-id sections as little-endian uint64; the sections start at _START
_MAGIC = f"{_INDEX_FORMAT}\n".encode()
_HEADER = struct.Struct("<5Q")
_START = len(_MAGIC) + _HEADER.size


def save_index(index: Index, path) -> None:
    """Header, terms, doc ids, then `order` as `<i4` rows 8-byte aligned; byte-stable.

    A term or doc id holding a newline, which separates them in the file,
    is a DataError, raised before anything is written.
    """
    terms, docs = _joined(index.dictionary.terms, "term"), _joined(index.doc_ids, "document id")
    header = _HEADER.pack(index.n, len(index.doc_ids), len(index.dictionary), len(terms), len(docs))
    pad = bytes(-(_START + len(terms) + len(docs)) % 8)
    order = index.order.astype("<i4").tobytes()
    atomic.write_bytes(path, b"".join([_MAGIC, header, terms, docs, pad, order]))


def _joined(strings: list[str], what: str) -> bytes:
    """`strings` joined by newlines, as UTF-8."""
    text = "\n".join(strings)
    if text.count("\n") > max(len(strings) - 1, 0):
        bad = next(s for s in strings if "\n" in s)
        raise DataError(f"{what} {bad!r} holds a newline")
    return text.encode("utf-8")


def load_index(path) -> Index:
    """Rebuild an index from its file, checking every section and row once.

    Section sizes are checked against the file length before any array is
    made. A bad file is a DataError naming `path`, and a bad row also names
    its document.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(_MAGIC):
        raise DataError(f"{path}: not a {_INDEX_FORMAT} file (rebuild it with build-index)")
    if len(data) < _START:
        raise DataError(f"{path}: truncated header")
    n, num_docs, num_terms, terms_size, docs_size = _HEADER.unpack_from(data, len(_MAGIC))
    docs_at = _START + terms_size
    order_at = -(-(docs_at + docs_size) // 8) * 8
    size = order_at + 4 * num_docs * n
    if size != len(data):
        raise DataError(f"{path}: the header gives {size} bytes, the file has {len(data)}")
    if any(data[docs_at + docs_size : order_at]):
        raise DataError(f"{path}: padding before the term ids is not zero")
    if not num_docs:
        raise DataError(f"{path}: empty registry")
    terms = _split(path, data, _START, terms_size, num_terms, "terms")
    doc_ids = _split(path, data, docs_at, docs_size, num_docs, "documents")
    if not _strictly_ascending(terms):
        raise DataError(f"{path}: terms not unique and in sorted order")
    if not _strictly_ascending(doc_ids):
        raise DataError(f"{path}: documents not unique and in sorted order")
    # a copy: the index does not pin the file's bytes
    order = np.frombuffer(data, "<i4", num_docs * n, order_at).reshape(num_docs, n).astype(np.int32)
    sets = np.sort(order, axis=1)
    bad = _first_bad_row(sets, num_terms)
    if bad:
        check, row, earlier = bad
        message = {
            "range": f"term id outside [0, {num_terms})",
            "term": "identifier repeats a term",
            "set": f"identifier set repeats that of document {doc_ids[earlier]!r}",
        }[check]
        raise DataError(f"{path}: document {doc_ids[row]!r}: {message}")
    return Index(IdentifierTable._checked(n, TermDictionary(terms), doc_ids, order, sets))


def _split(path, data: bytes, at: int, size: int, count: int, what: str) -> list[str]:
    """The `count` newline-separated UTF-8 strings in data[at:at + size]."""
    try:
        text = data[at : at + size].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: byte {at + exc.start} is not UTF-8 text") from None
    strings = text.split("\n") if text or count else []
    if len(strings) != count:
        raise DataError(f"{path}: the header counts {count} {what}, the file holds {len(strings)}")
    return strings
