"""CoNLL column-format reader (S1): the reference's native corpus format.

Reference semantics (loader.py:21-42, re-expressed):
  * one token row per line: ``word pos chunk ner`` (>= 2 whitespace columns),
  * blank line = sentence boundary,
  * ``-DOCSTART-`` sentences dropped,
  * optional digit->0 normalization per line (zeros flag).

Two surfaces:
  * ``load_sentences_py`` — exact single-process loader (differential-tested
    against the reference's own loader on its shipped corpora and on the
    committed fixture ``tests/data/mini.conll``);
  * ``read_conll`` — Ray Dataset of sentence rows. File-per-task: a CoNLL
    file cannot be split mid-sentence, so each file is one read task (the
    reference corpus model is many files; a 100 TB corpus would be many
    files too — parallelism = #files).
"""

from __future__ import annotations

import pyarrow as pa

import ray.data

from ner_pytorch_ray.functions.textnorm import zero_digits


def load_sentences_py(
    path: str, lower: bool = False, zeros: bool = True
) -> list[list[list[str]]]:
    r"""Exact reference loader semantics (loader.py:21-42). ``lower`` is kept
    for signature parity: the reference lowercases at id-lookup time, not
    here (loader.py:135-139).

    The reference iterates ``codecs.open``, which breaks lines at every
    Unicode line boundary (``str.splitlines``: also ``\x0b``, ``\x0c``,
    ``\x1c``-``\x1e``, ``\x85``, U+2028, U+2029), not only at ``\n``/``\r``
    as a text-mode ``open`` does; ``newline=""`` keeps ``\r\n`` intact so it
    stays one break."""
    sentences: list[list[list[str]]] = []
    sentence: list[list[str]] = []
    with open(path, encoding="utf-8", newline="") as f:
        lines = f.read().splitlines()
    for line in lines:
        line = zero_digits(line.rstrip()) if zeros else line.rstrip()
        if not line:
            if sentence:
                if "DOCSTART" not in sentence[0][0]:
                    sentences.append(sentence)
                sentence = []
        else:
            cols = line.split()
            if len(cols) < 2:
                raise ValueError(f"CoNLL line with <2 columns: {line!r}")
            sentence.append(cols)
    if sentence and "DOCSTART" not in sentence[0][0]:
        sentences.append(sentence)
    return sentences


def _file_to_rows(path: str, zeros: bool) -> pa.Table:
    sents = load_sentences_py(path, zeros=zeros)
    return pa.Table.from_pydict(
        {
            "url": pa.array([f"file://{path}"] * len(sents), type=pa.string()),
            "sent_id": pa.array(range(len(sents)), type=pa.int64()),
            "tokens": pa.array(
                [[w[0] for w in s] for s in sents], type=pa.list_(pa.string())
            ),
            "tags": pa.array(
                [[w[-1] for w in s] for s in sents], type=pa.list_(pa.string())
            ),
        }
    )


def read_conll(paths: list[str] | str, zeros: bool = True) -> ray.data.Dataset:
    """CoNLL files -> sentence-row Dataset (url, sent_id, tokens, tags)."""
    if isinstance(paths, str):
        paths = [paths]
    ds = ray.data.from_items([{"path": p} for p in paths])

    def load(batch: pa.Table) -> pa.Table:
        tables = [
            _file_to_rows(p, zeros) for p in batch.column("path").to_pylist()
        ]
        return pa.concat_tables(tables)

    return ds.map_batches(load, batch_format="pyarrow")
