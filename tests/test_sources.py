"""CoNLL + GloVe sources: differential parity with the reference loader."""

import os

import numpy as np
import pytest

REF_TESTA = "/root/reference/dataset/eng.testa"
# Hand-written CoNLL file: -DOCSTART- blocks, blank-line runs, digits,
# non-ASCII tokens, a CRLF line, token rows split by U+0085 / U+2028 /
# U+2029 / \x0b / \x0c, and a final sentence with no trailing newline.
MINI_CONLL = os.path.join(os.path.dirname(__file__), "data", "mini.conll")
CONLL_FILES = [MINI_CONLL] + [p for p in [REF_TESTA] if os.path.exists(p)]


def test_load_sentences_matches_reference():
    # the reference loader module imports model->torch; replicate only its
    # load_sentences against ours on each corpus
    import codecs

    from ner_pytorch_ray.functions import zero_digits
    from ner_pytorch_ray.sources.conll import load_sentences_py

    for path in CONLL_FILES:
        ours = load_sentences_py(path, zeros=True)
        # reference semantics re-executed inline (loader.py:21-42)
        sentences, sentence = [], []
        for line in codecs.open(path, "r", "utf-8"):
            line = zero_digits(line.rstrip())
            if not line:
                if len(sentence) > 0:
                    if "DOCSTART" not in sentence[0][0]:
                        sentences.append(sentence)
                    sentence = []
            else:
                word = line.split()
                assert len(word) >= 2
                sentence.append(word)
        if len(sentence) > 0 and "DOCSTART" not in sentence[0][0]:
            sentences.append(sentence)

        assert len(ours) == len(sentences)
        assert ours == sentences


def test_read_conll_dataset(ray_session):
    from ner_pytorch_ray.sources.conll import read_conll, load_sentences_py

    for path in CONLL_FILES:
        ds = read_conll(path)
        n = ds.count()
        assert n == len(load_sentences_py(path))
        row = ds.take(1)[0]
        assert set(row) == {"url", "sent_id", "tokens", "tags"}
        assert len(row["tokens"]) == len(row["tags"])


def test_glove_reader_roundtrip(tmp_path):
    from ner_pytorch_ray.sources.glove import (
        read_glove_text,
        pretrained_vocab,
        build_embedding_matrix,
        pseudo_glove,
    )

    p = tmp_path / "vec.txt"
    p.write_text(
        "hello " + " ".join(["0.5"] * 4) + "\n"
        "bad line\n"
        "world " + " ".join(["-1.0"] * 4) + "\n"
    )
    d = read_glove_text(str(p), dim=4)
    assert set(d) == {"hello", "world"}  # wrong-arity row skipped
    assert pretrained_vocab(str(p)) == {"hello", "bad", "world"}

    id_to_word = {0: "hello", 1: "WORLD", 2: "zzz"}
    m = build_embedding_matrix(id_to_word, d, dim=4)
    np.testing.assert_array_equal(m[0], d["hello"])
    np.testing.assert_array_equal(m[1], d["world"])  # lowercase fallback
    # seeded-random row is deterministic
    m2 = build_embedding_matrix(id_to_word, d, dim=4)
    np.testing.assert_array_equal(m[2], m2[2])
    # pseudo embeddings deterministic too
    a = pseudo_glove(["x", "y"], dim=8)
    b = pseudo_glove(["x", "y"], dim=8)
    np.testing.assert_array_equal(a["x"], b["x"])


def test_augment_with_pretrained_matches_reference(reference_path, tmp_path):
    """J2 differential test: our augment_with_pretrained == the reference's
    (loader.py:176-211) on the same dico / embedding file / dev-test words,
    for both the words-list and the take-everything modes."""
    import loader as ref_loader  # /root/reference/loader.py (torch stubbed)

    from ner_pytorch_ray.state.vocab import augment_with_pretrained

    emb = tmp_path / "emb.txt"
    emb.write_text(
        "\n".join(
            f"{w} " + " ".join(["0.1"] * 4)
            for w in ["alpha", "beta", "gamma", "x0y", "mixedcase"]
        )
        + "\n"
    )
    dico = {"alpha": 5, "existing": 3}
    words = ["Beta", "x9y", "MixedCase", "nowhere", "alpha"]

    ref_dico, ref_w2i, ref_i2w = ref_loader.augment_with_pretrained(
        dict(dico), str(emb), list(words)
    )
    from ner_pytorch_ray.sources.glove import pretrained_vocab

    got_dico, got_w2i, got_i2w = augment_with_pretrained(
        dict(dico), pretrained_vocab(str(emb)), list(words)
    )
    assert got_dico == ref_dico
    assert got_w2i == ref_w2i

    ref_dico2, ref_w2i2, _ = ref_loader.augment_with_pretrained(
        dict(dico), str(emb), None
    )
    got_dico2, got_w2i2, _ = augment_with_pretrained(
        dict(dico), pretrained_vocab(str(emb)), None
    )
    assert got_dico2 == ref_dico2
    assert got_w2i2 == ref_w2i2


def test_augment_with_pretrained_dataset_words(ray_session):
    """Dataset form: dev/test words reduced distributively first."""
    import ray.data

    from ner_pytorch_ray.state.vocab import augment_with_pretrained

    dev = ray.data.from_items(
        [{"tokens": ["beta", "zzz"]}, {"tokens": ["x9y", "beta"]}]
    )
    dico = {"alpha": 5}
    pre = {"alpha", "beta", "x0y"}
    got_dico, w2i, _ = augment_with_pretrained(dico, pre, dev)
    assert got_dico == {"alpha": 5, "beta": 0, "x9y": 0}
    assert set(w2i) == {"alpha", "beta", "x9y"}
