import hashlib
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spandet.geometry import CharSpan
from spandet.textproc import (load_features, read_embedding_file,
                              token_positions, tokenize, toy_embed, write_embedding_file)


def test_tokenize_example():
    tk = tokenize("Hi there.")
    assert tk.tokens == ["Hi", "there", "."]
    assert tk.offsets == [CharSpan(0, 2), CharSpan(3, 8), CharSpan(8, 9)]


def test_tokenize_single_word():
    tk = tokenize("hello")
    assert tk.tokens == ["hello"]
    assert tk.offsets == [CharSpan(0, 5)]


def test_tokenize_rejects_empty():
    with pytest.raises(ValueError):
        tokenize("")
    with pytest.raises(ValueError):
        tokenize("   \n\t")


@given(st.text(min_size=1))
@settings(max_examples=300, deadline=None)
def test_offsets_reconstruct_tokens(text):
    import re
    try:
        tk = tokenize(text)
    except ValueError:
        assert not text.strip()
        return
    for tok, off in zip(tk.tokens, tk.offsets):
        assert text[off.x1:off.x2] == tok
    # coverage: every non-whitespace char (regex \s sense) in exactly one token
    covered = set()
    for off in tk.offsets:
        for i in range(off.x1, off.x2):
            assert i not in covered
            covered.add(i)
    for i, ch in enumerate(text):
        assert (i in covered) == (not re.fullmatch(r"\s", ch))


def test_tokenize_idempotent_offsets():
    text = "One, two... three! Don't stop?"
    assert tokenize(text).offsets == tokenize(text).offsets


def test_token_positions_normalized():
    tk = tokenize("ab cd")
    pos = token_positions(tk.offsets, 5)
    assert np.allclose(pos, [0.2, 0.8])


def test_toy_embed_deterministic():
    tk = tokenize("same same different")
    e = toy_embed(tk, 16, seed=1)
    assert e.shape == (3, 16)
    assert np.array_equal(e[0], e[1])
    assert not np.array_equal(e[0], e[2])
    assert np.array_equal(e, toy_embed(tk, 16, seed=1))


def test_toy_embed_seed_changes_table():
    tk = tokenize("word")
    assert not np.array_equal(toy_embed(tk, 16, seed=1), toy_embed(tk, 16, seed=2))


def test_toy_embed_dim_floor():
    with pytest.raises(ValueError):
        toy_embed(tokenize("x"), 4)


def test_toy_embed_norms_bounded():
    rng = np.random.default_rng(0)
    letters = "abcdefghijklmnopqrstuvwxyz"
    words = ["".join(letters[i] for i in rng.integers(0, 26, size=rng.integers(1, 12)))
             for _ in range(1000)]
    tk = tokenize(" ".join(words))
    e = toy_embed(tk, 32, seed=3)
    norms = np.linalg.norm(e, axis=1)
    assert norms.min() >= 0.5 and norms.max() <= 2.0


def test_embedding_file_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(5)
    vec = rng.normal(size=(7, 12)).astype(np.float32)
    tk = tokenize("a b c d e f g")
    path = tmp_path / "x.emb"
    write_embedding_file(path, vec, tk.offsets, "file:finetuned", text="a b c d e f g")
    ef = read_embedding_file(path)
    assert np.array_equal(ef.vectors, vec)
    assert ef.offsets == tk.offsets
    assert ef.provenance == "file:finetuned"
    got, pos = load_features(path, "a b c d e f g")
    assert got.dtype == np.float32 and np.array_equal(got, vec)
    assert np.array_equal(pos, token_positions(tk.offsets, 13))


def test_embedding_file_truncated(tmp_path):
    vec = np.zeros((4, 8), dtype=np.float32)
    offsets = [CharSpan(i, i + 1) for i in range(4)]
    path = tmp_path / "x.emb"
    write_embedding_file(path, vec, offsets, "toy", "a b c d")
    raw = path.read_bytes()
    path.write_bytes(raw[:-10])
    with pytest.raises(ValueError, match="truncated"):
        read_embedding_file(path)


def test_embedding_file_with_trailing_bytes_is_rejected_naming_both_sizes(tmp_path):
    vec = np.zeros((4, 8), dtype=np.float32)
    path = tmp_path / "x.emb"
    write_embedding_file(path, vec, [CharSpan(i, i + 1) for i in range(4)], "toy", "a b c d")
    raw = path.read_bytes()
    path.write_bytes(raw + bytes(12))
    with pytest.raises(ValueError, match=f"{path}: trailing bytes after the payload "
                       rf"\(expected {len(raw)} bytes, found {len(raw) + 12}\)"):
        read_embedding_file(path)


@pytest.mark.parametrize("pair", [(5, 2), (3, 3)], ids=["reversed", "empty"])
def test_embedding_file_with_a_bad_offset_pair_names_the_file_and_token(tmp_path, pair):
    vec = np.zeros((3, 8), dtype=np.float32)
    path = tmp_path / "x.emb"
    write_embedding_file(path, vec, [CharSpan(0, 1), CharSpan(2, 3), CharSpan(4, 6)],
                         "toy", "a b cd")
    raw = bytearray(path.read_bytes())
    header = 4 + 1 + 4 + 4 + 1 + 32   # magic, version, n, d, provenance, text hash
    raw[header + 8:header + 16] = np.array(pair, dtype="<u4").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=rf"{path}: token 1 has an empty or reversed "
                       rf"offset pair \({pair[0]}, {pair[1]}\)"):
        read_embedding_file(path)


def test_embedding_file_bad_magic(tmp_path):
    path = tmp_path / "x.emb"
    path.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(ValueError, match="magic"):
        read_embedding_file(path)


def test_embedding_header_hash_mismatch(tmp_path):
    vec = np.zeros((1, 8), dtype=np.float32)
    path = tmp_path / "x.emb"
    write_embedding_file(path, vec, [CharSpan(0, 1)], "toy", text="original")
    with pytest.raises(ValueError, match="hash mismatch"):
        load_features(path, "tampered")


def test_load_features_checks_offsets_against_the_text(tmp_path):
    vec = np.zeros((3, 8), dtype=np.float32)
    path = tmp_path / "x.emb"
    spans = [CharSpan(0, 2), CharSpan(3, 5), CharSpan(6, 8)]
    write_embedding_file(path, vec, spans, "toy", "ab cd ef")
    got, pos = load_features(path, "ab cd ef")
    assert got.dtype == np.float32 and np.array_equal(pos, [1 / 8, 4 / 8, 7 / 8])
    write_embedding_file(path, vec, spans, "toy", "ab cd e")   # hashed, but too short
    with pytest.raises(ValueError, match="token 2 ends at 8, past the end"):
        load_features(path, "ab cd e")
    write_embedding_file(path, vec, [CharSpan(0, 2), CharSpan(6, 8), CharSpan(3, 5)],
                         "toy", "ab cd ef")
    with pytest.raises(ValueError, match="not sorted"):
        load_features(path, "ab cd ef")


def test_large_dim_file_accepted(tmp_path):
    # mirrors 7B-scale hidden sizes; just one token to stay small
    vec = np.ones((1, 4096), dtype=np.float32)
    path = tmp_path / "big.emb"
    write_embedding_file(path, vec, [CharSpan(0, 5)], "file:pretrained", "hello")
    ef = read_embedding_file(path)
    assert ef.vectors.shape == (1, 4096)


@pytest.mark.parametrize("bad", [1e308, np.nan, np.inf], ids=["overflow", "nan", "inf"])
def test_features_not_finite_as_float32_are_not_written(tmp_path, bad):
    path = tmp_path / "x.emb"
    vec = np.zeros((2, 8))
    vec[1, 3] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no RuntimeWarning from the float32 cast
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: feature values are "
                                             f"not finite as float32$"):
            write_embedding_file(path, vec, [CharSpan(0, 1), CharSpan(2, 3)], "toy", "a b")
    assert list(tmp_path.iterdir()) == []


def test_a_version_1_embedding_file_is_rejected_by_its_version(tmp_path):
    path = tmp_path / "old.emb"
    # the version-1 layout: a 14-byte header without the text hash, offsets, data
    path.write_bytes(struct.pack("<4sBIIB", b"SDEM", 1, 1, 8, 0)
                     + np.array([0, 1], dtype="<u4").tobytes() + bytes(32))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: unsupported embedding "
                       r"file version 1 \(this reader takes version 2; re-run spandet "
                       r"embed\)$"):
        read_embedding_file(path)


def test_the_header_holds_the_sha256_of_the_texts_utf8_bytes(tmp_path):
    path, text = tmp_path / "x.emb", "naïve – text"
    write_embedding_file(path, np.zeros((1, 8)), [CharSpan(0, 5)], "toy", text)
    ef = read_embedding_file(path)
    assert ef.text_sha256 == hashlib.sha256(text.encode("utf-8")).digest()
    assert path.read_bytes()[14:46] == ef.text_sha256
