"""Text processing: offset-exact tokenization, the deterministic toy embedder,
and the binary feature-file interchange format."""

import tempfile
from pathlib import Path

import numpy as np

from spandet.textproc import (load_features, read_embedding_file, tokenize,
                              toy_embed, write_embedding_file)

text = "Models write; humans edit. Who said what?"
tk = tokenize(text)
print(f"text: {text!r}")
print(f"{len(tk.tokens)} tokens with exact offsets:")
for tok, off in zip(tk.tokens, tk.offsets):
    assert text[off.x1:off.x2] == tok
    print(f"  [{off.x1:2d},{off.x2:2d}) {tok!r}")

# The toy embedder hashes character trigrams into a fixed table: the same
# surface always maps to the same vector, no learned weights involved.
emb = toy_embed(tk, d=16, seed=0)
print(f"\nembeddings: {emb.shape}")
same = tokenize("edit edit")
e2 = toy_embed(same, 16, seed=0)
print(f"identical surfaces share vectors: {np.array_equal(e2[0], e2[1])}")

# Features from a real LLM travel through a little-endian binary format that
# carries its own token offsets, so any upstream tokenizer works.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "features.emb"
    write_embedding_file(path, emb.astype(np.float32), tk.offsets,
                         provenance="file:finetuned", text=text)
    print(f"\nwrote {path.stat().st_size} bytes, the text's SHA-256 in the header")
    ef = read_embedding_file(path)
    print(f"read back: {ef.vectors.shape} {ef.vectors.dtype}, "
          f"provenance {ef.provenance!r}, offsets intact: {ef.offsets == tk.offsets}")
    # checks the header's text hash and that the offsets are sorted and fit the text
    vectors, positions = load_features(path, text)
    print(f"validated load: {vectors.shape} {vectors.dtype}, "
          f"token midpoints {np.round(positions[:3], 3)} ...")
