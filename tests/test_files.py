"""Every file spandet writes goes through ``spandet.files``: the guard scans
the library's source for any other write, and the atomic tests check that a
write that fails part-way leaves the previous file as it was."""

import ast
import io
from pathlib import Path

import numpy as np
import pytest

from spandet import model as model_mod
from spandet.data import load_predictions, save_predictions
from spandet.geometry import CharSpan
from spandet.model import DetectionModel, ModelConfig, load_detector, save_detector
from spandet.textproc import read_embedding_file, write_embedding_file

SRC = Path(__file__).resolve().parents[1] / "src" / "spandet"
WRITER = SRC / "files.py"
NUMPY_WRITERS = {"save", "savez", "savez_compressed"}


def _mode(call: ast.Call, at: int):
    """The mode argument of an ``open`` call: positional `at` or ``mode=``;
    "r" when absent, None when it is not a string literal."""
    node = next((k.value for k in call.keywords if k.arg == "mode"),
                call.args[at] if len(call.args) > at else ast.Constant("r"))
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None


def writes(path: Path) -> list[str]:
    """``line: source`` of every call in the module at `path` that writes a
    file: ``open`` (builtin or ``Path.open``) in a mode with w, a, x or +
    (or a mode that is not a literal), ``write_text``/``write_bytes``, and
    numpy's ``save``/``savez``/``savez_compressed``."""
    source = path.read_text()
    found = []
    for node in ast.walk(ast.parse(source, filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id == "open":
            mode = _mode(node, 1)
        elif isinstance(f, ast.Attribute) and f.attr == "open":
            mode = _mode(node, 0)
        elif isinstance(f, ast.Attribute) and f.attr in {"write_text", "write_bytes"}:
            mode = "w"
        elif isinstance(f, ast.Attribute) and f.attr in NUMPY_WRITERS:
            mode = "w"
        else:
            continue
        if mode is None or set(mode) & set("wax+"):
            found.append(f"{path.name}:{node.lineno}: {ast.get_source_segment(source, node)}")
    return found


def test_only_the_writer_module_writes_files():
    found = [w for path in sorted(SRC.glob("*.py")) if path != WRITER for w in writes(path)]
    assert not found, f"writes outside spandet/files.py: {found}"


def test_the_guard_sees_every_kind_of_write(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("open(p, 'w')\nopen(p, mode='ab')\nopen(p, 'r+')\nopen(p, m)\n"
                     "p.open('x')\np.write_text(s)\np.write_bytes(b)\nnp.save(p, a)\n"
                     "np.savez(p, a=a)\nnp.savez_compressed(p, a=a)\n"
                     "open(p)\nopen(p, 'rb')\np.open()\np.read_text()\n")
    assert [w.split(":")[1] for w in writes(probe)] == [str(i) for i in range(1, 11)]


def test_the_writer_module_imports_nothing_from_spandet():
    tree = ast.parse(WRITER.read_text())
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert not [n for n in imports if isinstance(n, ast.ImportFrom) and n.level > 0]
    assert not [a.name for n in imports for a in n.names if a.name.startswith("spandet")]


def leftovers(directory: Path) -> list[str]:
    return sorted(p.name for p in directory.iterdir() if p.name.endswith(".tmp"))


def test_a_checkpoint_write_that_fails_part_way_leaves_the_previous_archive(tmp_path,
                                                                            monkeypatch):
    cfg = ModelConfig(d_model=8, hidden=8, heads=2, enc_layers=1, dec_layers=1,
                      num_queries=1, max_tokens=16, dn_groups=1)
    path = tmp_path / "last.npz"
    save_detector(path, DetectionModel(cfg, seed=1))
    before = path.read_bytes()
    real = np.savez

    def savez_then_fail(file, **arrays):  # half an archive, then the disk fills
        buf = io.BytesIO()
        real(buf, **arrays)
        if hasattr(file, "write"):
            file.write(buf.getvalue()[:len(buf.getvalue()) // 2])
        else:
            Path(file).write_bytes(buf.getvalue()[:len(buf.getvalue()) // 2])
        raise OSError("No space left on device")

    monkeypatch.setattr(model_mod.np, "savez", savez_then_fail)
    with pytest.raises(OSError, match="No space left"):
        save_detector(path, DetectionModel(cfg, seed=2))
    monkeypatch.undo()
    assert path.read_bytes() == before
    loaded = load_detector(path)
    assert all(np.array_equal(a, b) for a, b in
               zip(loaded.state().values(), DetectionModel(cfg, seed=1).state().values()))
    assert leftovers(tmp_path) == []


def test_a_jsonl_write_that_fails_part_way_leaves_the_previous_file(tmp_path):
    path = tmp_path / "preds.jsonl"
    good = [{"id": "a", "intervals": [[0, 2]], "scores": [0.5]}]
    save_predictions(path, good)
    before = path.read_bytes()
    with pytest.raises(TypeError):   # the new first record is written, the second fails
        save_predictions(path, [{"id": "c", "intervals": [], "scores": []},
                                {"id": "b", "intervals": {0, 2}, "scores": [0.5]}])
    assert path.read_bytes() == before and list(load_predictions(path)) == ["a"]
    assert leftovers(tmp_path) == []


def test_an_embedding_write_that_fails_part_way_leaves_the_previous_file(tmp_path):
    path = tmp_path / "x.emb"
    vec = np.ones((2, 8), dtype=np.float32)
    write_embedding_file(path, vec, [CharSpan(0, 1), CharSpan(2, 3)], "toy", "a b")
    before = path.read_bytes()
    with pytest.raises(KeyError):   # the header names no known provenance
        write_embedding_file(path, vec, [CharSpan(0, 1), CharSpan(2, 3)], "llm", "a b")
    assert path.read_bytes() == before
    assert np.array_equal(read_embedding_file(path).vectors, vec)
    assert leftovers(tmp_path) == []

