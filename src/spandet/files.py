"""The one place spandet writes a file. Each write goes to a temporary file
beside its target, which ``os.replace`` moves into place: a reader, or a run
killed mid-write, finds the old bytes or the new, never a part."""

import json
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np


@contextmanager
def atomic_open(path):
    """A binary handle whose bytes replace the file at `path`, its directory
    made if need be, if the block succeeds; on error the temporary file is
    removed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, obj) -> None:
    """One document: sorted keys, an indent of 2, a trailing newline."""
    with atomic_open(path) as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True).encode() + b"\n")


def write_jsonl(path, records) -> None:
    """One compact record per line, keys sorted."""
    with atomic_open(path) as fh:
        fh.writelines(json.dumps(r, sort_keys=True).encode() + b"\n" for r in records)


def write_npz(path, **arrays) -> None:
    with atomic_open(path) as fh:
        np.savez(fh, **arrays)
