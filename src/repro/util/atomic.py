"""Atomic filesystem commits: tmp + ``os.replace``, in one place.

Every durable artifact the pipeline writes — run manifests, Prometheus
exposition files, and every :class:`repro.store.Store` entry (signature
cache, reuse profiles, registry models, DAG node artifacts) — must be
crash-consistent: a reader (or a resumed run) may see the old content
or the new content, never a torn half-write.  POSIX gives that
guarantee through ``os.replace`` of a same-directory temporary.

File commits (:func:`atomic_write_bytes` / :func:`atomic_write_text` /
:func:`atomic_write_json`, or :func:`atomic_writer` when the payload
must be produced by a library that writes paths itself, e.g.
``np.savez``) replace the destination file.  Directory commits
(:func:`atomic_dir`) build the new tree in a pid-suffixed sibling and
rename it into place; when the destination appeared concurrently the
tmp tree is discarded — under content addressing a concurrent writer
produced the same bytes, so losing the race is free.
"""

from __future__ import annotations

import json
import os
import shutil
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Union


def _tmp_name(path: Path) -> Path:
    """A same-directory, pid-unique temporary sibling of ``path``.

    Same directory (not :mod:`tempfile`'s default) so the final
    ``os.replace`` never crosses a filesystem boundary; pid-unique so
    two processes committing the same destination never clobber each
    other's half-written temporaries.  The name *ends with* the real
    filename so suffix-sniffing writers behave: ``np.savez`` appends
    ``.npz`` to any path that lacks it, which would orphan the
    temporary and break the commit.
    """
    return path.with_name(f".tmp-{os.getpid()}-{path.name}")


@contextmanager
def atomic_writer(path: Union[str, Path]) -> Iterator[Path]:
    """Yield a temporary path; commit it over ``path`` on clean exit.

    The body writes the temporary however it likes (``np.savez``,
    ``TraceFile.save_npz``, plain ``open``); on success the temporary is
    renamed over the destination in one ``os.replace``.  On an exception
    the temporary is removed and nothing at the destination changes.
    """
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    tmp = _tmp_name(path)
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink(missing_ok=True)


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> Path:
    """Atomically replace ``path`` with ``data``."""
    path = Path(path)
    with atomic_writer(path) as tmp:
        tmp.write_bytes(data)
    return path


def atomic_write_text(
    path: Union[str, Path], text: str, *, encoding: str = "utf-8"
) -> Path:
    """Atomically replace ``path`` with ``text``."""
    path = Path(path)
    with atomic_writer(path) as tmp:
        tmp.write_text(text, encoding=encoding)
    return path


def atomic_write_json(
    path: Union[str, Path], doc, *, indent: int = 2, sort_keys: bool = True
) -> Path:
    """Atomically replace ``path`` with ``doc`` rendered as JSON.

    Sorted keys and fixed indent by default, so re-writing unchanged
    content leaves a byte-identical file — the digest-stability contract
    run manifests and DAG artifacts rely on.
    """
    return atomic_write_text(
        path, json.dumps(doc, indent=indent, sort_keys=sort_keys) + "\n"
    )


@contextmanager
def atomic_dir(path: Union[str, Path]) -> Iterator[Path]:
    """Yield a temporary directory; commit it as ``path`` on clean exit.

    The registry/DAG directory-store discipline: build the whole entry
    in a pid-suffixed sibling, then rename it into the namespace in one
    ``os.replace``.  If the destination already exists when the body
    finishes, a concurrent writer won the race — the tmp tree is
    discarded, because under content addressing same name means same
    content.  On an exception the tmp tree is removed and the
    destination is untouched.
    """
    path = Path(path)
    tmp = _tmp_name(path)
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)
    try:
        yield tmp
        path.parent.mkdir(parents=True, exist_ok=True)
        if not path.exists():
            os.replace(tmp, path)
    finally:
        if tmp.exists():
            shutil.rmtree(tmp, ignore_errors=True)
