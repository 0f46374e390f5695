"""Record-store persistence: portable ``.npz`` and an mmap-able raw layout.

Two on-disk layouts share one meta schema:

* **npz** (default) — a single compressed ``.npz`` file. Portable and
  compact; the whole table inflates into memory on load.
* **raw** — a *store directory* holding ``files.npy`` and ``jobs.npy``
  in plain :mod:`numpy.lib.format` plus a ``meta.json`` sidecar. Nothing
  is compressed, so :func:`load_store` can map the tables with
  ``mmap_mode="r"``: opening a facility-year store costs page-table
  setup, not a full read, and what-if sweep workers
  (:mod:`repro.whatif.engine`) open the same ``files.npy`` zero-copy
  instead of receiving rows over a pipe. The convention is a ``.store``
  path suffix; :func:`save_store` picks the layout from the suffix and
  :func:`load_store` detects a directory automatically.

The meta blob is identical across layouts (same required keys, same
``schema_version`` gate), so a raw store is exactly an uncompressed,
seekable spelling of its ``.npz`` twin — the round-trip tests pin the
two layouts byte-identical.
"""

from __future__ import annotations

import json
import os
import zipfile

import numpy as np

from repro.errors import StoreError
from repro.store.recordstore import RecordStore

#: Version of the *meta blob's* schema, recorded alongside ``format``.
#: Readers accept anything up to their own version (older files load,
#: newer files are refused with a typed error instead of a KeyError deep
#: in RecordStore). Re-exported from :mod:`repro.store.schema`, where it
#: lives so in-memory stores can be stamped without importing this module.
from repro.store.schema import SCHEMA_VERSION

_FORMAT = "repro-store-v1"

_REQUIRED_META = ("platform", "domains", "extensions", "scale")

#: Path suffix that selects the raw (mmap-able) layout on save.
RAW_SUFFIX = ".store"


def _meta_blob(store: RecordStore) -> dict:
    return {
        "format": _FORMAT,
        "schema_version": SCHEMA_VERSION,
        "platform": store.platform,
        "domains": list(store.domains),
        "extensions": list(store.extensions),
        "scale": store.scale,
    }


def save_store(store: RecordStore, path: str, *, layout: str | None = None) -> None:
    """Write a store to disk.

    ``layout`` is ``"npz"`` (compressed single file) or ``"raw"`` (an
    mmap-able store directory); ``None`` infers ``raw`` for paths ending
    in ``.store`` and ``npz`` otherwise.
    """
    path = os.fspath(path)
    if layout is None:
        layout = "raw" if path.endswith(RAW_SUFFIX) else "npz"
    if layout == "npz":
        np.savez_compressed(
            path,
            files=store.files,
            jobs=store.jobs,
            meta=np.frombuffer(
                json.dumps(_meta_blob(store)).encode("utf-8"), dtype=np.uint8
            ),
        )
    elif layout == "raw":
        os.makedirs(path, exist_ok=True)
        np.save(os.path.join(path, "files.npy"), store.files, allow_pickle=False)
        np.save(os.path.join(path, "jobs.npy"), store.jobs, allow_pickle=False)
        # Meta is written last: a crash mid-save leaves a directory that
        # load_store rejects with a typed error, never a half-read store.
        tmp = os.path.join(path, "meta.json.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(_meta_blob(store), fh)
        os.replace(tmp, os.path.join(path, "meta.json"))
    else:
        raise StoreError(f"unknown store layout {layout!r} (want 'npz' or 'raw')")


def _validate_meta(path: str, meta: object) -> dict:
    """Shared meta validation for both layouts (typed errors only)."""
    if not isinstance(meta, dict):
        raise StoreError(f"{path}: store meta must be a JSON object")
    if meta.get("format") != _FORMAT:
        raise StoreError(f"{path}: unknown store format {meta.get('format')!r}")
    version = meta.get("schema_version", 1)  # v1 files predate the field
    if not isinstance(version, int) or version < 1:
        raise StoreError(f"{path}: invalid schema_version {version!r}")
    if version > SCHEMA_VERSION:
        raise StoreError(
            f"{path}: store schema_version {version} is newer than this "
            f"library supports ({SCHEMA_VERSION}); upgrade repro to read it"
        )
    missing = [k for k in _REQUIRED_META if k not in meta]
    if missing:
        raise StoreError(
            f"{path}: store meta missing key(s) {', '.join(missing)}"
        )
    return meta


def _parse_meta(path: str, blob: np.ndarray) -> dict:
    """Decode and validate the JSON meta blob (typed errors only)."""
    try:
        meta = json.loads(bytes(blob.tobytes()).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StoreError(f"{path}: corrupt store meta blob ({exc})") from None
    return _validate_meta(path, meta)


def _load_raw(path: str, mmap: bool | None) -> RecordStore:
    meta_path = os.path.join(path, "meta.json")
    try:
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        raise StoreError(
            f"{path}: not a raw store directory (missing meta.json)"
        ) from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StoreError(f"{path}: corrupt store meta ({exc})") from None
    meta = _validate_meta(path, meta)
    mmap_mode = "r" if (mmap or mmap is None) else None
    tables = {}
    for name in ("files", "jobs"):
        npy = os.path.join(path, f"{name}.npy")
        try:
            tables[name] = np.load(npy, mmap_mode=mmap_mode, allow_pickle=False)
        except FileNotFoundError:
            raise StoreError(f"{path}: missing array '{name}'") from None
        except ValueError as exc:
            raise StoreError(f"{npy}: corrupt array file ({exc})") from None
    store = RecordStore(
        meta["platform"],
        tables["files"],
        tables["jobs"],
        domains=meta["domains"],
        extensions=meta["extensions"],
        scale=meta["scale"],
        schema_version=meta.get("schema_version", 1),
    )
    # Remember the on-disk backing so the what-if sweep fan-out can
    # hand workers a path to mmap instead of exporting rows into shm.
    store.files_path = os.path.join(path, "files.npy")
    return store


def load_store(path: str, *, mmap: bool | None = None) -> RecordStore:
    """Read a store written by :func:`save_store` (either layout).

    A raw store directory is memory-mapped read-only by default
    (``mmap=False`` forces a full read into private memory); ``.npz``
    files always load eagerly — zip compression cannot be mapped, which
    is exactly why the raw layout exists. Corrupt or truncated files
    surface as :class:`StoreError` (never a raw ``json``/``zipfile``/
    unicode exception); a missing file is still ``FileNotFoundError``.
    """
    path = os.fspath(path)
    if os.path.isdir(path):
        return _load_raw(path, mmap)
    try:
        with np.load(path, allow_pickle=False) as npz:
            try:
                meta = _parse_meta(path, npz["meta"])
                files = npz["files"]
                jobs = npz["jobs"]
            except KeyError as exc:
                raise StoreError(f"{path}: missing array {exc}") from None
    except (zipfile.BadZipFile, EOFError) as exc:
        raise StoreError(f"{path}: not a readable .npz ({exc})") from None
    except ValueError as exc:
        raise StoreError(f"{path}: corrupt store file ({exc})") from None
    return RecordStore(
        meta["platform"],
        files,
        jobs,
        domains=meta["domains"],
        extensions=meta["extensions"],
        scale=meta["scale"],
        schema_version=meta.get("schema_version", 1),
    )
