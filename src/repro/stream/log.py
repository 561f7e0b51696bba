"""Append-only, sharded JSONL document log with a dedup manifest.

The storage layer of :mod:`repro.stream`: raw documents arrive in batches
and each non-empty batch becomes one immutable *shard* — a JSONL file with
one document record per line — while a single ``manifest.json`` records the
shard sequence, per-document ids, byte offsets, and content hashes.  The
design goals, in order:

* **O(delta) ingestion** — appending a batch writes one new shard file and
  rewrites only the manifest; no existing shard is ever opened, rewritten,
  or even read.  Deduplication consults the manifest's hash index, not the
  shard bodies.
* **Replayability** — the logical corpus is the concatenation of all
  shards in manifest order, each shard in line order.  Replaying the log
  therefore reconstructs the exact document sequence every refresh (and the
  offline determinism contract) is defined over.
* **Crash consistency** — shard files are written *before* the manifest
  references them, and the manifest itself is replaced atomically
  (write-temp + ``os.replace``).  A crash mid-append leaves at worst an
  orphaned shard file that the next append overwrites; the manifest never
  names data that is not fully on disk.
* **Dedup by content hash** — every document's SHA-256 is stored in the
  manifest; re-submitted documents (retries, overlapping batches) are
  dropped at append time so the log holds each distinct text exactly once.

The log stores *text only*.  Tokenized statistics live next door in
:mod:`repro.stream.counters`, keyed by shard name, so the two layers stay
independently replayable.
"""

from __future__ import annotations

import hashlib
import json
import os  # noqa: F401 -- crash tests patch os.replace as log.os.replace
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.utils.files import FileIdentity, file_identity, write_bytes_atomic

FORMAT_NAME = "repro.stream.log"
FORMAT_VERSION = 1

_MANIFEST = "manifest.json"
_SHARD_DIR = "shards"


class StreamLogError(Exception):
    """The log directory is missing, corrupt, or violates its schema."""


def _hash_text(text: str) -> str:
    """Return the content hash (hex SHA-256) used for deduplication."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_json_atomic(path: Union[str, Path], payload: Any) -> Path:
    """Commit ``payload`` as JSON through :func:`~repro.utils.files.atomic_write`.

    Readers concurrently opening ``path`` observe either the previous
    complete document or the new one, never a torn write — the property
    every manifest and state file in :mod:`repro.stream` relies on.
    """
    return write_bytes_atomic(path, (json.dumps(
        payload, sort_keys=True, indent=1) + "\n").encode("utf-8"))


@dataclass
class ShardInfo:
    """Manifest entry describing one immutable shard.

    Attributes
    ----------
    name:
        Shard file stem, e.g. ``"shard-00001"``.
    n_documents:
        Number of document records in the shard.
    first_doc_id:
        Global id of the shard's first document (ids are assigned
        sequentially across shards in append order).
    offsets:
        Byte offset of each record within the shard file, enabling random
        access to a single document without scanning.
    hashes:
        Per-document content hashes, aligned with the records — the dedup
        index and a per-shard integrity fingerprint in one.
    source:
        Free-form provenance label supplied at append time.
    """

    name: str
    n_documents: int
    first_doc_id: int
    offsets: List[int] = field(default_factory=list)
    hashes: List[str] = field(default_factory=list)
    source: str = ""

    def as_dict(self) -> Dict[str, Any]:
        """Return the manifest-JSON form of this entry."""
        return {"name": self.name, "n_documents": self.n_documents,
                "first_doc_id": self.first_doc_id, "offsets": self.offsets,
                "hashes": self.hashes, "source": self.source}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ShardInfo":
        """Rebuild an entry from its manifest-JSON form."""
        return cls(name=str(payload["name"]),
                   n_documents=int(payload["n_documents"]),
                   first_doc_id=int(payload["first_doc_id"]),
                   offsets=[int(o) for o in payload.get("offsets", [])],
                   hashes=[str(h) for h in payload.get("hashes", [])],
                   source=str(payload.get("source", "")))


@dataclass
class AppendResult:
    """Outcome of one :meth:`DocumentLog.append` call.

    Attributes
    ----------
    shard:
        The new shard's :class:`ShardInfo`, or ``None`` when every
        submitted document was a duplicate (no shard is created then).
    n_appended:
        Documents actually written.
    n_duplicates:
        Documents dropped by the content-hash dedup (counting duplicates
        *within* the submitted batch as well as against the log).
    doc_ids:
        Global ids assigned to the appended documents, in input order.
    """

    shard: Optional[ShardInfo]
    n_appended: int
    n_duplicates: int
    doc_ids: List[int] = field(default_factory=list)


class DocumentLog:
    """Append-only sharded document store under one directory.

    Parameters
    ----------
    root:
        The log directory (created by :meth:`create`).

    Use :meth:`create` for a new log, :meth:`open` for an existing one;
    the constructor itself does not touch the filesystem.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.shards: List[ShardInfo] = []
        self.extra: Dict[str, Any] = {}
        # Identity of the manifest that shards/extra were last parsed
        # from; None whenever they may differ from the file on disk.
        self._parsed: FileIdentity = None

    # -- lifecycle ---------------------------------------------------------------------
    @classmethod
    def create(cls, root: Union[str, Path]) -> "DocumentLog":
        """Initialise an empty log at ``root`` (which must not hold one)."""
        root = Path(root)
        if (root / _MANIFEST).exists():
            raise StreamLogError(f"a document log already exists at {root}")
        log = cls(root)
        (root / _SHARD_DIR).mkdir(parents=True, exist_ok=True)
        log._write_manifest()
        return log

    @classmethod
    def open(cls, root: Union[str, Path]) -> "DocumentLog":
        """Load the manifest of an existing log at ``root``."""
        log = cls(root)
        log.reload()
        return log

    @classmethod
    def exists(cls, root: Union[str, Path]) -> bool:
        """Return whether ``root`` holds a document log."""
        return (Path(root) / _MANIFEST).exists()

    @property
    def manifest_path(self) -> Path:
        """The manifest file: the log's commit point."""
        return self.root / _MANIFEST

    def reload(self) -> None:
        """Re-read the manifest from disk (picks up cross-process appends).

        A manifest whose :func:`~repro.utils.files.file_identity` equals
        the one last parsed is not read again: every commit replaces it
        through :func:`~repro.utils.files.atomic_write` (a fresh inode, and
        an append only ever grows it), and every in-memory mutation drops
        the remembered identity first, so a failed commit re-parses.
        """
        path = self.manifest_path
        identity = file_identity(path)
        if identity is None:
            raise StreamLogError(f"no document log at {self.root} "
                                 f"(missing {_MANIFEST})")
        if identity == self._parsed:
            return
        self._parsed = None
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise StreamLogError(f"{path}: unreadable manifest: {exc}") from exc
        if not isinstance(manifest, dict) or \
                manifest.get("format") != FORMAT_NAME:
            raise StreamLogError(
                f"{path}: not a {FORMAT_NAME} manifest")
        version = manifest.get("version")
        if not isinstance(version, int) or version > FORMAT_VERSION:
            raise StreamLogError(
                f"{path}: manifest version {version!r} is newer than this "
                f"reader (supports up to {FORMAT_VERSION})")
        self.shards = [ShardInfo.from_dict(entry)
                       for entry in manifest.get("shards", [])]
        self.extra = dict(manifest.get("extra", {}))
        expected = 0
        for shard in self.shards:
            if shard.first_doc_id != expected:
                raise StreamLogError(
                    f"{path}: shard {shard.name} starts at doc id "
                    f"{shard.first_doc_id}, expected {expected} — "
                    f"the shard sequence is corrupt")
            expected += shard.n_documents
        # Taken before the read: had the file been replaced in between,
        # the next reload sees a new identity and parses it again.
        self._parsed = identity

    # -- introspection -----------------------------------------------------------------
    @property
    def n_documents(self) -> int:
        """Total number of (distinct) documents logged."""
        return sum(shard.n_documents for shard in self.shards)

    @property
    def n_shards(self) -> int:
        """Number of shards in the log."""
        return len(self.shards)

    def shard_names(self) -> List[str]:
        """Shard names in append (= replay) order."""
        return [shard.name for shard in self.shards]

    def known_hashes(self) -> set:
        """The content hashes of every logged document (the dedup index)."""
        return {h for shard in self.shards for h in shard.hashes}

    def _shard_path(self, name: str) -> Path:
        return self.root / _SHARD_DIR / f"{name}.jsonl"

    def shard_file_path(self, name: str) -> Path:
        """Return the on-disk path of shard ``name`` (it may not exist yet).

        Public so the serving layer can stream shard bytes over HTTP and a
        replication follower can write fetched bytes to the right place.
        """
        return self._shard_path(name)

    # -- append ------------------------------------------------------------------------
    def append(self, texts: Sequence[str], source: str = "") -> AppendResult:
        """Append a batch of documents as one new shard.

        Documents whose content hash is already in the log — or appeared
        earlier in this same batch — are dropped.  When everything is a
        duplicate no shard is created and the manifest is untouched.

        Parameters
        ----------
        texts:
            Raw document strings, in the order they should enter the
            logical corpus.
        source:
            Provenance label stored on the shard.

        Returns
        -------
        AppendResult
            The created shard (if any) plus appended/duplicate counts.
        """
        seen = self.known_hashes()
        fresh: List[Tuple[str, str]] = []
        n_duplicates = 0
        for text in texts:
            digest = _hash_text(text)
            if digest in seen:
                n_duplicates += 1
                continue
            seen.add(digest)
            fresh.append((text, digest))
        if not fresh:
            return AppendResult(shard=None, n_appended=0,
                                n_duplicates=n_duplicates)

        name = f"shard-{len(self.shards) + 1:05d}"
        first_doc_id = self.n_documents
        path = self._shard_path(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        offsets: List[int] = []
        with open(path, "w", encoding="utf-8") as handle:
            for position, (text, _digest) in enumerate(fresh):
                offsets.append(handle.tell())
                record = {"id": first_doc_id + position, "text": text}
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        shard = ShardInfo(name=name, n_documents=len(fresh),
                          first_doc_id=first_doc_id, offsets=offsets,
                          hashes=[digest for _, digest in fresh],
                          source=source)
        # Data first, then the manifest: a crash between the two leaves an
        # orphan file the next append overwrites, never a dangling entry.
        self._parsed = None
        self.shards.append(shard)
        self._write_manifest()
        return AppendResult(shard=shard, n_appended=len(fresh),
                            n_duplicates=n_duplicates,
                            doc_ids=list(range(first_doc_id,
                                               first_doc_id + len(fresh))))

    def set_extra(self, **entries: Any) -> None:
        """Merge free-form entries into the manifest's ``extra`` section."""
        self._parsed = None
        self.extra.update(entries)
        self._write_manifest()

    def replace_extra(self, entries: Dict[str, Any]) -> None:
        """Replace the whole ``extra`` section (replication mirrors it 1:1)."""
        self._parsed = None
        self.extra = dict(entries)
        self._write_manifest()

    def adopt_shard(self, shard: ShardInfo) -> None:
        """Commit an externally replicated shard to the manifest.

        The shard *file* must already be fully on disk at
        :meth:`shard_file_path` — a follower fetches, verifies, and renames
        the bytes first, then calls this as its commit point.  The entry
        must extend the log contiguously (``first_doc_id`` equal to the
        current document count); anything else means the caller is
        replaying a divergent or out-of-order manifest.
        """
        if shard.first_doc_id != self.n_documents:
            raise StreamLogError(
                f"shard {shard.name} starts at doc id {shard.first_doc_id}, "
                f"but the log holds {self.n_documents} documents — "
                f"non-contiguous adoption refused")
        if not self._shard_path(shard.name).exists():
            raise StreamLogError(
                f"cannot adopt {shard.name}: shard file missing — the data "
                f"must be on disk before the manifest may reference it")
        self._parsed = None
        self.shards.append(shard)
        self._write_manifest()

    def _write_manifest(self) -> None:
        write_json_atomic(self.manifest_path, {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "n_documents": self.n_documents,
            "shards": [shard.as_dict() for shard in self.shards],
            "extra": self.extra,
        })

    # -- reads -------------------------------------------------------------------------
    def read_shard(self, name: str) -> List[str]:
        """Return one shard's document texts, in record order."""
        shard = next((s for s in self.shards if s.name == name), None)
        if shard is None:
            raise StreamLogError(f"unknown shard {name!r}; "
                                 f"known: {self.shard_names()}")
        path = self._shard_path(name)
        texts: List[str] = []
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    texts.append(str(json.loads(line)["text"]))
        if len(texts) != shard.n_documents:
            raise StreamLogError(
                f"{path}: holds {len(texts)} records but the manifest "
                f"says {shard.n_documents}")
        return texts

    def iter_texts(self) -> Iterator[str]:
        """Yield every logged document in replay order."""
        for shard in self.shards:
            yield from self.read_shard(shard.name)

    def get(self, doc_id: int) -> str:
        """Random-access one document by global id via the byte offsets."""
        for shard in self.shards:
            if shard.first_doc_id <= doc_id < shard.first_doc_id + shard.n_documents:
                position = doc_id - shard.first_doc_id
                with open(self._shard_path(shard.name), "rb") as handle:
                    handle.seek(shard.offsets[position])
                    line = handle.readline().decode("utf-8")
                return str(json.loads(line)["text"])
        raise IndexError(f"doc id {doc_id} not in log "
                         f"(holds {self.n_documents} documents)")
