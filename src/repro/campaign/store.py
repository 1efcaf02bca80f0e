"""Content-addressed on-disk store for campaign artifacts.

Every artifact a campaign produces is a pure function of spec content:
built matrices are functions of :class:`~repro.campaign.spec.MatrixSpec`,
fault-free baselines of ``(matrix, knobs)``, and per-trial results of
the full :meth:`~repro.campaign.spec.TrialSpec.content_token`.  The
store exploits that by caching each artifact under the SHA-256 of its
canonical token, which makes campaigns

* **incremental** — re-running a sweep after adding one error rate only
  executes the new cells (content-keyed seeds, see
  ``CampaignSpec.trial_seed``, keep every old trial's address stable);
* **resumable** — workers persist every completed trial immediately, so
  an interrupted campaign restarts from its last persisted trial;
* **shared** — a quick sub-grid campaign warms the cache for the full
  sweep, across processes and across days.

Layout under the root (default ``~/.cache/repro-campaign``, overridable
via the ``REPRO_CAMPAIGN_STORE`` environment variable)::

    SCHEMA                      # {"schema": 1} — version guard
    trials/ab/<sha256>.json     # TrialResult payloads
    baselines/ab/<sha256>.json  # ideal fault-free solve times (hex floats)
    matrices/ab/<sha256>.npz    # built CSR matrices + right-hand sides
    journals/<sha256>.jsonl     # per-campaign progress journal
    scalars/                    # earlier versions only (the Figure 5
                                # calibration, trials now): ignored

Correctness anchor: a cache hit must be *byte-identical* to a cold
computation.  JSON floats round-trip exactly in Python (``repr``-based),
baselines are stored as ``float.hex()``, and matrices as raw ``.npz``
arrays — the equivalence tests assert cold and warm fingerprints match
bit-for-bit.  Writes go through a same-directory temp file plus
``os.replace``, so concurrent workers (process pools, parallel shards
on a shared filesystem) never observe half-written artifacts.

Nothing reads the store directly on the trial path: :class:`CampaignCache`
puts a RAM tier in front of it (or of nothing, for a storeless run) and
is the one cache the engine, the daemon and the experiment drivers are
handed.  The module's only state is the per-process registry behind
:func:`process_cache`, which pool children use; the ``--store`` /
``--no-store`` flags of every CLI are declared here too.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import tempfile
import time
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.sanitize import make_lock

#: Version of the on-disk layout and of every artifact payload.  Bump on
#: any change to the serialization or to the content-token scheme.
STORE_SCHEMA_VERSION = 1

#: Environment variable overriding the store root directory.
STORE_ENV = "REPRO_CAMPAIGN_STORE"

#: Default store root (per-user, survives across campaigns).
DEFAULT_STORE_PATH = "~/.cache/repro-campaign"

#: Artifact kinds and their subdirectories.
_KINDS = ("trials", "baselines", "matrices")

#: Default age beyond which ``gc`` prunes unreferenced entries (days).
GC_DEFAULT_DAYS = 30


class StoreSchemaError(RuntimeError):
    """The store (or an artifact file) was written by an incompatible
    schema version.  Deliberately *not* a ``ValueError``: callers must
    surface it as an operator problem ("delete or repoint the store"),
    never swallow it as a bad-input condition."""


def default_store_root() -> Path:
    """The store root honouring ``REPRO_CAMPAIGN_STORE``."""
    override = os.environ.get(STORE_ENV)
    if override is not None and override.strip():
        return Path(override).expanduser()
    return Path(DEFAULT_STORE_PATH).expanduser()


def _payload_checksum(body: dict) -> str:
    """Integrity checksum of a JSON artifact payload: SHA-256 of the
    canonical serialization of everything except the checksum itself."""
    canon = json.dumps({k: v for k, v in body.items() if k != "checksum"},
                       sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


@dataclass
class VerifyReport:
    """Outcome of :meth:`CampaignStore.verify`."""

    #: Entries whose integrity was positively confirmed.
    verified: int = 0
    #: Readable entries written before keys/checksums were embedded;
    #: they parse and carry the right schema but cannot be re-hashed.
    legacy: int = 0
    #: ``(kind, path, reason)`` of every corrupt entry found.
    corrupt: List[Tuple[str, str, str]] = field(default_factory=list)
    #: Corrupt entries deleted (``verify(remove=True)``).
    removed: int = 0

    @property
    def ok(self) -> bool:
        return not self.corrupt


class CampaignStore:
    """Content-addressed artifact store rooted at ``root``.

    Opening validates (or stamps) the schema version; all reads touch
    the entry's mtime so garbage collection can prune entries that no
    campaign has referenced for :data:`GC_DEFAULT_DAYS`.
    """

    def __init__(self, root: Optional[os.PathLike] = None):
        self.root = Path(root).expanduser() if root is not None \
            else default_store_root()
        self.hits = 0
        self.misses = 0
        self._ensure_schema()

    # ------------------------------------------------------------------
    # schema guard
    # ------------------------------------------------------------------
    @property
    def _schema_path(self) -> Path:
        return self.root / "SCHEMA"

    def _ensure_schema(self) -> None:
        if self._schema_path.exists():
            try:
                payload = json.loads(self._schema_path.read_text())
                found = int(payload["schema"])
            except (ValueError, KeyError, TypeError):
                raise StoreSchemaError(
                    f"campaign store at {self.root} has an unreadable "
                    f"SCHEMA file; delete the directory or point "
                    f"{STORE_ENV} somewhere else") from None
            if found != STORE_SCHEMA_VERSION:
                raise StoreSchemaError(
                    f"campaign store at {self.root} was written by schema "
                    f"v{found}, but this version of repro uses "
                    f"v{STORE_SCHEMA_VERSION}; delete the directory or "
                    f"point {STORE_ENV} at a fresh one")
            return
        # repro-lint: allow[unordered-iter] emptiness probe, order never observed
        if self.root.exists() and any(self.root.iterdir()):
            raise StoreSchemaError(
                f"directory {self.root} exists, is not empty and has no "
                f"SCHEMA file — refusing to adopt it as a campaign store; "
                f"delete it or point {STORE_ENV} at a fresh directory")
        self.root.mkdir(parents=True, exist_ok=True)
        for kind in (*_KINDS, "journals"):
            (self.root / kind).mkdir(exist_ok=True)
        schema = json.dumps({"schema": STORE_SCHEMA_VERSION}, sort_keys=True)
        self._atomic_write(self._schema_path, "w",
                           lambda handle: handle.write(schema + "\n"))

    # ------------------------------------------------------------------
    # low-level helpers
    # ------------------------------------------------------------------
    def _path(self, kind: str, key: str, suffix: str = ".json") -> Path:
        return self.root / kind / key[:2] / f"{key}{suffix}"

    @staticmethod
    def _atomic_write(path: Path, mode: str, write) -> None:
        """``write(handle)`` into a same-directory temporary, then
        ``os.replace``: readers see the old entry or the new, never a
        torn one."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, mode) as handle:
                write(handle)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    @staticmethod
    def _touch(path: Path) -> None:
        try:
            os.utime(path)
        except OSError:
            pass  # read-only shared store: hits still work, gc won't

    @staticmethod
    def _discard(path: Path) -> None:
        """Drop a corrupt entry: the next read is a plain miss and the
        artifact is recomputed (what ``verify(remove=True)`` does)."""
        with contextlib.suppress(OSError):
            path.unlink()

    def _load_json(self, path: Path) -> Optional[dict]:
        """Read an artifact payload; unreadable entries self-heal as
        misses, incompatible schemas fail loudly."""
        try:
            payload = json.loads(path.read_text())
            if not isinstance(payload, dict):
                raise ValueError("payload is not an object")
        except FileNotFoundError:
            return None
        except (ValueError, OSError):
            self._discard(path)
            return None
        found = payload.get("schema")
        if found != STORE_SCHEMA_VERSION:
            raise StoreSchemaError(
                f"artifact {path} carries schema v{found}, expected "
                f"v{STORE_SCHEMA_VERSION}; run `python -m repro.campaign "
                f"store --gc --days 0` or delete the store at {self.root}")
        self._touch(path)
        return payload

    def _get_json(self, kind: str, key: str, decode):
        """``decode(payload)`` of the entry under ``key``, counted as a
        hit or a miss.  A payload of the right schema that does not
        decode (a missing or mistyped field) is garbage like any other:
        discarded, a miss."""
        path = self._path(kind, key)
        payload = self._load_json(path)
        if payload is not None:
            try:
                value = decode(payload)
            except (KeyError, TypeError, ValueError):
                self._discard(path)
            else:
                self.hits += 1
                return value
        self.misses += 1
        return None

    def _put_json(self, kind: str, key: str, payload: dict) -> None:
        body = {"schema": STORE_SCHEMA_VERSION, "key": key, **payload}
        # Self-describing integrity: the entry carries its own content
        # address ("key" — must match the filename) and a checksum over
        # the canonical serialization, so ``verify`` can detect both
        # misplaced and bit-rotted entries.  Readers ignore both fields;
        # pre-existing entries without them stay readable ("legacy").
        body["checksum"] = _payload_checksum(body)
        text = json.dumps(body, sort_keys=True)
        self._atomic_write(self._path(kind, key), "w",
                           lambda handle: handle.write(text))

    # ------------------------------------------------------------------
    # trials
    # ------------------------------------------------------------------
    def get_trial(self, key: str):
        """The cached :class:`TrialResult` under ``key``, or ``None``."""
        from repro.campaign.results import TrialResult
        return self._get_json(
            "trials", key, lambda payload: TrialResult(**payload["trial"]))

    def put_trial(self, key: str, result) -> None:
        from dataclasses import asdict
        self._put_json("trials", key, {"trial": asdict(result)})

    # ------------------------------------------------------------------
    # fault-free baselines
    # ------------------------------------------------------------------
    def get_baseline(self, key: str) -> Optional[float]:
        return self._get_json(
            "baselines", key,
            lambda payload: float.fromhex(payload["ideal_time"]))

    def put_baseline(self, key: str, ideal_time: float) -> None:
        self._put_json("baselines", key,
                       {"ideal_time": float(ideal_time).hex()})

    # ------------------------------------------------------------------
    # built matrices
    # ------------------------------------------------------------------
    def get_matrix(self, key: str):
        """The cached ``(A, b)`` problem under ``key``, or ``None``.

        Round-trips both CSR backends exactly: ``.npz`` stores the raw
        ``data``/``indices``/``indptr`` arrays, so a warm build is
        byte-identical to a cold one.
        """
        path = self._path("matrices", key, suffix=".npz")
        try:
            with np.load(path) as archive:
                kind = str(archive["kind"])
                shape = tuple(int(s) for s in archive["shape"])
                data, indices, indptr, b = (archive["data"],
                                            archive["indices"],
                                            archive["indptr"], archive["b"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (ValueError, OSError, KeyError, EOFError,
                zipfile.BadZipFile):
            # garbage, a missing member, an emptied or truncated
            # archive, a failed zip CRC: what ``verify`` calls corrupt
            self._discard(path)
            self.misses += 1
            return None
        self._touch(path)
        self.hits += 1
        if kind == "operator":
            from repro.matrices.sparse import SparseOperator
            return SparseOperator(data, indices, indptr, shape), b
        import scipy.sparse as sp
        return sp.csr_matrix((data, indices, indptr), shape=shape), b

    def put_matrix(self, key: str, A, b) -> None:
        from repro.matrices.sparse import SparseOperator
        kind = "operator" if isinstance(A, SparseOperator) else "scipy"
        self._atomic_write(
            self._path("matrices", key, suffix=".npz"), "wb",
            lambda handle: np.savez(
                handle, kind=kind, key=key,
                shape=np.asarray(A.shape, dtype=np.int64),
                data=A.data, indices=A.indices, indptr=A.indptr,
                b=np.asarray(b)))

    # ------------------------------------------------------------------
    # journal
    # ------------------------------------------------------------------
    def journal_path(self, campaign_key: str) -> Path:
        return self.root / "journals" / f"{campaign_key}.jsonl"

    def journal_append(self, campaign_key: str, event: dict) -> None:
        """Append one event, crash-safely: the line is flushed and
        fsynced before returning, so a daemon (or worker) killed right
        after persisting a trial never leaves the journal behind the
        store.  The only loss mode is a torn *trailing* line (killed
        mid-append), which :meth:`journal_events` skips on read."""
        path = self.journal_path(campaign_key)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a") as handle:
            handle.write(json.dumps(event, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def journal_events(self, campaign_key: str) -> Iterator[dict]:
        """Parsed journal events, oldest first.

        Resilient by construction — the daemon's resume path depends on
        it: a missing journal yields nothing, a truncated trailing line
        (crash mid-append) is skipped instead of raising, and so is any
        earlier undecodable line (torn by a crash of a pre-fsync
        version, or bit rot — ``verify`` reports those).
        """
        try:
            with open(self.journal_path(campaign_key)) as handle:
                lines = handle.readlines()
        except FileNotFoundError:
            return
        for line in lines:
            stripped = line.strip()
            if not stripped:
                continue
            try:
                yield json.loads(stripped)
            except ValueError:
                # A torn final line is the expected crash artifact; an
                # unparseable earlier line is tolerated the same way so
                # one bad byte cannot hide the rest of the history.
                continue

    def journal_summary(self, campaign_key: str) -> Optional[Dict]:
        """Completed-trial count and last event of a prior run, if any.

        Events stamped with a campaign ``key`` must match
        ``campaign_key``: a journal file that was copied, renamed or
        left behind by tooling for a *different* spec is ignored
        entirely (``None``) rather than merged into the wrong campaign's
        resume report.
        """
        persisted = set()
        last = None
        for event in self.journal_events(campaign_key):
            stamped = event.get("key")
            if stamped is not None and stamped != campaign_key:
                return None
            last = event
            if event.get("event") == "trial":
                persisted.add(event.get("index"))
        if last is None:
            return None
        return {"persisted": len(persisted), "last": last}

    # ------------------------------------------------------------------
    # stats / maintenance
    # ------------------------------------------------------------------
    def stats_line(self) -> str:
        """Machine-greppable hit statistics (the CI store job parses
        this exact shape)."""
        total = self.hits + self.misses
        rate = (100.0 * self.hits / total) if total else 0.0
        return (f"store: root={self.root} hits={self.hits} "
                f"misses={self.misses} hit-rate={rate:.1f}%")

    def _entries(self, kind: str) -> List[Path]:
        """Committed entries of ``kind``, sorted: what ``os.replace``
        has put under its final name.  A ``tmp*.tmp`` beside them (a
        writer killed mid-write) is not an entry; ``gc`` ages it out."""
        pattern = {"journals": "*.jsonl", "matrices": "*/*.npz"}.get(
            kind, "*/*.json")
        return sorted((self.root / kind).glob(pattern))

    def entry_count(self) -> Dict[str, int]:
        return {kind: len(self._entries(kind))
                for kind in (*_KINDS, "journals")}

    def gc(self, days: float = GC_DEFAULT_DAYS,
           now: Optional[float] = None) -> Tuple[int, int]:
        """Prune entries unreferenced for ``days`` days.

        "Referenced" means read or written: every cache hit refreshes
        the entry's mtime, so an artifact some weekly sweep still relies
        on survives indefinitely while abandoned grids age out.
        Returns ``(removed, kept)``.
        """
        if days < 0:
            raise ValueError(f"gc age must be non-negative, got {days}")
        # repro-lint: allow[wall-clock] gc cutoff default; callers/CLI pass now= for determinism
        cutoff = (now if now is not None else time.time()) - days * 86400.0
        removed = kept = 0
        for kind in (*_KINDS, "journals"):
            # Everything by age, a writer's stale ``tmp*.tmp`` included.
            pattern = "*.jsonl" if kind == "journals" else "*/*"
            for path in sorted((self.root / kind).glob(pattern)):
                try:
                    if path.stat().st_mtime < cutoff:
                        path.unlink()
                        removed += 1
                    else:
                        kept += 1
                except OSError:
                    continue
        return removed, kept

    # ------------------------------------------------------------------
    # integrity verification
    # ------------------------------------------------------------------
    def _verify_json_entry(self, path: Path) -> Tuple[str, str]:
        """``("ok"|"legacy"|"corrupt", reason)`` for one JSON artifact."""
        try:
            payload = json.loads(path.read_text())
        except (ValueError, OSError) as exc:
            return "corrupt", f"unreadable JSON: {exc}"
        if not isinstance(payload, dict):
            return "corrupt", "payload is not an object"
        if payload.get("schema") != STORE_SCHEMA_VERSION:
            return "corrupt", (f"schema v{payload.get('schema')}, "
                               f"expected v{STORE_SCHEMA_VERSION}")
        key = payload.get("key")
        checksum = payload.get("checksum")
        if key is None and checksum is None:
            return "legacy", "entry predates embedded keys/checksums"
        if key is not None and key != path.stem:
            return "corrupt", (f"embedded key {key[:12]}... does not match "
                               f"filename {path.stem[:12]}...")
        if checksum is not None and checksum != _payload_checksum(payload):
            return "corrupt", "payload checksum mismatch (bit rot?)"
        return "ok", ""

    def _verify_matrix_entry(self, path: Path) -> Tuple[str, str]:
        try:
            with np.load(path) as archive:
                names = set(archive.files)
                for name in names:
                    _ = archive[name]  # force decompression => zip CRC check
                key = str(archive["key"]) if "key" in names else None
        except Exception as exc:  # noqa: BLE001 - any load failure = corrupt
            return "corrupt", f"unreadable npz: {exc}"
        if key is None:
            return "legacy", "matrix predates embedded keys"
        if key != path.stem:
            return "corrupt", (f"embedded key {key[:12]}... does not match "
                               f"filename {path.stem[:12]}...")
        return "ok", ""

    def _verify_journal_entry(self, path: Path) -> Tuple[str, str]:
        try:
            lines = path.read_text().splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            return "corrupt", f"unreadable journal: {exc}"
        for position, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                json.loads(line)
            except ValueError:
                if position == len(lines) - 1:
                    # Torn tail from a crash mid-append: expected, and
                    # journal_events already skips it on read.
                    return "ok", ""
                return "corrupt", f"undecodable line {position + 1}"
        return "ok", ""

    def verify(self, remove: bool = False) -> VerifyReport:
        """Re-check every stored entry against its content-token
        filename and embedded checksum.

        JSON artifacts must parse, carry the current schema, and (for
        entries written by this version) embed a ``key`` equal to their
        filename plus a checksum over their canonical serialization.
        Matrices must pass the ``.npz`` zip CRC on every member and
        match their embedded key; journals must be line-decodable except
        for a torn trailing line.  ``remove=True`` deletes corrupt
        entries (they become plain cache misses — the store recomputes
        them on the next campaign).
        """
        report = VerifyReport()
        checkers = {kind: self._verify_json_entry for kind in _KINDS}
        checkers["matrices"] = self._verify_matrix_entry
        checkers["journals"] = self._verify_journal_entry
        for kind, check in checkers.items():
            for path in self._entries(kind):
                verdict, reason = check(path)
                self._verify_record(report, kind, path, verdict, reason,
                                    remove)
        return report

    @staticmethod
    def _verify_record(report: VerifyReport, kind: str, path: Path,
                       verdict: str, reason: str, remove: bool) -> None:
        if verdict == "ok":
            report.verified += 1
        elif verdict == "legacy":
            report.legacy += 1
        else:
            report.corrupt.append((kind, str(path), reason))
            if remove:
                try:
                    path.unlink()
                    report.removed += 1
                except OSError:
                    pass


# ----------------------------------------------------------------------
# command-line spelling of the store
# ----------------------------------------------------------------------
def add_store_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the ``--store`` / ``--no-store`` pair on ``parser``."""
    parser.add_argument("--store", default=None, metavar="DIR",
                        help=f"content-addressed store directory (default: "
                             f"{STORE_ENV} or {DEFAULT_STORE_PATH})")
    parser.add_argument("--no-store", action="store_true",
                        help="run without the campaign store: nothing is "
                             "read from or persisted to disk, everything "
                             "executes")


def store_from_args(args: argparse.Namespace) -> Optional[CampaignStore]:
    """The store the parsed pair selects (``None`` for ``--no-store``).
    Raises :class:`StoreSchemaError` on an incompatible directory."""
    return None if args.no_store else CampaignStore(args.store)


# ----------------------------------------------------------------------
# the read-through cache: a RAM tier over an optional store
# ----------------------------------------------------------------------
class CampaignCache:
    """Matrices, baselines and trials by content address: a RAM tier
    over an optional :class:`CampaignStore`.

    A RAM miss falls through to the store (when there is one) and a
    store hit is promoted into RAM; a ``put_*`` writes through to both.
    Callers hand one in rather than reach for one: ``run_campaign``
    makes one per call around the store it is given, the daemon holds
    one for its lifetime (the only instance more than one thread uses:
    dictionary reads and writes are atomic, the counters take the
    lock), and one pickled to a pool child arrives as that process's own
    (:func:`process_cache`).
    """

    KINDS = ("matrices", "baselines", "trials")

    def __init__(self, store: Optional[CampaignStore] = None):
        self.store = store
        self._ram: Dict[str, dict] = {kind: {} for kind in self.KINDS}
        #: Iteration shapes compiled in this process, keyed and filled by
        #: ``solvers.cg_plan.CGPlanner`` (``solve_trial`` hands it to each
        #: solver).  RAM only: never stored, and never pickled — a pool
        #: child grows its own.  No eviction: an entry is a few KB per
        #: distinct shape.
        self.compiled: dict = {}
        #: Look-ups per kind, whichever tier answered (``/metrics``).
        self.hits = dict.fromkeys(self.KINDS, 0)
        self.misses = dict.fromkeys(self.KINDS, 0)
        self._lock = make_lock("CampaignCache.lock")

    def __reduce__(self):
        """Across a pool only the store's root travels (``None`` without
        a store); it unpickles to the worker process's own cache."""
        return process_cache, (None if self.store is None
                               else str(self.store.root),)

    def _get(self, kind: str, key: str, load):
        value = self._ram[kind].get(key)
        if value is None and self.store is not None:
            value = load(self.store, key)
            if value is not None:
                self._ram[kind][key] = value
        with self._lock:
            (self.misses if value is None else self.hits)[kind] += 1
        return value

    def get_matrix(self, key: str):
        return self._get("matrices", key, CampaignStore.get_matrix)

    def get_baseline(self, key: str) -> Optional[float]:
        return self._get("baselines", key, CampaignStore.get_baseline)

    def get_trial(self, key: str):
        return self._get("trials", key, CampaignStore.get_trial)

    def put_matrix(self, key: str, A, b) -> None:
        self._ram["matrices"][key] = (A, b)
        if self.store is not None:
            self.store.put_matrix(key, A, b)

    def put_baseline(self, key: str, ideal_time: float) -> None:
        self._ram["baselines"][key] = ideal_time
        if self.store is not None:
            self.store.put_baseline(key, ideal_time)

    def keep_trial(self, key: str, result) -> None:
        """RAM only: for a trial a pool child has already written to the
        store (the daemon's trial tier)."""
        self._ram["trials"][key] = result

    def put_trial(self, key: str, result) -> None:
        self.keep_trial(key, result)
        if self.store is not None:
            self.store.put_trial(key, result)

    def journal_append(self, campaign_key: str, event: dict) -> None:
        """Journal pass-through; a storeless cache journals nothing."""
        if self.store is not None:
            self.store.journal_append(campaign_key, event)

    def counts(self, kind: str) -> Dict[str, object]:
        hits, misses = self.hits[kind], self.misses[kind]
        total = hits + misses
        return {"hits": hits, "misses": misses,
                "hit_rate_percent":
                    round(100.0 * hits / total, 1) if total else 0.0}


#: The one per-process registry of the campaign package: what a cache
#: unpickled in a pool child resolves its store root through, so the
#: child builds each matrix and solves each baseline once however many
#: trials (or, under the daemon, jobs) it is sent.
_PROCESS_CACHES: Dict[Optional[str], CampaignCache] = {}


def process_cache(root: Optional[str] = None) -> CampaignCache:
    """This process's :class:`CampaignCache` for the store at ``root``
    (``None``: a storeless run), created on first use."""
    cache = _PROCESS_CACHES.get(root)
    if cache is None:
        cache = CampaignCache(None if root is None else CampaignStore(root))
        _PROCESS_CACHES[root] = cache
    return cache
