"""Content-addressed on-disk store for campaign artifacts.

The store persists a campaign's outcomes, each a pure function of spec
content: fault-free baselines of ``(matrix, knobs)`` and per-trial
results of the full :meth:`~repro.campaign.spec.TrialSpec.content_token`.
It files each under the SHA-256 of its canonical token, which makes
campaigns

* **incremental** — re-running a sweep after adding one error rate only
  executes the new cells (content-keyed seeds, see
  ``CampaignSpec.trial_seed``, keep every old trial's address stable);
* **resumable** — workers persist every completed trial immediately, so
  an interrupted campaign restarts from its last persisted trial;
* **shared** — a quick sub-grid campaign warms the cache for the full
  sweep, across processes and across days;
* **shardable** — ``--shard i/N`` runs persist into a store; shards run
  into separate stores combine by a no-clobber copy of ``trials/`` and
  ``baselines/`` (entries are content-addressed and deterministic), and
  an unsharded run over the combined store executes only what is
  missing.

Layout under the root (default ``~/.cache/repro-campaign``, overridable
via the ``REPRO_CAMPAIGN_STORE`` environment variable)::

    SCHEMA                      # {"schema": 1} — version guard
    trials/ab/<sha256>.json     # TrialResult payloads
    baselines/ab/<sha256>.json  # ideal fault-free solve times (hex floats)
    journals/<sha256>.jsonl     # per-campaign progress journal
    matrices/, scalars/         # earlier versions only: ignored

The inputs are not stored.  Like the paper, which protects only the
solver's dynamic state and reloads the matrix and right-hand side from
their source, a process rebuilds a problem from its
:class:`~repro.campaign.spec.MatrixSpec` on a RAM miss: a lost input
costs a rebuild of a few milliseconds, never a bit.

Correctness anchor: a cache hit must be *byte-identical* to a cold
computation.  JSON floats round-trip exactly in Python (``repr``-based)
and baselines are stored as ``float.hex()`` — the equivalence tests
assert cold and warm fingerprints match bit-for-bit.  Every entry is
sealed: it embeds its own key and a checksum, and one without both is
corrupt.  Writes go through a same-directory temp file plus
``os.replace``, so concurrent workers (process pools, parallel shards
on a shared filesystem) never observe half-written artifacts.  Nothing
is fsynced: a killed process loses nothing it has handed to
``os.write``, and what a machine crash loses is recomputed, as the
paper rebuilds a lost page instead of reading it back from disk.
Entries are created ``0o666`` less the umask, like the journals, so a
store shared across users is readable by all of them.

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
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.campaign.results import trial_from_payload, trial_payload
from repro.sanitize import make_lock

#: Version of the on-disk layout and of every artifact payload.  Bump on
#: any change to the serialization or to the content-token scheme.
STORE_SCHEMA_VERSION = 1

#: Environment variable overriding the store root directory.
STORE_ENV = "REPRO_CAMPAIGN_STORE"

#: Default store root (per-user, survives across campaigns).
DEFAULT_STORE_PATH = "~/.cache/repro-campaign"

#: Artifact kinds and their subdirectories.
_KINDS = ("trials", "baselines")

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


def _sealed(body: dict) -> str:
    """The stored text of a JSON artifact: ``body``'s canonical
    serialization (sorted keys) with a leading ``"checksum"`` member,
    the SHA-256 of that serialization.  The member leads, so a reader
    re-hashes the bytes after it (:func:`_seal_holds`) instead of
    re-serializing the payload."""
    canon = json.dumps(body, sort_keys=True)
    checksum = hashlib.sha256(canon.encode("utf-8")).hexdigest()
    return f'{{"checksum": "{checksum}", {canon[1:]}'


def _seal_holds(data: bytes, checksum: object) -> bool:
    """True iff ``data`` is what :func:`_sealed` writes for a checksum
    of ``checksum``: it leads with that member and the rest hashes to it."""
    head = f'{{"checksum": "{checksum}", '.encode("utf-8")
    if not data.startswith(head):
        return False
    digest = hashlib.sha256(b"{")
    digest.update(memoryview(data)[len(head):])
    return digest.hexdigest() == checksum


#: What an integrity check returns: ``(verdict, reason, content)``.  The
#: verdict is ``"ok"``; ``"schema"`` for another schema version (a read
#: raises, ``verify`` counts it corrupt); ``"missing"``; or
#: ``"corrupt"``.  ``content`` is the parsed entry, ``None`` unless it
#: is ok or of another schema.
Verdict = Tuple[str, str, Optional[dict]]


def _judge_json(path: str, key: str) -> Verdict:
    """The one integrity check of a stored artifact filed under ``key``,
    shared by the read path and :meth:`CampaignStore.verify`: it must
    carry the current schema, embed ``key`` and hold its seal."""
    try:
        # One unbuffered read of the whole entry: an entry is never
        # rewritten in place (``os.replace``), so its size is fixed once
        # it is open, and a short read would fail the seal, not pass it.
        fd = os.open(path, os.O_RDONLY)
        try:
            data = os.read(fd, os.fstat(fd).st_size)
        finally:
            os.close(fd)
        payload = json.loads(data)
    except FileNotFoundError:
        return "missing", "entry is gone", None
    except (ValueError, OSError) as exc:
        return "corrupt", f"unreadable JSON: {exc}", None
    if not isinstance(payload, dict):
        return "corrupt", "payload is not an object", None
    found = payload.get("schema")
    if found != STORE_SCHEMA_VERSION:
        return "schema", (f"schema v{found}, expected "
                          f"v{STORE_SCHEMA_VERSION}"), payload
    found, checksum = payload.get("key"), payload.get("checksum")
    if found is None or checksum is None:
        return "corrupt", "unsealed: no embedded key or checksum", None
    if found != key:
        return "corrupt", (f"embedded key {str(found)[:12]}... does not "
                           f"match filename {key[:12]}..."), None
    if not _seal_holds(data, checksum):
        return "corrupt", "payload checksum mismatch (bit rot?)", None
    return "ok", "", payload


def _judge_journal(path: Path, key: str) -> Verdict:
    """The integrity check of a campaign journal: every line decodes but
    a torn trailing one (``key`` is not embedded in a journal)."""
    try:
        lines = path.read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        return "corrupt", f"unreadable journal: {exc}", None
    for position, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            json.loads(line)
        except ValueError:
            if position == len(lines) - 1:
                # Torn tail from a crash mid-append: expected, and
                # journal_events already skips it on read.
                return "ok", "", None
            return "corrupt", f"undecodable line {position + 1}", None
    return "ok", "", None


@dataclass
class VerifyReport:
    """Outcome of :meth:`CampaignStore.verify`."""

    #: Entries whose integrity was positively confirmed.
    verified: int = 0
    #: ``(kind, path, reason)`` of every corrupt entry found.
    corrupt: List[Tuple[str, str, str]] = field(default_factory=list)
    #: Corrupt entries deleted (``verify(remove=True)``).
    removed: int = 0

    @property
    def ok(self) -> bool:
        return not self.corrupt


class CampaignStore:
    """Content-addressed artifact store rooted at ``root``.

    Opening validates (or stamps) the schema version; all reads refresh
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
            except OSError as exc:
                raise StoreSchemaError(
                    f"cannot read {self._schema_path} ({exc.strerror}): make "
                    f"it readable (chmod) or point {STORE_ENV} elsewhere") from None
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
            # journal_append relies on it; a read-only store may refuse
            with contextlib.suppress(OSError):
                (self.root / "journals").mkdir(exist_ok=True)
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
        self._atomic_write(str(self._schema_path), schema + "\n")

    # ------------------------------------------------------------------
    # low-level helpers
    # ------------------------------------------------------------------
    def _path(self, kind: str, key: str) -> str:
        """The file of the entry under ``key`` — a plain string, as the
        read path builds one per look-up."""
        return f"{self.root}/{kind}/{key[:2]}/{key}.json"

    @staticmethod
    def _atomic_write(path: str, text: str) -> None:
        """``text`` (UTF-8) into a same-directory temporary, then
        ``os.replace``: readers see the old entry or the new, never a
        torn one.  The temporary is ``<entry>.<random hex>.tmp``, unique
        across hosts sharing the store; the bucket directory is made
        only when the temporary cannot be opened without it."""
        data = text.encode("utf-8")
        tmp = f"{path}.{os.urandom(8).hex()}.tmp"
        flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
        try:
            fd = os.open(tmp, flags, 0o666)
        except FileNotFoundError:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd = os.open(tmp, flags, 0o666)
        try:
            try:
                while data:
                    data = data[os.write(fd, data):]
            finally:
                os.close(fd)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    @staticmethod
    def _touch(path: str) -> None:
        try:
            os.utime(path)
        except OSError:
            pass  # read-only shared store: hits still work, gc won't

    @staticmethod
    def _discard(path: str) -> None:
        """Drop a corrupt entry: the next read is a plain miss and the
        artifact is recomputed (what ``verify(remove=True)`` does)."""
        with contextlib.suppress(OSError):
            os.unlink(path)

    def _get(self, kind: str, key: str, decode):
        """``decode(content)`` of the entry under ``key``, counted as a
        hit or a miss.  An entry the integrity check calls corrupt, or
        whose content does not decode (a missing or mistyped field), is
        discarded and read as a miss, so it is recomputed; another
        schema version fails loudly."""
        path = self._path(kind, key)
        verdict, reason, content = _judge_json(path, key)
        if verdict == "schema":
            raise StoreSchemaError(
                f"artifact {path} carries {reason}; run `python -m "
                f"repro.campaign store --gc --days 0` or delete the store "
                f"at {self.root}")
        if content is not None:
            try:
                value = decode(content)
            except (KeyError, TypeError, ValueError):
                pass
            else:
                self._touch(path)
                self.hits += 1
                return value
        if verdict != "missing":
            self._discard(path)
        self.misses += 1
        return None

    def _put_json(self, kind: str, key: str, payload: dict) -> None:
        # Self-describing integrity: the entry carries its own content
        # address ("key" — must match the filename) and a checksum over
        # the canonical serialization, so a misplaced or bit-rotted entry
        # is caught, on every read and by ``verify``.
        text = _sealed({"schema": STORE_SCHEMA_VERSION, "key": key,
                        **payload})
        self._atomic_write(self._path(kind, key), text)

    # ------------------------------------------------------------------
    # trials
    # ------------------------------------------------------------------
    def get_trial(self, key: str):
        """The cached :class:`TrialResult` under ``key``, or ``None``."""
        return self._get("trials", key,
                         lambda payload: trial_from_payload(payload["trial"]))

    def put_trial(self, key: str, result) -> None:
        self._put_json("trials", key, {"trial": trial_payload(result)})

    # ------------------------------------------------------------------
    # fault-free baselines
    # ------------------------------------------------------------------
    def get_baseline(self, key: str) -> Optional[float]:
        return self._get(
            "baselines", key,
            lambda payload: float.fromhex(payload["ideal_time"]))

    def put_baseline(self, key: str, ideal_time: float) -> None:
        self._put_json("baselines", key,
                       {"ideal_time": float(ideal_time).hex()})

    # ------------------------------------------------------------------
    # journal
    # ------------------------------------------------------------------
    def journal_path(self, campaign_key: str) -> Path:
        return self.root / "journals" / f"{campaign_key}.jsonl"

    def journal_append(self, campaign_key: str, event: dict) -> None:
        """Append one event as one line of bytes, through no Python file
        object.  A line this has returned survives the death of its
        process (the kernel holds it); it is not fsynced, since no entry
        is, and a flushed journal could only run ahead of the store.
        The only debris a crash leaves is a torn or missing *trailing*
        line, which :meth:`journal_events` and ``verify`` tolerate."""
        line = (json.dumps(event, sort_keys=True) + "\n").encode("utf-8")
        fd = os.open(f"{self.root}/journals/{campaign_key}.jsonl",
                     os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            while line:
                line = line[os.write(fd, line):]
        finally:
            os.close(fd)

    def journal_events(self, campaign_key: str) -> Iterator[dict]:
        """Parsed journal events, oldest first.

        Resilient by construction — the CLI's ``resume:`` line reads
        it: a missing journal yields nothing, a truncated trailing line
        (crash mid-append) is skipped instead of raising, and so is any
        earlier undecodable line (a torn tail a later run appended
        past, or bit rot — ``verify`` reports those).
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
        """Completed-trial count, last event and the ``shard`` of the
        last ``start`` event (``None``: unsharded) of a prior run, if any.

        Events stamped with a campaign ``key`` must match
        ``campaign_key``: a journal file that was copied, renamed or
        left behind by tooling for a *different* spec is ignored
        entirely (``None``) rather than merged into the wrong campaign's
        resume report.
        """
        persisted = set()
        last = shard = None
        for event in self.journal_events(campaign_key):
            stamped = event.get("key")
            if stamped is not None and stamped != campaign_key:
                return None
            last = event
            if event.get("event") == "trial":
                persisted.add(event.get("index"))
            elif event.get("event") == "start":
                shard = event.get("shard")
        if last is None:
            return None
        return {"persisted": len(persisted), "last": last, "shard": shard}

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
        has put under its final name.  A ``<entry>.<hex>.tmp`` beside
        them (a writer killed mid-write) is not an entry; ``gc`` ages it
        out."""
        pattern = "*.jsonl" if kind == "journals" else "*/*.json"
        return sorted((self.root / kind).glob(pattern))

    def entry_count(self) -> Dict[str, int]:
        return {kind: len(self._entries(kind))
                for kind in (*_KINDS, "journals")}

    def gc(self, days: float = GC_DEFAULT_DAYS) -> Tuple[int, int]:
        """Prune entries unreferenced for ``days`` days.

        "Referenced" means read or written: every cache hit refreshes
        the entry's mtime, so an artifact some weekly sweep still relies
        on survives indefinitely while abandoned grids age out.
        Returns ``(removed, kept)``.
        """
        if not days >= 0:  # also refuses NaN, which compares false
            raise ValueError(f"gc age must be non-negative, got {days}")
        # repro-lint: allow[wall-clock] gc ages entries by mtime, a wall-clock stamp
        cutoff = time.time() - days * 86400.0
        removed = kept = 0
        for kind in (*_KINDS, "journals"):
            # Everything by age, a writer's stale ``*.tmp`` included.
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
    def verify(self, remove: bool = False) -> VerifyReport:
        """Re-check every stored entry against its content-token
        filename and embedded checksum — the check every read makes.

        Trials and baselines must parse, carry the current schema, and
        embed a ``key`` equal to their filename plus a checksum over
        their canonical serialization; journals must be line-decodable
        except for a torn trailing line.  ``remove=True`` deletes corrupt
        entries (they become plain cache misses — the store recomputes
        them on the next campaign, as a read of one would).
        """
        report = VerifyReport()
        for kind in (*_KINDS, "journals"):
            judge = _judge_journal if kind == "journals" else _judge_json
            for path in self._entries(kind):
                verdict, reason, _ = judge(path, path.stem)
                if verdict == "ok":
                    report.verified += 1
                    continue
                report.corrupt.append((kind, str(path), reason))
                if remove:
                    with contextlib.suppress(OSError):
                        path.unlink()
                        report.removed += 1
        return report


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
    """Baselines and trials by content address, a RAM tier over an
    optional :class:`CampaignStore`, and the built problems, in RAM only.

    A baseline or trial RAM miss falls through to the store (when there
    is one) and a store hit is promoted into RAM; a ``put_*`` writes
    through to both.  A built problem never leaves its process: a miss
    is a rebuild from the spec (``engine._problem``); nor do the compiled
    iteration shapes and the prefix tapes, where a later trial of a
    method starts at its first injection instead of at iteration 0.
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
        #: Prefix tapes (``solvers.resilient_cg.PrefixTape``) by problem,
        #: knobs and method, then by checkpoint interval, filled by the
        #: trials ``solve_trial`` hands them to, which keeps the
        #: ``engine.TAPE_KEYS`` most recently used keys.  RAM only, like
        #: ``compiled``; at most 8 snapshots of the five protected
        #: vectors per tape.
        self.tapes: dict = {}
        #: Look-ups per kind, whichever tier answered (``/metrics``).
        self.hits = dict.fromkeys(self.KINDS, 0)
        self.misses = dict.fromkeys(self.KINDS, 0)
        self._lock = make_lock("CampaignCache.lock")

    def __reduce__(self):
        """Across a pool only the store's root travels (``None`` without
        a store); it unpickles to the worker process's own cache."""
        return process_cache, (None if self.store is None
                               else str(self.store.root),)

    def _get(self, kind: str, key: str, load=None):
        value = self._ram[kind].get(key)
        if value is None and load is not None and self.store is not None:
            value = load(self.store, key)
            if value is not None:
                self._ram[kind][key] = value
        with self._lock:
            (self.misses if value is None else self.hits)[kind] += 1
        return value

    def get_matrix(self, key: str):
        return self._get("matrices", key)

    def get_baseline(self, key: str) -> Optional[float]:
        return self._get("baselines", key, CampaignStore.get_baseline)

    def get_trial(self, key: str):
        return self._get("trials", key, CampaignStore.get_trial)

    def put_matrix(self, key: str, A, b) -> None:
        self._ram["matrices"][key] = (A, b)

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
