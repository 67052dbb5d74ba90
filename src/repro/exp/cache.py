"""The sweep result store: content-addressed, invalidated by code change.

Every completed run is one row of a single SQLite file, addressed by
``(experiment, key)`` where ``key = sha256(experiment name, canonical
config JSON, code version)``.  The code version is a content fingerprint
of the source that produced the result — the :mod:`repro` package tree
plus any ``code_paths`` the experiment names (its benchmark module,
typically) — so editing a model or a bench module invalidates exactly
the runs whose code changed, while re-running an untouched sweep is pure
store hits.

Only successful runs are stored; timeouts and errors are always retried
on the next invocation.

One store serves every reader and writer: ``repro bench``, ``repro
serve`` and ``repro cache`` all open it through :func:`open_store`.  The
location is ``$REPRO_STORE``, else ``~/.cache/repro/store.sqlite``
(:func:`default_store_path`); ``repro bench --cache-dir DIR`` and
``--store PATH`` name another one.  A directory path gets a
``store.sqlite`` inside it.

Values round-trip through canonical JSON (``sort_keys`` +
``default=repr``), so a sweep served from the store assembles a table
byte-identical to a freshly simulated one.
"""

import functools
import hashlib
import json
import os
import threading
import time

__all__ = ["SqliteStore", "code_fingerprint", "config_key",
           "default_store_path", "invalidate_fingerprints", "open_store"]

#: Name of the SQLite file created inside a store *directory*.
STORE_FILENAME = "store.sqlite"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    experiment   TEXT NOT NULL,
    key          TEXT NOT NULL,
    config       TEXT NOT NULL,
    code_version TEXT,
    value        TEXT NOT NULL,
    created      REAL NOT NULL,
    hits         INTEGER NOT NULL DEFAULT 0,
    last_hit     REAL,
    PRIMARY KEY (experiment, key)
);
"""


def _iter_source_files(path):
    """Yield the .py files under ``path`` (or ``path`` itself), sorted."""
    if os.path.isfile(path):
        yield path
        return
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


@functools.lru_cache(maxsize=None)
def code_fingerprint(*paths):
    """A stable hash of the *contents* of the given source files/trees.

    Content-based (not mtime-based) so checkouts and CI machines agree;
    memoized per process because the engine asks once per run.
    """
    digest = hashlib.sha256()
    for path in paths:
        root = os.path.abspath(path)
        for filename in _iter_source_files(root):
            digest.update(os.path.relpath(filename, root).encode())
            with open(filename, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def invalidate_fingerprints():
    """Drop every memoized :func:`code_fingerprint` result.

    The memoization is per process-lifetime, which is wrong the moment
    source files change underneath a live process — a long-running
    driver (or a test that edits fixture code on disk) would keep
    serving cache entries stamped with a stale code version.  Call this
    after any on-disk source change; ``repro bench`` calls it once per
    suite invocation.
    """
    code_fingerprint.cache_clear()


def repro_fingerprint():
    """Fingerprint of the repro package source itself."""
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return code_fingerprint(package_root)


def config_key(experiment_name, config, code_version):
    """The cache key: content hash of (experiment, config, code-version)."""
    blob = json.dumps(
        {"experiment": experiment_name, "config": config,
         "code_version": code_version},
        sort_keys=True, separators=(",", ":"), default=repr,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def default_store_path():
    """The store location: ``$REPRO_STORE`` or ``~/.cache/repro``."""
    env = os.environ.get("REPRO_STORE")
    if env:
        return os.path.abspath(env)
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def open_store(path=None):
    """Open the store at ``path`` (default :func:`default_store_path`).

    A ``*.sqlite``/``*.db`` path or an existing file is the SQLite file
    itself; any other path is a directory holding ``store.sqlite``.
    """
    path = os.path.abspath(path or default_store_path())
    if path.endswith((".sqlite", ".db")) or os.path.isfile(path):
        return SqliteStore(path)
    return SqliteStore(os.path.join(path, STORE_FILENAME))


def _read_dir_entries(root):
    """Yield ``(experiment, key, entry)`` from a legacy directory cache:
    one ``<root>/<experiment>/<key>.json`` file per run, each holding
    ``config``, ``code_version`` and ``value``.  Unreadable files are
    skipped."""
    if not os.path.isdir(root):
        return
    for experiment in sorted(os.listdir(root)):
        exp_dir = os.path.join(root, experiment)
        if not os.path.isdir(exp_dir):
            continue
        for filename in sorted(os.listdir(exp_dir)):
            if not filename.endswith(".json"):
                continue
            try:
                with open(os.path.join(exp_dir, filename), "r",
                          encoding="utf-8") as fh:
                    entry = json.load(fh)
            except (OSError, ValueError):
                continue
            yield experiment, filename[:-5], entry


def _dumps(value):
    return json.dumps(value, sort_keys=True, default=repr)


class SqliteStore:
    """SQLite-backed content-addressed result store.

    One writer at a time (WAL mode), safe across threads behind an
    internal lock.  Lookups are a primary-key probe, and maintenance
    (``stats`` / ``prune`` / ``clear``) runs as SQL aggregates.
    """

    def __init__(self, path):
        # Imported here: ``import repro.cli`` reaches this module, and
        # only commands that open a store should pay for sqlite3.
        import sqlite3

        self.path = os.path.abspath(path)
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._db = sqlite3.connect(self.path, check_same_thread=False)
        with self._lock:
            self._db.execute("PRAGMA journal_mode=WAL")
            self._db.execute(_SCHEMA)
            self._db.commit()

    # -- the engine cache interface ------------------------------------
    def get(self, experiment_name, key):
        """(found, value) with persistent hit accounting."""
        with self._lock:
            row = self._db.execute(
                "SELECT value FROM results WHERE experiment=? AND key=?",
                (experiment_name, key)).fetchone()
            if row is None:
                self.misses += 1
                return False, None
            self._db.execute(
                "UPDATE results SET hits=hits+1, last_hit=? "
                "WHERE experiment=? AND key=?",
                (time.time(), experiment_name, key))
            self._db.commit()
        self.hits += 1
        return True, json.loads(row[0])

    def put(self, experiment_name, key, config, code_version, value):
        """Persist one successful run value (idempotent upsert)."""
        blob = _dumps(value)
        with self._lock:
            self._db.execute(
                "INSERT INTO results (experiment, key, config, "
                "code_version, value, created) VALUES (?, ?, ?, ?, ?, ?) "
                "ON CONFLICT(experiment, key) DO UPDATE SET value=?",
                (experiment_name, key, _dumps(config), code_version, blob,
                 time.time(), blob))
            self._db.commit()

    # -- maintenance (the `repro cache` surface) -----------------------
    def stats(self):
        """Aggregate store statistics, including persistent hit counts."""
        with self._lock:
            total, total_bytes, total_hits, oldest = self._db.execute(
                "SELECT COUNT(*), COALESCE(SUM(LENGTH(value)), 0), "
                "COALESCE(SUM(hits), 0), MIN(created) FROM results"
            ).fetchone()
            per_experiment = {
                name: {"entries": entries, "bytes": size, "hits": hits}
                for name, entries, size, hits in self._db.execute(
                    "SELECT experiment, COUNT(*), SUM(LENGTH(value)), "
                    "SUM(hits) FROM results GROUP BY experiment "
                    "ORDER BY experiment")
            }
        return {
            "backend": "sqlite",
            "root": self.path,
            "entries": total,
            "bytes": total_bytes,
            "hits": total_hits,
            "experiments": per_experiment,
            # Clamped at zero: a backwards clock step between write and
            # stat must not report a negative age.
            "oldest_age_seconds": (None if oldest is None
                                   else round(max(0.0, time.time() - oldest),
                                              1)),
            "session": {"hits": self.hits, "misses": self.misses},
        }

    def prune(self, older_than_seconds):
        """Delete entries created before the cutoff; returns rows removed.

        ``older_than_seconds`` must be non-negative — a negative window
        (e.g. a mis-parsed ``--older-than``) would place the cutoff in
        the future and delete entries written this instant.  The cutoff
        is additionally clamped to *now*, so a row whose ``created``
        stamp lies in the future (the wall clock stepped backwards since
        the write) has its age treated as zero, never as prunable.
        """
        if not older_than_seconds >= 0:
            raise ValueError(
                f"older_than_seconds must be >= 0, got {older_than_seconds!r}")
        now = time.time()
        cutoff = min(now - older_than_seconds, now)
        with self._lock:
            cursor = self._db.execute(
                "DELETE FROM results WHERE created < ?", (cutoff,))
            self._db.commit()
        return cursor.rowcount

    def clear(self):
        """Delete every entry; returns rows removed."""
        with self._lock:
            cursor = self._db.execute("DELETE FROM results")
            self._db.commit()
        return cursor.rowcount

    def ingest_dir(self, root):
        """Import a legacy directory cache (``<root>/<experiment>/<key>.json``
        files) into this store; returns entries imported.  Existing keys
        are left untouched (the directory entry is not newer)."""
        imported = 0
        with self._lock:
            for experiment, key, entry in _read_dir_entries(root):
                cursor = self._db.execute(
                    "INSERT OR IGNORE INTO results (experiment, key, "
                    "config, code_version, value, created) "
                    "VALUES (?, ?, ?, ?, ?, ?)",
                    (experiment, key, _dumps(entry.get("config")),
                     entry.get("code_version"), _dumps(entry.get("value")),
                     time.time()))
                imported += cursor.rowcount
            self._db.commit()
        return imported

    def close(self):
        with self._lock:
            self._db.close()
