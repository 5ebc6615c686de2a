"""Content-addressed result cache keyed by canonical config JSON.

The cache root comes from the FRACTAL_DIMS_CACHE environment variable;
without it caching is disabled.  Entries are directories named by the
SHA-256 of (command, canonical config, package version, source digest),
so a result computed by other code is never served; writes go through a
temp directory and a rename so a crashed run never leaves a half entry.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import shutil
import tempfile
from pathlib import Path


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def config_hash(command: str, config: dict) -> str:
    payload = canonical_json({"command": command, "config": config})
    return hashlib.sha256(payload.encode()).hexdigest()


@functools.cache
def source_digest() -> str:
    """SHA-256 over the package's own *.py files, read once per process."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class ResultCache:
    def __init__(self):
        root = os.environ.get("FRACTAL_DIMS_CACHE")
        self.root = Path(root) if root else None

    def enabled(self) -> bool:
        return self.root is not None

    def lookup(self, key: str) -> Path | None:
        if not self.enabled():
            return None
        entry = self.root / key
        return entry if (entry / "_complete").exists() else None

    def store(self, key: str, files: dict[str, bytes]) -> Path | None:
        """Atomically store named blobs under the key; returns the entry."""
        if not self.enabled():
            return None
        self.root.mkdir(parents=True, exist_ok=True)
        entry = self.root / key
        if (entry / "_complete").exists():
            return entry
        tmp = Path(tempfile.mkdtemp(dir=self.root, prefix=".wip-"))
        try:
            for name, blob in files.items():
                path = tmp / name
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(blob)
            (tmp / "_complete").write_text("ok\n")
            if entry.exists():
                shutil.rmtree(tmp)
                return entry
            os.replace(tmp, entry)
            return entry
        except OSError:
            shutil.rmtree(tmp, ignore_errors=True)
            raise

    def load_all(self, key: str) -> dict[str, bytes] | None:
        entry = self.lookup(key)
        if entry is None:
            return None
        out = {}
        for path in sorted(entry.rglob("*")):
            if path.is_file() and path.name != "_complete":
                out[str(path.relative_to(entry))] = path.read_bytes()
        return out
