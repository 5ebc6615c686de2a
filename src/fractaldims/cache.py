"""Content-addressed result cache keyed by canonical config JSON.

The cache root comes from the FRACTAL_DIMS_CACHE environment variable;
without it caching is disabled.  Each entry is one JSON file,
``<root>/<key>.json``, named by the SHA-256 of (command, canonical config,
package version, source digest), so a result computed by other code is
never served.  It holds the run's output files, as latin-1 text so that
their bytes round-trip exactly, and its checks list.  It is written to a
temporary file in the root and renamed over the entry, so no reader sees
a half-written entry; one that does not parse is a miss.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
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
    """The entries under FRACTAL_DIMS_CACHE; ``root`` is None without it."""

    def __init__(self):
        root = os.environ.get("FRACTAL_DIMS_CACHE")
        self.root = Path(root) if root else None

    def load(self, key: str) -> tuple[dict[str, bytes], list] | None:
        """(files, checks) stored under the key, or None when the entry is
        missing or does not parse."""
        try:
            doc = json.loads((self.root / f"{key}.json").read_text())
            return ({name: text.encode("latin-1")
                     for name, text in doc["files"].items()}, doc["checks"])
        except (OSError, ValueError, LookupError, TypeError, AttributeError):
            return None

    def store(self, key: str, files: dict[str, bytes], checks: list) -> None:
        """Write the entry in one rename over ``<root>/<key>.json``."""
        self.root.mkdir(parents=True, exist_ok=True)
        doc = {"files": {name: blob.decode("latin-1")
                         for name, blob in files.items()}, "checks": checks}
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(doc, fh)
            os.replace(tmp, self.root / f"{key}.json")
        except BaseException:
            os.unlink(tmp)
            raise
