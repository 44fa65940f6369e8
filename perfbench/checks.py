"""Correctness accounting: every checked operation is attempted once and
either passes or is counted as failed (a mismatch, an exception or an
HTTP error alike)."""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import threading
from typing import Dict, Iterator, Mapping

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "digests.json")


def load_digests() -> Dict[str, str]:
    """Committed SHA-256 of each workload scenario's deterministic JSON
    at the default seed (0)."""
    with open(DIGESTS_PATH, "r", encoding="utf-8") as stream:
        return json.load(stream)["sha256"]


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Ledger:
    """Thread-safe count of attempted and failed operations."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
        if not ok:
            print(f"perfbench: FAILED {what}", file=sys.stderr, flush=True)
        return ok

    @contextlib.contextmanager
    def operation(self, what: str) -> Iterator[None]:
        """Count an exception escaping the block as one failed operation.

        The block reports its own outcome through :meth:`check`; only
        the exception path is recorded here.
        """
        try:
            yield
        except Exception as error:  # the benchmark loop must keep going
            self.check(False, f"{what}: {type(error).__name__}: {error}")

    def check_digest(self, name: str, text: str,
                     digests: Mapping[str, str]) -> bool:
        return self.check(digests.get(name) == sha256_text(text),
                          f"{name}: digest differs from digests.json")
