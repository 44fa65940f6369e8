"""Set-up cost in fresh interpreters: ``import repro`` plus a scenario build.

Each sample is normalized by the mean of the probes taken right before
and right after it (:func:`bracketed`), like every other timing.  A probe
taken only before each interpreter made the run-to-run spread worse than
raw times (quartile spread 0.26-0.29 of the median against 0.14 raw over
five runs); with the bracketing probes, the medians of two sets of runs
agree far better than raw ones (``served-mixed`` on the reference host,
five then ten runs: 1.67 s and 1.72 s normalized, 1.76 s and 1.41 s
raw).  Each sample records its raw time and both probes.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import Dict, List, Sequence

from perfbench.probe import normalize_between, probe_ms

#: Fresh interpreters per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    return env


def build_code(names: Sequence[str]) -> str:
    """Python source that imports ``repro`` and builds the campaign."""
    return ("import repro\n"
            "from repro.scenarios import Campaign, CampaignEntry\n"
            f"Campaign([CampaignEntry(n, seed=0) for n in {list(names)!r}])"
            ".build_scenarios()\n")


def bracketed(action) -> Dict[str, float]:
    """Wall seconds of ``action()``, raw and normalized by the probes
    taken right before and right after it."""
    before = probe_ms()
    start = time.perf_counter()
    action()
    raw = time.perf_counter() - start
    after = probe_ms()
    return {"raw": raw, "probe_ms": before, "probe_after_ms": after,
            "value": normalize_between(raw, before, after)}


def setup_samples(names: Sequence[str]) -> List[Dict[str, float]]:
    """Fresh interpreters importing ``repro`` and building ``names``."""
    command = [sys.executable, "-c", build_code(names)]
    return [bracketed(lambda: subprocess.run(
                command, env=_child_env(), check=True,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=120))
            for _ in range(SETUP_REPEATS)]


def parse_importtime(stderr: str) -> Dict[str, float]:
    """Cumulative import seconds per module from ``-X importtime``."""
    cumulative: Dict[str, float] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue                      # the header line
        cumulative[fields[2].strip()] = int(fields[1]) / 1e6
    return cumulative


def import_times() -> Dict[str, float]:
    """``startup.*`` per-layer metrics, in raw seconds."""
    completed = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro"],
        env=_child_env(), check=True, capture_output=True, text=True,
        timeout=120)
    cumulative = parse_importtime(completed.stderr)
    return {
        "startup.import_s": cumulative["repro"],
        "startup.density_evolution_import_s":
            cumulative.get("repro.coding.density_evolution", 0.0),
    }
