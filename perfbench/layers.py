"""The layer boundaries the traced runs wrap, named after ``repro``'s modules.

Each entry names a public function of one layer; the benchmark wraps it
from the outside (see :mod:`perfbench.tracing`) so the program under
test is unchanged.  Importing this module imports ``repro``.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, List, Tuple

import repro.coding.ber as ber
import repro.coding.bp as bp
import repro.coding.window_decoder as window_decoder
import repro.core.engine as engine
import repro.core.store as store
import repro.noc.analytic as analytic
import repro.noc.simulator as simulator
import repro.phy.frontend as frontend
import repro.phy.measured as measured
import repro.phy.trellis as trellis
import repro.scenarios.campaign as campaign
import repro.scenarios.registry as registry
import repro.scenarios.result as result
import repro.scenarios.scenario as scenario
import repro.service.client as client
from perfbench.tracing import Target


def _rows(fn: Callable, args: tuple, kwargs: dict) -> Tuple[Any, int]:
    """Units = rows of the LLR matrix handed to a batch decoder."""
    out = fn(*args, **kwargs)
    llrs = args[1] if len(args) > 1 else kwargs["channel_llrs"]
    return out, int(llrs.shape[0]) if getattr(llrs, "ndim", 1) > 1 else 1


def _one(fn: Callable, args: tuple, kwargs: dict) -> Tuple[Any, int]:
    """Units = 1 per call that returns; a raising call (a store miss
    raises ``KeyError``) counts 0."""
    return fn(*args, **kwargs), 1


def _tally_growth(fn: Callable, args: tuple,
                  kwargs: dict) -> Tuple[Any, int]:
    """Units = codewords a ``simulate_*`` call appended to its tally."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    tally = bound.arguments.get("tally")
    before = tally.n_codewords if tally is not None else 0
    out = fn(*args, **kwargs)
    if isinstance(out, list):                       # simulate_batches
        return out, sum(item.n_codewords for item in out)
    return out, out.n_codewords - before


def in_process_targets() -> List[Target]:
    """Every layer boundary a serial (``n_workers=1``) campaign crosses."""
    targets = [
        Target(analytic.AnalyticNocModel, "__init__", "noc.analytic"),
        Target(analytic.AnalyticNocModel, "evaluate", "noc.analytic"),
        Target(simulator.NocSimulator, "__init__", "noc.simulator"),
        Target(simulator.NocSimulator, "run", "noc.simulator"),
        Target(simulator.NocSimulator, "run_batch", "noc.simulator"),
        Target(bp.BeliefPropagationDecoder, "decode", "coding.bp", _one),
        Target(bp.BeliefPropagationDecoder, "decode_batch", "coding.bp",
               _rows),
        Target(window_decoder.WindowDecoder, "decode",
               "coding.window_decoder"),
        Target(window_decoder.WindowDecoder, "decode_batch",
               "coding.window_decoder"),
        # ``simulate`` delegates to ``simulate_tally``: only the inner
        # call counts codewords.
        Target(ber.BerSimulator, "simulate", "coding.ber"),
        Target(ber.BerSimulator, "simulate_tally", "coding.ber",
               _tally_growth),
        Target(ber.BerSimulator, "simulate_adaptive", "coding.ber",
               _tally_growth),
        Target(ber.BerSimulator, "simulate_batches", "coding.ber",
               _tally_growth),
        Target(frontend.BpskAwgnFrontend, "transmit_llrs", "phy.frontend"),
        Target(frontend.OneBitWaveformFrontend, "transmit_llrs",
               "phy.frontend"),
        Target(measured.MeasuredChannelFrontend, "transmit_llrs",
               "phy.frontend"),
        Target(engine.SweepEngine, "sweep", "core.engine"),
        Target(engine.SweepEngine, "sweep_adaptive", "core.engine"),
        # Campaigns reach the point executor through Campaign.run.
        Target(campaign.Campaign, "run", "core.engine"),
        # ``build_scenario`` is bound by name in both modules.
        Target(registry, "build_scenario", "scenarios.build"),
        Target(campaign, "build_scenario", "scenarios.build"),
        Target(scenario.Scenario, "cache_key", "scenarios.cache_key"),
        Target(result.ScenarioResult, "to_json", "scenarios.to_json"),
        Target(store.DiskStore, "get", "core.store.get", _one),
        Target(store.DiskStore, "put", "core.store.put", _one),
    ]
    targets += [Target(trellis.TrellisKernel, name, "phy.trellis")
                for name in ("log_observations", "viterbi",
                             "symbol_log_posteriors",
                             "symbolwise_log_marginals")]
    return targets


def client_targets() -> List[Target]:
    """Client-side service calls of the served workload."""
    return [Target(client.ServiceClient, "submit", "service.submit"),
            Target(client.ServiceClient, "status", "service.status"),
            Target(client.ServiceClient, "result_bytes", "service.result")]


def in_process_metrics(summary: Dict[str, Dict[str, float]]
                       ) -> Dict[str, float]:
    """Per-layer metric values (raw seconds and counts) of one traced
    repetition, named as in ``BENCHMARK.json``."""
    def row(layer: str) -> Dict[str, float]:
        return summary.get(layer, {"busy_s": 0.0, "self_s": 0.0,
                                   "calls": 0, "units": 0})

    gets = row("core.store.get")
    return {
        "noc.analytic.s": row("noc.analytic")["busy_s"],
        "noc.analytic.calls": row("noc.analytic")["calls"],
        "noc.simulator.s": row("noc.simulator")["busy_s"],
        "noc.simulator.calls": row("noc.simulator")["calls"],
        "coding.bp.s": row("coding.bp")["busy_s"],
        "coding.bp.codewords": row("coding.bp")["units"],
        "coding.window_decoder.self_s":
            row("coding.window_decoder")["self_s"],
        "coding.ber.self_s": row("coding.ber")["self_s"],
        "coding.ber.codewords": row("coding.ber")["units"],
        "phy.frontend.s": row("phy.frontend")["busy_s"],
        "phy.trellis.s": row("phy.trellis")["busy_s"],
        "core.engine.self_s": row("core.engine")["self_s"],
        "scenarios.build_s": row("scenarios.build")["busy_s"],
        "scenarios.cache_key_s": row("scenarios.cache_key")["busy_s"],
        "scenarios.to_json_s": row("scenarios.to_json")["busy_s"],
        "core.store.get_s": gets["busy_s"],
        "core.store.gets": gets["calls"],
        "core.store.put_s": row("core.store.put")["busy_s"],
        "core.store.puts": row("core.store.put")["calls"],
        "core.store.hit_ratio": (gets["units"] / gets["calls"]
                                 if gets["calls"] else 0.0),
    }



def is_time_metric(name: str) -> bool:
    """Per-layer times end in ``.s``/``_s`` and are host-normalized like
    the end-to-end timings; the rest are counts and ratios."""
    return name.endswith((".s", "_s"))
