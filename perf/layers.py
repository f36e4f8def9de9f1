"""Map profiled functions to layers by module path.

Layers are named after the repo's modules.  ``layer_of`` takes the file
name cProfile recorded for a function; ``bucket`` folds a whole profile
into per-layer self time and primitive call counts — the layer budget.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional, Tuple

__all__ = ["LAYER_RULES", "CODE_LAYERS", "PYTHON", "HARNESS", "layer_of", "bucket"]

PYTHON = "python"
HARNESS = "harness"

#: Path under ``src/repro/`` -> layer; the first matching prefix wins, so
#: file rules precede their package.  A path matching no rule is *unmapped*
#: (``layer_of`` returns ``None``) — test_perf_bench.py fails on one, so a
#: new module must be given a layer here rather than vanish into ``python``.
LAYER_RULES: Tuple[Tuple[str, str], ...] = (
    ("sim/engine.py", "sim.engine"),
    ("sim/network.py", "sim.network"),
    ("sim/topology.py", "sim.network"),
    ("sim/latencies.py", "sim.network"),
    ("sim/__init__.py", "sim.engine"),
    ("runtime/", "runtime"),
    ("broadcast/", "broadcast"),
    ("raft/", "raft"),
    ("canopus/", "canopus"),
    ("epaxos/", "epaxos"),
    ("zab/", "zab"),
    ("protocols/", "protocols"),
    ("kvstore/", "kvstore"),
    ("workload/", "workload"),
    ("metrics/", "metrics"),
    ("verify/", "verify"),
    ("obs/", "obs"),
    ("bench/", HARNESS),
    ("shard/", "shard"),
    ("analysis/", "analysis"),
    ("__init__.py", HARNESS),
)

#: The layers whose profile shares are reported (BENCHMARK.json per_layer).
#: ``verify``, ``obs`` and ``harness`` run outside the profiled region and
#: have timed-call metrics of their own; ``shard`` and ``analysis`` are
#: mapped so they stay visible but no workload here runs them.
CODE_LAYERS: Tuple[str, ...] = (
    "sim.engine",
    "sim.network",
    "runtime",
    "broadcast",
    "raft",
    "canopus",
    "epaxos",
    "zab",
    "protocols",
    "kvstore",
    "workload",
    "metrics",
    PYTHON,
)

_REPRO_MARKER = os.sep + os.path.join("src", "repro") + os.sep
_PERF_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def layer_of(filename: str) -> Optional[str]:
    """Layer of the function defined in ``filename``; ``None`` if unmapped.

    Builtins (cProfile's ``~``), the standard library and anything else
    outside the repo are ``python``; the benchmark's own files are
    ``harness``.
    """
    index = filename.rfind(_REPRO_MARKER)
    if index < 0:
        if filename.startswith(_PERF_DIR):
            return HARNESS
        return PYTHON
    relative = filename[index + len(_REPRO_MARKER):].replace(os.sep, "/")
    for prefix, layer in LAYER_RULES:
        if relative.startswith(prefix):
            return layer
    return None


def bucket(stats: Dict[Tuple[str, int, str], Tuple[Any, ...]]) -> Dict[str, Dict[str, float]]:
    """Fold ``pstats.Stats(...).stats`` into ``{layer: {self_s, calls}}``.

    ``calls`` counts primitive (non-recursive) calls, which repeat exactly
    at a fixed seed; ``self_s`` is profiler self time, inflated for small
    functions by the per-call hook cost.
    """
    layers: Dict[str, Dict[str, float]] = {}
    for (filename, _line, _name), (primitive_calls, _calls, self_s, _cum, _callers) in stats.items():
        layer = layer_of(filename)
        if layer is None:
            raise KeyError(f"perf/layers.py maps no layer for {filename}")
        row = layers.setdefault(layer, {"self_s": 0.0, "calls": 0})
        row["self_s"] += self_s
        row["calls"] += primitive_calls
    return layers
