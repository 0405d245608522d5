"""JSON persistence for exploration results and compiled mode tables.

Explorations of the big designs take seconds to minutes; systems built on
the mode tables (runtime controllers, SoC composition, the serve layer)
want to load them without re-running the flow.  Two artifacts live here:

* the full :class:`ExplorationResult` (every knob-grid statistic), and
* the compiled :class:`repro.serve.table.ModeTable` the serving
  subsystem consumes (`repro compile-table` / `repro serve`).

Both JSON documents name their ``kind`` and carry a schema version;
loaders reject another artifact or a mismatched version with a clear
error instead of guessing.
"""

from __future__ import annotations

import json
from typing import Dict, TextIO

from repro.core.config import ExplorationSettings, OperatingPoint
from repro.core.exploration import ExplorationResult

SCHEMA_VERSION = 1

#: The ``kind`` every serialized exploration result carries.
EXPLORATION_KIND = "repro-exploration"


def _point_to_dict(point: OperatingPoint) -> Dict:
    return point.to_dict()


def _point_from_dict(data: Dict) -> OperatingPoint:
    return OperatingPoint.from_dict(data)


def save_exploration(result: ExplorationResult, stream: TextIO) -> None:
    """Serialize an exploration result (mode tables + statistics) as JSON."""
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": EXPLORATION_KIND,
        "design_name": result.design_name,
        "num_domains": result.num_domains,
        "points_evaluated": result.points_evaluated,
        "points_feasible": result.points_feasible,
        "runtime_s": result.runtime_s,
        "settings": {
            "bitwidths": list(result.settings.bitwidths),
            "vdd_values": list(result.settings.vdd_values),
            "activity_cycles": result.settings.activity_cycles,
            "activity_batch": result.settings.activity_batch,
            "seed": result.settings.seed,
        },
        "best_per_bitwidth": {
            str(bits): _point_to_dict(point)
            for bits, point in result.best_per_bitwidth.items()
        },
        "best_per_knob_point": [
            {"bits": bits, "vdd": vdd, "point": _point_to_dict(point)}
            for (bits, vdd), point in result.best_per_knob_point.items()
        ],
        "feasible_counts": [
            {"bits": bits, "vdd": vdd, "count": count}
            for (bits, vdd), count in result.feasible_counts.items()
        ],
    }
    json.dump(payload, stream, indent=2)


def load_exploration(stream: TextIO) -> ExplorationResult:
    """Load an exploration result saved by :func:`save_exploration`.

    Another artifact (a mode table, a workload trace) is rejected by its
    ``kind``; files written before the ``kind`` field existed still load.
    """
    try:
        payload = json.load(stream)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"exploration file is not valid JSON ({exc}); write one with "
            "`repro explore --output FILE`"
        ) from exc
    is_object = isinstance(payload, dict)
    kind = payload.get("kind", EXPLORATION_KIND) if is_object else None
    if kind != EXPLORATION_KIND:
        raise ValueError(
            f"not an exploration result (kind={kind!r}); write one with "
            "`repro explore --output FILE`"
        )
    if payload.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported exploration schema {payload.get('schema')!r} "
            f"(this build reads schema {SCHEMA_VERSION}); re-run the "
            "exploration to regenerate the artifact"
        )
    settings = ExplorationSettings(
        bitwidths=tuple(payload["settings"]["bitwidths"]),
        vdd_values=tuple(payload["settings"]["vdd_values"]),
        activity_cycles=int(payload["settings"]["activity_cycles"]),
        activity_batch=int(payload["settings"]["activity_batch"]),
        seed=int(payload["settings"]["seed"]),
    )
    return ExplorationResult(
        design_name=payload["design_name"],
        settings=settings,
        num_domains=int(payload["num_domains"]),
        best_per_bitwidth={
            int(bits): _point_from_dict(point)
            for bits, point in payload["best_per_bitwidth"].items()
        },
        points_evaluated=int(payload["points_evaluated"]),
        points_feasible=int(payload["points_feasible"]),
        runtime_s=float(payload["runtime_s"]),
        feasible_counts={
            (int(e["bits"]), float(e["vdd"])): int(e["count"])
            for e in payload["feasible_counts"]
        },
        best_per_knob_point={
            (int(e["bits"]), float(e["vdd"])): _point_from_dict(e["point"])
            for e in payload["best_per_knob_point"]
        },
    )


def save_mode_table(table, stream: TextIO) -> None:
    """Serialize a compiled :class:`repro.serve.table.ModeTable` as JSON."""
    json.dump(table.to_dict(), stream, indent=2)


def load_mode_table(stream: TextIO):
    """Load a mode table saved by :func:`save_mode_table`.

    Rejects artifacts with a mismatched schema version (the check lives
    in :meth:`repro.serve.table.ModeTable.from_dict`) and surfaces
    unparseable JSON as the same :class:`~repro.serve.errors.ServeError`
    every other table defect raises.
    """
    from repro.serve.errors import ServeError
    from repro.serve.table import ModeTable

    try:
        payload = json.load(stream)
    except json.JSONDecodeError as exc:
        raise ServeError(
            f"mode-table file is not valid JSON ({exc}); re-run "
            "`repro compile-table` to regenerate the artifact"
        ) from exc
    return ModeTable.from_dict(payload)
