"""Content addressing for cached exploration shards.

A shard result is valid only for the exact inputs that produced it, so its
cache key is a SHA-256 digest over everything those numbers depend on:

* the design -- netlist structure, drive strengths, domain map, wire
  parasitics, clock constraint and library/process parameters;
* the stimulus settings (activity cycles/batch/seed);
* the explored BB configuration matrix;
* the shard's own (bitwidths, VDDs) slice of the knob grid.

Names (netlist, cell, net) are deliberately *excluded*: the engines are
purely index-based, so two structurally identical designs built by
different factory invocations produce the same numbers and may share
cache entries.  Execution knobs (worker count, cache location) are
excluded too -- they can never change results.

All dict-shaped inputs are serialized with :func:`canonical_json`
(sorted keys, fixed separators), so key stability never depends on dict
insertion order or ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import TYPE_CHECKING, Dict

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.config import ExplorationSettings
    from repro.core.flow import ImplementedDesign
    from repro.parallel.shards import Shard

#: Bump when the fingerprint recipe or shard payload schema changes;
#: old entries then miss instead of being misinterpreted.  Schema 3
#: added the lattice kernel schema and the shard's BB-combination span
#: (combo-tensor shards); schema 4 dropped the engine choices, since
#: each layer now runs one engine; schema 5 dropped the combination span
#: from keys and cells, since shards no longer split the lattice.
FINGERPRINT_SCHEMA = 5


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace, plain floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _update_array(digest, array: np.ndarray) -> None:
    digest.update(str(array.dtype).encode())
    digest.update(str(array.shape).encode())
    digest.update(np.ascontiguousarray(array).tobytes())


def design_fingerprint(design: "ImplementedDesign") -> str:
    """SHA-256 over the analysis-relevant content of an implemented design."""
    digest = hashlib.sha256()
    digest.update(f"schema:{FINGERPRINT_SCHEMA};".encode())

    netlist = design.netlist
    for cell in netlist.cells:
        digest.update(
            (
                f"{cell.template.name}/{cell.drive_name}"
                f"|{','.join(str(n.index) for n in cell.input_nets)}"
                f"|{','.join(str(n.index) for n in cell.output_nets)};"
            ).encode()
        )
    for net in netlist.nets:
        driver = net.driver
        digest.update(
            (
                f"{int(net.is_primary_input)}{int(net.is_primary_output)}"
                f"{int(net.is_clock)}"
                f"|{driver.cell.index if driver else -1}"
                f",{driver.position if driver else -1};"
            ).encode()
        )
    for kind, buses in (("i", netlist.input_buses), ("o", netlist.output_buses)):
        for name in buses:
            bus = buses[name]
            digest.update(
                (
                    f"{kind}|{name}|{int(bus.signed)}"
                    f"|{','.join(str(n.index) for n in bus.nets)};"
                ).encode()
            )
    clock = netlist.clock_net.index if netlist.clock_net else -1
    digest.update(f"clk:{clock};".encode())

    # Electrical data of every distinct template actually instantiated.
    templates = {}
    for cell in netlist.cells:
        templates[cell.template.name] = cell.template
    for name in sorted(templates):
        template = templates[name]
        digest.update(
            canonical_json(
                {
                    "name": template.name,
                    "inputs": list(template.inputs),
                    "outputs": list(template.outputs),
                    "sequential": template.is_sequential,
                    "clk_to_q_ps": template.clk_to_q_ps,
                    "setup_ps": template.setup_ps,
                    "hold_ps": template.hold_ps,
                    "drives": {
                        drive: asdict(template.drives[drive])
                        for drive in sorted(template.drives)
                    },
                }
            ).encode()
        )

    _update_array(digest, design.parasitics.wire_cap_ff)
    _update_array(digest, design.parasitics.wire_res_ohm)
    _update_array(digest, np.asarray(design.domains, dtype=np.int64))
    digest.update(f"domains:{design.num_domains};".encode())

    library = netlist.library
    digest.update(
        canonical_json(
            {
                "process": asdict(library.process),
                "temperature_c": library.temperature_c,
                "constraint": {
                    "period_ps": design.constraint.period_ps,
                    "uncertainty_ps": design.constraint.uncertainty_ps,
                },
                "fclk_ghz": design.fclk_ghz,
            }
        ).encode()
    )
    return digest.hexdigest()


def configs_fingerprint(configs: np.ndarray) -> str:
    """SHA-256 over the explored BB configuration matrix."""
    digest = hashlib.sha256()
    _update_array(digest, np.asarray(configs, dtype=bool))
    return digest.hexdigest()


def shard_key(
    design_digest: str,
    settings: "ExplorationSettings",
    configs_digest: str,
    shard: "Shard",
) -> str:
    """Cache key of one shard of one sweep.

    Independent of shard *index* and worker count, so a re-plan of the
    same knob grid (e.g. a resume with a different shard size that happens
    to produce an identical slice) still hits.

    The key embeds the lattice kernel's schema version, so entries
    written by a kernel with different numerics miss.
    """
    from repro.sta.lattice import LATTICE_SCHEMA

    payload: Dict[str, object] = {
        "schema": FINGERPRINT_SCHEMA,
        "design": design_digest,
        "settings": settings.semantic_fields(),
        "sta": {"lattice_schema": LATTICE_SCHEMA},
        "configs": configs_digest,
        "shard": {
            "bitwidths": list(shard.bitwidths),
            "vdd_values": list(shard.vdd_values),
        },
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()
