"""Topology zoo: registered, pluggable interconnect fabric families.

This package follows the registered-engine pattern of
:mod:`repro.mapping.engines`: each fabric family is a
:class:`~repro.hardware.topologies.base.Topology` subclass registered
under a short name, and everything downstream — routing, collective
expansion, the analytical cost tables, ``HardwareSpec`` serde, portfolio
sweeps — speaks the base protocol only.

A fabric is selected by a plain-JSON *topology spec*::

    {"name": "torus"}
    {"name": "mesh3d", "layers": 2, "vertical_latency_factor": 2.0}
    {"name": "chiplet", "chiplet_rows": 2, "chiplet_cols": 2, "gateways": 2}
    {"name": "express", "stride": 2}

Every key other than ``name`` is passed to the family constructor as a
keyword parameter; :func:`validate_topology_spec` rejects unknown names,
unknown parameters, and geometry-incompatible parameters up front (so
`Scenario` validation fails loudly instead of at solve time).

Registered families:

* ``mesh`` — the paper's 2D nearest-neighbour mesh (the default).
* ``torus`` — wraparound torus; rows/columns close into rings.
* ``mesh3d`` — stacked mesh decks with weighted vertical TSV links.
* ``chiplet`` — hierarchical chiplet tiles bridged by gateway routers
  over a weighted backbone.
* ``express`` — mesh plus express skip links every ``stride`` dies.

All families share the flat row-major die-id space of the ``rows x
cols`` grid, so die counts, coordinates, and partitioning are
fabric-independent; families differ only in which links exist and what
each link costs.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Type

from repro.hardware.topologies.base import (
    Coord,
    Link,
    Topology,
    die_coord,
    die_id,
)
from repro.hardware.topologies.chiplet import ChipletTopology
from repro.hardware.topologies.express import ExpressMeshTopology
from repro.hardware.topologies.mesh import MeshTopology
from repro.hardware.topologies.mesh3d import StackedMeshTopology
from repro.hardware.topologies.torus import TorusTopology

DEFAULT_TOPOLOGY = "mesh"

_FAMILIES: Dict[str, Type[Topology]] = {
    MeshTopology.family: MeshTopology,
    TorusTopology.family: TorusTopology,
    StackedMeshTopology.family: StackedMeshTopology,
    ChipletTopology.family: ChipletTopology,
    ExpressMeshTopology.family: ExpressMeshTopology,
}


def topology_names() -> List[str]:
    """Names of all registered fabric families (default first)."""
    names = sorted(_FAMILIES)
    names.remove(DEFAULT_TOPOLOGY)
    return [DEFAULT_TOPOLOGY] + names


def get_topology_class(name: str) -> Type[Topology]:
    """Resolve a registered family name to its class.

    Raises:
        ValueError: for unregistered names.
    """
    try:
        return _FAMILIES[name]
    except KeyError:
        known = ", ".join(sorted(_FAMILIES))
        raise ValueError(
            f"unknown topology {name!r}; registered families: {known}"
        ) from None


def validate_topology_spec(
    spec: Mapping[str, object],
    rows: Optional[int] = None,
    cols: Optional[int] = None,
) -> None:
    """Validate a topology spec dict without building the fabric.

    Checks the family name, rejects unknown parameter keys, type-checks
    parameter values against the family's declared defaults, and — when
    ``rows``/``cols`` are given — runs the family's geometry check.

    Raises:
        ValueError: on any invalid name, parameter, or geometry.
    """
    if not isinstance(spec, Mapping):
        raise ValueError(f"topology spec must be a mapping, got {type(spec).__name__}")
    name = spec.get("name")
    if not isinstance(name, str):
        raise ValueError("topology spec needs a string 'name' field")
    cls = get_topology_class(name)
    params = {key: value for key, value in spec.items() if key != "name"}
    unknown = set(params) - set(cls.params)
    if unknown:
        allowed = ", ".join(sorted(cls.params)) or "(none)"
        raise ValueError(
            f"unknown {name} topology parameter(s) {sorted(unknown)}; "
            f"allowed: {allowed}")
    for key, value in params.items():
        default = cls.params[key]
        if isinstance(default, bool) or isinstance(value, bool):
            ok = isinstance(value, bool) and isinstance(default, bool)
        elif isinstance(default, int):
            ok = isinstance(value, int)
        elif isinstance(default, float):
            ok = isinstance(value, (int, float))
        else:
            ok = isinstance(value, type(default))
        if not ok:
            raise ValueError(
                f"{name} topology parameter {key!r} expects "
                f"{type(default).__name__}, got {value!r}")
    if rows is not None and cols is not None:
        cls.check_geometry(rows, cols, params)


def build_topology(
    spec: Optional[Mapping[str, object]],
    rows: int,
    cols: int,
    failed_links=None,
    failed_dies=None,
) -> Topology:
    """Build the fabric described by ``spec`` over a ``rows x cols`` grid.

    ``spec`` may be ``None`` (the default mesh) or a validated topology
    spec dict. Fault sets pass straight through to the family constructor.
    """
    if spec is None:
        return MeshTopology(rows, cols, failed_links, failed_dies)
    validate_topology_spec(spec, rows, cols)
    cls = get_topology_class(str(spec["name"]))
    params = {key: value for key, value in spec.items() if key != "name"}
    return cls(rows, cols, failed_links, failed_dies, **params)


def topology_table() -> List[Dict[str, str]]:
    """Docs metadata: one row per registered family (name, params, link model).

    Consumed by ``repro list --topologies`` and the generated
    EXPERIMENTS.md fabric table.
    """
    rows = []
    for name in topology_names():
        cls = _FAMILIES[name]
        params = ", ".join(
            f"{key}={value}" for key, value in cls.params.items()) or "—"
        rows.append({
            "name": name,
            "params": params,
            "link_model": cls.link_model,
            "default": "yes" if name == DEFAULT_TOPOLOGY else "",
        })
    return rows


__all__ = [
    "Coord",
    "Link",
    "Topology",
    "MeshTopology",
    "TorusTopology",
    "StackedMeshTopology",
    "ChipletTopology",
    "ExpressMeshTopology",
    "DEFAULT_TOPOLOGY",
    "die_id",
    "die_coord",
    "topology_names",
    "get_topology_class",
    "validate_topology_spec",
    "build_topology",
    "topology_table",
]
