"""The typed portfolio spec: named axes over Scenario fields.

A :class:`Portfolio` describes a *family* of scenarios — the shape every
headline result of the paper is computed over (model zoo x wafer geometry x
scheme ablations). It is the request document of the portfolio sweep engine
(:mod:`repro.server.portfolio`, ``POST /v1/portfolio``, ``repro sweep``):

* a ``base`` :class:`~repro.api.scenario.Scenario` carrying everything the
  sweep does not vary,
* a tuple of :class:`PortfolioAxis` — each axis names a list of values and
  (optionally) the spec field they are applied to (``"workload.model"``,
  ``"hardware.rows"``, or a whole section like ``"solver"``),
* an ``expansion`` mode: ``"cartesian"`` (the product of all axes, first
  axis outermost — the expansion order of the experiment registry's dict
  grids) or ``"zip"`` (axes advance together, for grids that are not a full
  product).

:meth:`Portfolio.expand` materialises the ordered list of
:class:`PortfolioPoint` — one ``(params, scenario)`` pair per point, where
``params`` is the manifest-row identity of the point (recorded axis labels)
and ``scenario`` is strictly re-validated through
:meth:`Scenario.from_dict`. Points may repeat a scenario (zipped grids often
do); the sweep engine de-duplicates evaluation via
:meth:`Scenario.cache_key` while every point keeps its own row.

Like the Scenario tree, the document round-trip is strict and lossless:
``Portfolio.from_dict(p.to_dict()) == p``, unknown keys raise
:class:`PortfolioError` (a :class:`ScenarioError`), and malformed documents
never escape as tracebacks.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.api.scenario import (
    SCHEMA_VERSION,
    HardwareSpec,
    Scenario,
    ScenarioError,
    SolverSpec,
    WorkloadSpec,
)

#: Spec sections an axis ``path`` may target.
_SECTIONS = {
    "workload": WorkloadSpec,
    "hardware": HardwareSpec,
    "solver": SolverSpec,
}


class PortfolioError(ScenarioError):
    """A portfolio document, axis, or expansion is invalid."""


def _json_value(value, what: str):
    """``value`` canonicalised through JSON (tuples become lists).

    Axis values live in documents, so they must be strict JSON; passing
    them through a dumps/loads round-trip at construction time both
    validates that and makes ``from_dict(to_dict()) == self`` hold exactly.
    """
    try:
        return json.loads(json.dumps(value, allow_nan=False))
    except (TypeError, ValueError) as error:
        raise PortfolioError(f"{what} is not strict JSON: {error}") from None


@dataclass(frozen=True)
class PortfolioAxis:
    """One named axis of a portfolio.

    Attributes:
        name: axis name; recorded axes contribute ``params[name]`` to every
            point's manifest-row identity.
        values: the axis values, one per step. When ``path`` is set each
            value is applied to the base scenario document at that path;
            values must be strict JSON.
        path: where the values are applied — ``"section.field"`` (e.g.
            ``"workload.model"``) or a whole ``"section"`` (e.g.
            ``"solver"``, whose values must then be section documents).
            ``None`` makes the axis annotation-only: it labels points
            without touching the scenario (e.g. a config label riding along
            a zipped fixed-spec axis).
        labels: optional per-value display labels recorded in ``params``
            instead of the raw values (e.g. ``"TEMP"`` instead of a whole
            solver document). Must match ``values`` in length.
        record: whether the axis contributes to ``params`` at all; set
            ``False`` for mechanical axes (a zipped ``num_wafers`` that is
            a function of the model axis) that would otherwise duplicate
            row columns.
    """

    name: str
    values: Tuple[object, ...] = ()
    path: Optional[str] = None
    labels: Optional[Tuple[object, ...]] = None
    record: bool = True

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise PortfolioError(
                f"axis name must be a non-empty string, got {self.name!r}")
        values = tuple(_json_value(value, f"axis {self.name!r} value")
                       for value in self.values)
        if not values:
            raise PortfolioError(f"axis {self.name!r} has no values")
        object.__setattr__(self, "values", values)
        if self.labels is not None:
            labels = tuple(_json_value(label, f"axis {self.name!r} label")
                           for label in self.labels)
            if len(labels) != len(values):
                raise PortfolioError(
                    f"axis {self.name!r} has {len(labels)} labels for "
                    f"{len(values)} values")
            object.__setattr__(self, "labels", labels)
        if self.path is None and not self.record:
            raise PortfolioError(
                f"axis {self.name!r} neither applies to the scenario "
                f"(path=None) nor records a parameter (record=False)")
        if self.path is not None:
            if not isinstance(self.path, str):
                raise PortfolioError(
                    f"axis {self.name!r} path must be a string, got "
                    f"{type(self.path).__name__}")
            self._validate_path()

    def _validate_path(self) -> None:
        section, _, field_name = self.path.partition(".")
        section_cls = _SECTIONS.get(section)
        if section_cls is None:
            raise PortfolioError(
                f"axis {self.name!r} path {self.path!r} does not start with "
                f"one of {', '.join(sorted(_SECTIONS))}")
        if not field_name:
            for value in self.values:
                if not isinstance(value, Mapping):
                    raise PortfolioError(
                        f"axis {self.name!r} targets the whole {section!r} "
                        f"section, so every value must be an object; got "
                        f"{type(value).__name__}")
            return
        known = {spec_field.name
                 for spec_field in dataclasses.fields(section_cls)}
        if field_name not in known:
            raise PortfolioError(
                f"axis {self.name!r} path {self.path!r} names no "
                f"{section} field; valid: {', '.join(sorted(known))}")

    def label_for(self, step: int) -> object:
        """The recorded ``params`` value of one step of this axis."""
        if self.labels is not None:
            return self.labels[step]
        return self.values[step]

    def apply(self, document: Dict[str, object], step: int) -> None:
        """Apply step ``step`` of this axis to a scenario document."""
        if self.path is None:
            return
        section, _, field_name = self.path.partition(".")
        value = self.values[step]
        if not field_name:
            document[section] = value
            return
        target = document.setdefault(section, {})
        if not isinstance(target, dict):
            raise PortfolioError(
                f"axis {self.name!r} cannot set {self.path!r}: section "
                f"{section!r} of the base document is not an object")
        target[field_name] = value

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON document; inverse of :meth:`from_dict`."""
        document: Dict[str, object] = {
            "name": self.name,
            "values": list(self.values),
        }
        if self.path is not None:
            document["path"] = self.path
        if self.labels is not None:
            document["labels"] = list(self.labels)
        if not self.record:
            document["record"] = False
        return document

    @classmethod
    def from_dict(cls, data: object) -> "PortfolioAxis":
        """Strictly parse one axis document."""
        if not isinstance(data, Mapping):
            raise PortfolioError(
                f"portfolio axis must be an object, got "
                f"{type(data).__name__}")
        remaining = dict(data)
        kwargs: Dict[str, object] = {}
        for key in ("name", "values", "path", "labels", "record"):
            if key in remaining:
                kwargs[key] = remaining.pop(key)
        if remaining:
            raise PortfolioError(
                f"unknown portfolio axis keys: "
                f"{', '.join(sorted(remaining))}; valid: name, values, "
                f"path, labels, record")
        if "values" in kwargs and not isinstance(kwargs["values"],
                                                 (list, tuple)):
            raise PortfolioError(
                f"axis values must be an array, got "
                f"{type(kwargs['values']).__name__}")
        if "labels" in kwargs:
            if not isinstance(kwargs["labels"], (list, tuple)):
                raise PortfolioError(
                    f"axis labels must be an array, got "
                    f"{type(kwargs['labels']).__name__}")
            kwargs["labels"] = tuple(kwargs["labels"])
        if "values" in kwargs:
            kwargs["values"] = tuple(kwargs["values"])
        try:
            return cls(**kwargs)
        except PortfolioError:
            raise
        except (TypeError, ValueError) as error:
            raise PortfolioError(f"invalid portfolio axis: {error}") from None


@dataclass(frozen=True)
class PortfolioPoint:
    """One expanded point: its row identity, its scenario, and ``key``,
    the scenario's stable content hash (the dedup identity), hashed once
    here so the sweep, its job and the scheduler all read it."""

    index: int
    params: Dict[str, object]
    scenario: Scenario
    key: str = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", self.scenario.cache_key())


#: Valid expansion modes.
EXPANSIONS = ("cartesian", "zip")


@dataclass(frozen=True)
class Portfolio:
    """A named family of scenarios: base + axes + expansion mode."""

    name: str
    axes: Tuple[PortfolioAxis, ...] = ()
    base: Scenario = field(default_factory=Scenario)
    expansion: str = "cartesian"
    description: str = ""
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise PortfolioError(
                f"portfolio name must be a non-empty string, got "
                f"{self.name!r}")
        if self.schema_version != SCHEMA_VERSION:
            raise PortfolioError(
                f"portfolio schema_version {self.schema_version!r} is not "
                f"supported; this build speaks version {SCHEMA_VERSION}")
        axes = tuple(self.axes)
        if not axes:
            raise PortfolioError(f"portfolio {self.name!r} has no axes")
        object.__setattr__(self, "axes", axes)
        names = [axis.name for axis in axes]
        duplicates = sorted({name for name in names if names.count(name) > 1})
        if duplicates:
            raise PortfolioError(
                f"duplicate axis names: {', '.join(duplicates)}")
        if self.expansion not in EXPANSIONS:
            raise PortfolioError(
                f"expansion must be one of {', '.join(EXPANSIONS)}, got "
                f"{self.expansion!r}")
        if self.expansion == "zip":
            lengths = {len(axis.values) for axis in axes}
            if len(lengths) > 1:
                detail = ", ".join(f"{axis.name}({len(axis.values)})"
                                   for axis in axes)
                raise PortfolioError(
                    f"zipped axes must have equal lengths, got {detail}")

    # Expansion -------------------------------------------------------------------

    def num_points(self) -> int:
        """Number of points the expansion produces (cheap, no expansion)."""
        if self.expansion == "zip":
            return len(self.axes[0].values)
        points = 1
        for axis in self.axes:
            points *= len(axis.values)
        return points

    def expand(self, max_points: Optional[int] = None) -> List[PortfolioPoint]:
        """Materialise the ordered point list.

        Args:
            max_points: optional cap; exceeding it raises
                :class:`PortfolioError` *before* any scenario is built (the
                server's guard against runaway cartesian products).

        Raises:
            PortfolioError: on a cap violation or any point whose patched
                document fails :meth:`Scenario.from_dict` validation (the
                message names the offending point).
        """
        total = self.num_points()
        if max_points is not None and total > max_points:
            raise PortfolioError(
                f"portfolio {self.name!r} expands to {total} points, over "
                f"the cap of {max_points}")
        base_document = self.base.to_dict()
        points: List[PortfolioPoint] = []
        for index, steps in enumerate(self._step_tuples()):
            document = json.loads(json.dumps(base_document))
            params: Dict[str, object] = {}
            for axis, step in zip(self.axes, steps):
                axis.apply(document, step)
                if axis.record:
                    params[axis.name] = axis.label_for(step)
            try:
                scenario = Scenario.from_dict(document)
            except ScenarioError as error:
                raise PortfolioError(
                    f"point {index} of portfolio {self.name!r} "
                    f"({params}) is invalid: {error}") from None
            points.append(PortfolioPoint(index=index, params=params,
                                         scenario=scenario))
        return points

    def _step_tuples(self):
        """Per-point tuples of step indices, one per axis, in point order."""
        if self.expansion == "zip":
            steps = range(len(self.axes[0].values))
            return ((step,) * len(self.axes) for step in steps)
        ranges = [range(len(axis.values)) for axis in self.axes]
        return itertools.product(*ranges)

    # Serialization ---------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON document; inverse of :meth:`from_dict`."""
        document: Dict[str, object] = {
            "schema_version": self.schema_version,
            "name": self.name,
            "axes": [axis.to_dict() for axis in self.axes],
            "base": self.base.to_dict(),
            "expansion": self.expansion,
        }
        if self.description:
            document["description"] = self.description
        return document

    @classmethod
    def from_dict(cls, data: object) -> "Portfolio":
        """Strictly parse a portfolio document.

        Raises:
            PortfolioError: on a non-mapping document, a missing or
                unsupported ``schema_version``, unknown keys, or any
                invalid axis / base section.
        """
        if not isinstance(data, Mapping):
            raise PortfolioError(
                f"portfolio document must be a JSON object, got "
                f"{type(data).__name__}")
        remaining = dict(data)
        if "schema_version" not in remaining:
            raise PortfolioError(
                "portfolio document is missing 'schema_version'")
        version = remaining.pop("schema_version")
        if version != SCHEMA_VERSION:
            raise PortfolioError(
                f"portfolio schema_version {version!r} is not supported; "
                f"this build speaks version {SCHEMA_VERSION}")
        kwargs: Dict[str, object] = {"schema_version": version}
        if "name" in remaining:
            kwargs["name"] = remaining.pop("name")
        raw_axes = remaining.pop("axes", None)
        if raw_axes is not None:
            if not isinstance(raw_axes, (list, tuple)):
                raise PortfolioError(
                    f"portfolio axes must be an array, got "
                    f"{type(raw_axes).__name__}")
            kwargs["axes"] = tuple(PortfolioAxis.from_dict(axis)
                                   for axis in raw_axes)
        raw_base = remaining.pop("base", None)
        if raw_base is not None:
            try:
                kwargs["base"] = Scenario.from_dict(raw_base)
            except PortfolioError:
                raise
            except ScenarioError as error:
                # Re-home the error: callers of the portfolio parser catch
                # PortfolioError, and a bad base is a portfolio-document
                # problem, not a crash.
                raise PortfolioError(
                    f"invalid portfolio base: {error}") from None
        for key in ("expansion", "description"):
            if key in remaining:
                kwargs[key] = remaining.pop(key)
        if remaining:
            raise PortfolioError(
                f"unknown portfolio keys: {', '.join(sorted(remaining))}; "
                f"expected schema_version, name, axes, base, expansion, "
                f"description")
        try:
            return cls(**kwargs)
        except PortfolioError:
            raise
        except (TypeError, ValueError) as error:
            raise PortfolioError(f"invalid portfolio: {error}") from None

    def to_json(self, indent: Optional[int] = None) -> str:
        """The document as a JSON string (sorted keys, strict floats)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True,
                          allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "Portfolio":
        """Parse a JSON string through :meth:`from_dict`."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise PortfolioError(
                f"invalid portfolio JSON: {error}") from None
        return cls.from_dict(data)

    def describe(self) -> str:
        """Compact one-line summary for logs and CLI output."""
        axes = " x ".join(f"{axis.name}({len(axis.values)})"
                          for axis in self.axes)
        return (f"{self.name}: {self.num_points()} points "
                f"({self.expansion} over {axes})")


def _section_axes(documents: Sequence[Mapping[str, object]]
                  ) -> Tuple[PortfolioAxis, ...]:
    """Unrecorded zipped axes swapping each point's whole sections.

    One axis per spec section (``workload``, ``hardware``, ``solver``),
    whose values are the sections of ``documents`` in point order, so
    point ``i`` of a zipped portfolio evaluates exactly ``documents[i]``.
    """
    return tuple(
        PortfolioAxis(name=section, record=False, path=section,
                      values=tuple(document[section]
                                   for document in documents))
        for section in _SECTIONS)


def portfolio_from_scenarios(
        name: str, scenarios: Sequence[object],
        description: str = "") -> Portfolio:
    """A zipped portfolio enumerating an explicit scenario list.

    Every scenario (a :class:`Scenario` or its document) becomes one point,
    identified by its position (``params == {"scenario": index}``). This is
    the escape hatch for sweeps that are not grids — and the bridge that
    lets any batch request ride the portfolio engine.
    """
    documents = [item.to_dict() if isinstance(item, Scenario)
                 else Scenario.from_dict(item).to_dict()
                 for item in scenarios]
    if not documents:
        raise PortfolioError(f"portfolio {name!r} has no scenarios")
    return Portfolio(
        name=name,
        description=description,
        expansion="zip",
        axes=(PortfolioAxis(name="scenario",
                            values=tuple(range(len(documents)))),
              *_section_axes(documents)),
    )
