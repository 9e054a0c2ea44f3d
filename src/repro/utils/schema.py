"""One declarative validator for the project's JSON documents.

A document shape is declared as data, a tree of specs built by the
constructors below, and :func:`validate` walks it beside the document::

    JOB = obj({"k": integer(1), "steps": integer(1)}, defaults={"steps": 1})
    validate(JOB, {"k": 4})       # -> {"k": 4, "steps": 1}

The walk returns a normalised copy (objects rebuilt with defaults
filled in, numbers as floats) or raises :class:`SchemaError` naming the
JSON path of the first violation (``$.source.refine``, ``$.labels[3]``).
An array whose elements are all of types its element spec passes
unchanged is accepted by one C-level type scan and returned as it is.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Mapping
from typing import NamedTuple, Optional, Tuple, Union

Walk = Callable[[Any, str], Any]
Check = Callable[[Dict[str, Any], str], None]

_SCALARS = (str, int, float, bool, type(None))


class SchemaError(ValueError):
    """A JSON document violates its declared shape; ``path`` locates
    the offending element, e.g. ``$.source.refine``."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        super().__init__(f"{path}: {message}")


class Spec(NamedTuple):
    """A declared JSON value: ``walk(value, path)`` returns the value's
    normalised copy or raises :class:`SchemaError` at ``path``;
    ``exact`` holds the types whose every value it passes unchanged."""

    walk: Walk
    exact: FrozenSet[type] = frozenset()


def validate(spec: Spec, document: object) -> Any:
    """The normalised copy of ``document``, checked against ``spec``."""
    return spec.walk(document, "$")


def integer(minimum: Optional[int] = None) -> Spec:
    """An integer (``bool`` is not one), at least ``minimum``."""

    def walk(value: Any, path: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(path, "must be an integer")
        if minimum is not None and value < minimum:
            raise SchemaError(path, f"must be >= {minimum}")
        return value

    return Spec(walk, frozenset({int}) if minimum is None else frozenset())


def number(minimum: Optional[float] = None, exclusive: bool = False) -> Spec:
    """A number, at least (``exclusive``: above) ``minimum``."""

    def walk(value: Any, path: str) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(path, "must be a number")
        if minimum is not None:
            if exclusive and value <= minimum:
                raise SchemaError(path, f"must be > {minimum:g}")
            if not exclusive and value < minimum:
                raise SchemaError(path, f"must be >= {minimum:g}")
        try:
            return float(value)
        except OverflowError:  # an integer literal past 1.8e308
            raise SchemaError(path, "must be within float range") from None

    return Spec(walk)


def string() -> Spec:
    """A non-empty string."""

    def walk(value: Any, path: str) -> str:
        if not isinstance(value, str) or not value:
            raise SchemaError(path, "must be a non-empty string")
        return value

    return Spec(walk)


def boolean() -> Spec:
    """``true`` or ``false``."""

    def walk(value: Any, path: str) -> bool:
        if not isinstance(value, bool):
            raise SchemaError(path, "must be a boolean")
        return value

    return Spec(walk, frozenset({bool}))


def scalar() -> Spec:
    """A string, number, boolean or null."""

    def walk(value: Any, path: str) -> Any:
        if not isinstance(value, _SCALARS):
            raise SchemaError(path, "must be a scalar (str/number/bool/null)")
        return value

    return Spec(walk, frozenset(_SCALARS))


def choice(*options: Any) -> Spec:
    """One of ``options``."""

    def walk(value: Any, path: str) -> Any:
        if value not in options:
            raise SchemaError(
                path, f"must be one of {list(options)}, got {value!r}"
            )
        return value

    return Spec(walk)


def const(expected: Any) -> Spec:
    """Exactly ``expected`` (a schema tag)."""

    def walk(value: Any, path: str) -> Any:
        if value != expected:
            raise SchemaError(path, f"expected {expected!r}, got {value!r}")
        return value

    return Spec(walk)


def nullable(spec: Spec) -> Spec:
    """``null`` or a value matching ``spec``."""
    inner = spec.walk

    def walk(value: Any, path: str) -> Any:
        return None if value is None else inner(value, path)

    return Spec(walk, spec.exact | {type(None)})


def array(items: Union[Spec, Tuple[Spec, ...]]) -> Spec:
    """An array whose elements all match ``items``, or, given a tuple
    of specs, one element per spec."""
    if not isinstance(items, Spec):
        specs = items

        def walk_row(value: Any, path: str) -> List[Any]:
            if not isinstance(value, list) or len(value) != len(specs):
                raise SchemaError(path, f"must be an array of {len(specs)}")
            return [
                spec.walk(item, f"{path}[{i}]")
                for i, (spec, item) in enumerate(zip(specs, value))
            ]

        return Spec(walk_row)
    each, exact = items.walk, items.exact

    def walk(value: Any, path: str) -> List[Any]:
        if not isinstance(value, list):
            raise SchemaError(path, "must be an array")
        # one C-level type scan; only an array that fails it pays for a
        # call per element, which names the first offender
        if exact and set(map(type, value)) <= exact:
            return value
        return [each(item, f"{path}[{i}]") for i, item in enumerate(value)]

    return Spec(walk)


def mapping(values: Spec) -> Spec:
    """An object with any non-empty keys, each value matching ``values``."""
    each = values.walk

    def walk(value: Any, path: str) -> Dict[str, Any]:
        if not isinstance(value, dict):
            raise SchemaError(path, "must be a JSON object")
        out: Dict[str, Any] = {}
        for key, item in value.items():
            if not isinstance(key, str) or not key:
                raise SchemaError(path, "keys must be non-empty strings")
            out[key] = each(item, f"{path}[{key!r}]")
        return out

    return Spec(walk)


def obj(
    fields: Mapping[str, Spec],
    defaults: Optional[Mapping[str, Any]] = None,
    optional: Iterable[str] = (),
    check: Optional[Check] = None,
) -> Spec:
    """An object with exactly the keys of ``fields``, checked in their
    order. An absent key takes its ``defaults`` value (checked as if
    given), stays absent if ``optional`` and is an error otherwise.
    ``check(copy, path)`` then applies the rules that span fields."""
    known = frozenset(fields)
    members = tuple((key, spec.walk) for key, spec in fields.items())
    fill, may_skip = dict(defaults or {}), frozenset(optional)

    def walk(value: Any, path: str) -> Dict[str, Any]:
        if not isinstance(value, dict):
            raise SchemaError(path, "must be a JSON object")
        if not value.keys() <= known:
            extra = sorted(value.keys() - known, key=str)
            raise SchemaError(path, f"unknown keys {extra}")
        out: Dict[str, Any] = {}
        for key, walk_member in members:
            if key in value:
                out[key] = walk_member(value[key], f"{path}.{key}")
            elif key in fill:
                out[key] = walk_member(fill[key], f"{path}.{key}")
            elif key not in may_skip:
                raise SchemaError(f"{path}.{key}", "missing")
        if check is not None:
            check(out, path)
        return out

    return Spec(walk)


def tagged(variants: Mapping[str, Spec]) -> Spec:
    """An object whose ``kind`` member names the variant it matches."""
    names = list(variants)

    def walk(value: Any, path: str) -> Dict[str, Any]:
        if not isinstance(value, dict):
            raise SchemaError(path, "must be a JSON object")
        kind = value.get("kind")
        spec = variants.get(kind) if isinstance(kind, str) else None
        if spec is None:
            raise SchemaError(
                f"{path}.kind", f"must be one of {names}, got {kind!r}"
            )
        out: Dict[str, Any] = spec.walk(value, path)
        return out

    return Spec(walk)
