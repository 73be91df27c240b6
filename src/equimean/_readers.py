"""Config readers. A reader takes a value parsed from JSON and returns it,
or raises TypeError or ValueError; ``_read_fields`` reads a config object,
the config itself or one that it holds, over a table of its keys. The
CLI's runners share the helpers at the end, which read a run's config
fields and build its space, mean and action.
"""

import math

from .errors import ConfigError


def _within(read, test):
    """A reader of the values that ``read`` reads and ``test`` holds true of."""
    def read_within(value):
        value = read(value)
        if test(value):
            return value
        raise ValueError(f"{value!r} is out of range")

    return read_within


def _number(value):
    """``value`` if the config schema's ``number`` reads it: an int or a
    float; a bool is none."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    raise TypeError(f"{value!r} is not a number")


def _integer(value) -> int:
    """``value`` as the config schema's ``integer`` reads it: an int, or an
    integral float such as 1.0; a bool is none."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise TypeError(f"{value!r} is not an integer")


_fraction = _within(_number, lambda v: 0 < v < 1)
_positive = _within(_number, lambda v: v > 0)
_non_negative = _within(_number, lambda v: v >= 0)
_string = _within(lambda v: v, lambda v: isinstance(v, str))
_object = _within(lambda v: v, lambda v: isinstance(v, dict))


def _integer_in(low: int, high=math.inf):
    """A reader of an integer in low..high."""
    return _within(_integer, lambda v: low <= v <= high)


def _one_of(names):
    """A reader of a string among ``names``."""
    return _within(_string, lambda v: v in names)


def _list_of(read, low: int = 0, high=math.inf):
    """A reader of a list of low..high items, each of which ``read`` reads."""
    def read_list(value) -> list:
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"{value!r} is not a list")
        if not low <= len(value) <= high:
            raise ValueError(f"{value!r} does not hold {low}..{high} items")
        return [read(v) for v in value]

    return read_list


_numbers = _list_of(_number)


def _coordinates(value):
    """A number or a list of numbers, the coordinates of a point."""
    return _numbers(value) if isinstance(value, (list, tuple)) else _number(value)


def _read_fields(obj: dict, fields: dict, label: str, path: str) -> dict:
    """The keys that ``obj``, the config object at ``path`` ("" for the
    config itself), sets, each read by its entry of ``fields``, a table key
    -> (reader, what it reads, required). An unknown key, a missing required
    key and a value that its reader refuses (TypeError or ValueError) raise
    ValueError naming ``label`` and the key's path; the keys of a space's
    ``params`` are its parameters, and other keys are fields."""
    noun = "parameter" if path.endswith("params") else "field"
    where = f"{path}." if path else ""
    for key in obj:
        if key not in fields:
            raise ValueError(f"{label} has no {noun} {where}{key}")
    args = {}
    for key, (read, what, required) in fields.items():
        if key not in obj:
            if required:
                raise ValueError(f"{label} requires the {noun} {where}{key}")
            continue
        try:
            args[key] = read(obj[key])
        except (TypeError, ValueError):
            raise ValueError(f"{label} {noun} {where}{key} must be {what}, "
                             f"got {obj[key]!r}") from None
    return args


def _read_kinded(obj: dict, key: str, kinds: dict, what: str, path: str, default=None):
    """(builder, arguments) of the config object ``obj`` at ``path``, whose
    ``key`` names its kind (``default`` where absent) in ``kinds``, a table
    kind -> (fields, builder); ``_read_fields`` reads the other keys."""
    if not isinstance(obj, dict):
        raise ValueError(f"{path} must be an object, got {obj!r}")
    kind = obj.get(key, default)
    if kind is None:
        raise ValueError(f"{what} requires the field {path}.{key}")
    if not (isinstance(kind, str) and kind in kinds):
        raise ValueError(f"unknown {what} {key} {kind!r} at {path}.{key}; "
                         f"the {key}s are {', '.join(kinds)}")
    fields, build = kinds[kind]
    rest = {k: v for k, v in obj.items() if k != key}
    return build, _read_fields(rest, fields, f"{kind} {what}", path)


def _need(cfg: dict, key: str, experiment: str):
    if key not in cfg:
        raise ConfigError(f"{experiment} requires the config field {key!r}")
    return cfg[key]


def _space(cfg: dict, experiment: str):
    from .spaces import space_from_json

    return space_from_json(_need(cfg, "space", experiment))


def _mean(cfg: dict, space, experiment: str):
    from .means import mean_from_name

    return mean_from_name(_need(cfg, "mean", experiment), space)


def _action(cfg: dict, space, experiment: str):
    from .groups import action_from_json

    return action_from_json(_need(cfg, "action", experiment), space)


def _given(cfg: dict, *keys) -> dict:
    """The config's values for those of ``keys`` it sets; the library's
    defaults fill in the rest."""
    return {k: cfg[k] for k in keys if k in cfg}


def _point_of(space, required: bool = False) -> tuple:
    """The field of a point of ``space``: (reader, what it reads, required)."""
    from .spaces import _point

    return _within(_point, space.contains), f"a point of {space!r}", required
