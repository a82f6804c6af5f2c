"""Field checks for the JSON file formats: every ``from_json`` in the
package reads its fields through them.  Each returns its value or raises
ValueError naming the field; none coerces (``true`` is not an integer,
``2.0`` is not ``2``)."""

import re

_PLURAL = {int: "integers", str: "strings", list: "lists", dict: "objects"}


def obj(data, what: str) -> dict:
    """``data`` as a JSON object."""
    if type(data) is not dict:
        raise ValueError(f"{what} must be a JSON object")
    return data


def integer(data: dict, key: str, default=None) -> int:
    """``data[key]`` (``default`` when absent) as a JSON integer."""
    value = data.get(key, default)
    if type(value) is not int:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def items(value, kind: type, what: str) -> list:
    """``value`` as a JSON array whose entries have JSON type ``kind``."""
    if type(value) is not list or any(type(v) is not kind for v in value):
        raise ValueError(f"{what} must be a list of {_PLURAL[kind]}")
    return value


def rows_of(value, kind: type, what: str) -> list:
    """``value`` as a JSON array of arrays of JSON type ``kind`` entries."""
    for row in items(value, list, what):
        items(row, kind, f"each row of {what}")
    return value


def name(value, known, what: str) -> str:
    """``value`` as a string from ``known``."""
    if type(value) is not str or value not in known:
        raise ValueError(f"unknown {what} {value!r}")
    return value


def degree_keyed(value, what: str) -> dict:
    """``value`` as a JSON object keyed by integer strings (``"1"``,
    ``"-2"``), each degree once, re-keyed by those integers."""
    out = {}
    for key, entry in obj(value, what).items():
        if re.fullmatch(r"-?[0-9]+", key) is None:
            raise ValueError(f"{what} key {key!r} is not an integer")
        if int(key) in out:
            raise ValueError(f"{what} gives degree {int(key)} twice")
        out[int(key)] = entry
    return out
