"""Small shared helpers: atomic file writes and config field checks."""

from __future__ import annotations

import math
import os
import tempfile

_KINDS = {int: "an integer", float: "a number", bool: "true or false"}


def write_atomic(path: str, data: bytes) -> None:
    """Write bytes to a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def check_fields(obj, rules: dict[str, tuple[type, str | None, float | None]]) -> None:
    """Check each field of `obj` against its rule (type, op, bound): the value
    must be of the type (an int counts as a float, a bool as nothing else)
    and, with an op, be finite and satisfy `value <op> bound`. Raises
    ValueError naming the field and the value."""
    for name, (kind, op, bound) in rules.items():
        value = getattr(obj, name)
        fits = isinstance(value, (int, float) if kind is float else kind)
        if not fits or (isinstance(value, bool) and kind is not bool):
            raise ValueError(f"{name} must be {_KINDS[kind]}, got {value!r}")
        if op is not None and not (math.isfinite(value)
                                   and (value > bound if op == ">" else value >= bound)):
            raise ValueError(f"{name} must be {op} {bound}, got {value}")
