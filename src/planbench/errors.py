"""Exception types shared across the package, the one input-file reader and
YAML-mapping loader that turn unreadable and malformed documents into them,
the one builder of a dataclass from a document entry, the one equality of
the dataclasses that hold arrays, and the one check each that every real
scalar, every vector or size and every count or index entering the package
is a finite real, a finite array of the right shape and an integer."""

import dataclasses
import math
import numbers
from pathlib import Path

import numpy as np
import yaml
from yaml.composer import Composer
from yaml.constructor import SafeConstructor
from yaml.resolver import Resolver


class PlanbenchError(Exception):
    """Base class for every error raised by this package."""


class ContractViolation(PlanbenchError):
    """An operation was called with arguments that violate its preconditions."""


class ParseError(PlanbenchError):
    """A document could not be parsed; carries the 1-based line when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(PlanbenchError):
    """A parsed document or parameter set failed semantic validation."""


def check_keys(doc, what: str, keys) -> dict:
    """Return ``doc`` if it is a mapping whose keys all lie in ``keys``."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} must be a mapping, got {doc!r}")
    unknown = set(doc) - set(keys)
    if unknown:
        raise ValidationError(f"unknown {what} keys: {sorted(unknown, key=str)}")
    return doc


def build(cls, entry, what: str):
    """``cls(**entry)`` for a document entry whose keys are all field names
    of the dataclass ``cls``: the class checks every value and supplies
    every default.  An entry that is not a mapping or has a key that names
    no field raises ValidationError; a missing required field raises the
    constructor's TypeError."""
    return cls(**check_keys(entry, what, {f.name for f in dataclasses.fields(cls)}))


def field_eq(self, other):
    """``__eq__`` of every package dataclass with an array field: it compares
    each field marked ``compare``, arrays by value and None only to None."""
    if not isinstance(other, type(self)):
        return NotImplemented
    return all(np.array_equal(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
               else a == b for a, b in ((getattr(self, f.name), getattr(other, f.name))
                                        for f in dataclasses.fields(self) if f.compare))


if yaml.__with_libyaml__:
    class YamlLoader(Composer, yaml.cyaml.CParser, SafeConstructor, Resolver):
        """``yaml.SafeLoader`` with libyaml's C scanner and parser, which
        load the shipped assets 6 to 10 times faster, under PyYAML's Python
        composer: the C composer of ``yaml.CSafeLoader`` recurses with no
        limit and overflows the C stack on deep nesting, where this one
        raises RecursionError."""

        def __init__(self, stream):
            yaml.cyaml.CParser.__init__(self, stream)
            Composer.__init__(self)
            SafeConstructor.__init__(self)
            Resolver.__init__(self)
else:
    YamlLoader = yaml.SafeLoader


def read_text(path: str | Path) -> str:
    """The text of the UTF-8 file at ``path``; bytes that are not UTF-8
    raise ParseError naming the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{exc} in {path}") from exc


def parse_mapping(text: str, what: str, keys, build):
    """Load a YAML mapping document and return ``build(doc)``.

    YAML syntax errors raise ParseError with the 1-based line.  A scalar
    its YAML type rejects (the date 2024-13-45, an integer too long to
    convert) or nesting past the recursion limit raises ParseError with no
    line.  A document that is not a mapping (an empty one counts as
    ``{}``), has keys outside ``keys``, or holds values that ``build``
    rejects with TypeError, ValueError, KeyError or OverflowError (an
    integer beyond the float range) raises ValidationError.
    """
    try:
        doc = yaml.load(text, Loader=YamlLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        raise ParseError(f"malformed {what} document: {exc}",
                         line=None if mark is None else mark.line + 1) from exc
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"malformed {what} document: {exc!r}") from exc
    doc = check_keys({} if doc is None else doc, f"{what} document", keys)
    try:
        return build(doc)
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
        raise ValidationError(f"malformed {what} document: {exc!r}") from exc


def _real(value) -> bool:
    """Whether ``value`` is a real number other than a bool (or ``np.bool_``)."""
    return isinstance(value, (float, int, numbers.Real)) and not isinstance(value, bool)


def real(value, what: str) -> float:
    """``value`` as a float if it is a finite real number; a bool, a string,
    None, NaN, an infinity or anything else raises ValidationError naming
    ``what``; an integer beyond the float range raises OverflowError."""
    if _real(value) and math.isfinite(value):
        return float(value)
    raise ValidationError(f"{what} must be a finite real number, got {value!r}")


def finite_array(value, what: str, shape: tuple) -> np.ndarray:
    """A read-only float64 copy of ``value`` whose shape matches ``shape``
    (a ``None`` entry matches any length) and whose entries are all finite,
    of a non-bool numeric dtype or, in a list or tuple, real numbers as
    ``real`` reads them; anything else raises ValidationError naming ``what``."""
    entries = value if isinstance(value, np.ndarray) else np.array(value, dtype=object)
    if not (value.dtype.kind in "iuf" if entries is value else all(map(_real, entries.flat))):
        raise ValidationError(f"{what} must hold real numbers, got {value!r}")
    try:
        arr = entries.astype(float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} must be numeric: {exc}") from exc
    if arr.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, arr.shape)):
        raise ValidationError(f"{what} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} must be finite")
    arr.flags.writeable = False
    return arr


def integer(value, what: str, least: int | None = None) -> int:
    """``value`` as an int if it is an integer no smaller than ``least``;
    a bool, a float (even a whole one), a string or anything else raises
    ValidationError naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValidationError(f"{what} must be at least {least}, got {value!r}")
    return int(value)
