"""Exception types shared across the package, the one YAML-mapping loader
that turns malformed documents into them, and the one check that every
vector and size entering the package is a finite array of the right shape."""

import numpy as np
import yaml


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


def parse_mapping(text: str, what: str, keys, build):
    """Load a YAML mapping document and return ``build(doc)``.

    YAML syntax errors raise ParseError with the 1-based line.  A document
    that is not a mapping (an empty one counts as ``{}``), has keys outside
    ``keys``, or holds values that ``build`` rejects with TypeError,
    ValueError or KeyError raises ValidationError.
    """
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        raise ParseError(f"malformed {what} document: {exc}",
                         line=None if mark is None else mark.line + 1) from exc
    doc = check_keys({} if doc is None else doc, f"{what} document", keys)
    try:
        return build(doc)
    except (TypeError, ValueError, KeyError) as exc:
        raise ValidationError(f"malformed {what} document: {exc!r}") from exc


def finite_array(value, what: str, shape: tuple = ()) -> np.ndarray:
    """A read-only float64 copy of ``value`` whose shape matches ``shape``
    (a ``None`` entry matches any length) and whose entries are all finite;
    anything else raises ValidationError naming ``what``."""
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be numeric: {exc}") from exc
    if arr.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, arr.shape)):
        raise ValidationError(f"{what} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} must be finite")
    arr.flags.writeable = False
    return arr
