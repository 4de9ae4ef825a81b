"""Shared internal helpers: deterministic RNG plumbing, validation, text tables.

Nothing in this package is part of the public API; modules elsewhere in
:mod:`repro` import from here freely, external users should not.
"""

from repro._util.io import atomic_write_text
from repro._util.rng import as_generator, spawn_children
from repro._util.tables import format_table, format_series
from repro._util.tagged import (
    UnserializableValueError,
    dumps_tagged,
    loads_tagged,
    tagged_default,
    tagged_object_hook,
)
from repro._util.validate import (
    check_positive,
    check_nonnegative,
    check_fraction,
    check_type,
    ValidationError,
)

__all__ = [
    "atomic_write_text",
    "UnserializableValueError",
    "dumps_tagged",
    "loads_tagged",
    "tagged_default",
    "tagged_object_hook",
    "as_generator",
    "spawn_children",
    "format_table",
    "format_series",
    "check_positive",
    "check_nonnegative",
    "check_fraction",
    "check_type",
    "ValidationError",
]
