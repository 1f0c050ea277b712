"""Scalar SQL functions.

The key behavioural detail reproduced from the paper: the optimizer has no
statistics for predicates built over function calls, so it falls back to a
default selectivity (PostgreSQL's 1/3).  That is why ``absolute(...) > 0``
— whose true selectivity is 1 — drives the estimation errors in queries Q2
and Q4 (Section 5.3.1, point 3).  ``SqlFunction.estimatable`` marks whether
the optimizer may see through the call; every built-in here is opaque, as
in the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.errors import BindError
from repro.storage.types import DataType, FLOAT, INTEGER, StringType


@dataclass(frozen=True)
class SqlFunction:
    """A scalar function usable in expressions."""

    name: str
    arity: int
    #: NULL-safe form: any NULL argument yields NULL without calling ``fn``.
    evaluate: Callable
    #: Result type given argument types (None in the mapping = "same as arg 0").
    result_type: Optional[DataType]
    #: The raw callable, for evaluators that test for NULL themselves.
    fn: Callable
    #: Whether the optimizer can estimate selectivities through this call.
    estimatable: bool = False

    def return_type(self, arg_types: Sequence[DataType]) -> DataType:
        """Result type of a call given its argument types."""
        if self.result_type is not None:
            return self.result_type
        return arg_types[0] if arg_types else INTEGER


def _null_safe(fn: Callable) -> Callable:
    """Wrap ``fn`` so any NULL argument yields NULL (SQL semantics)."""

    def wrapper(*args):
        if any(a is None for a in args):
            return None
        return fn(*args)

    return wrapper


FUNCTIONS: dict[str, SqlFunction] = {}


def _register(name: str, arity: int, fn: Callable, result_type: Optional[DataType]) -> None:
    FUNCTIONS[name] = SqlFunction(name, arity, _null_safe(fn), result_type, fn)


# The paper's queries use absolute(); abs() is a convenience alias.
_register("absolute", 1, abs, None)
_register("abs", 1, abs, None)
_register("upper", 1, str.upper, StringType(255))
_register("lower", 1, str.lower, StringType(255))
_register("length", 1, len, INTEGER)
_register("mod", 2, lambda a, b: a % b, None)
_register("power", 2, lambda a, b: a**b, FLOAT)
_register("sqrt", 1, math.sqrt, FLOAT)
_register("floor", 1, lambda a: int(math.floor(a)), INTEGER)
_register("ceil", 1, lambda a: int(math.ceil(a)), INTEGER)


def lookup_function(name: str, num_args: int) -> SqlFunction:
    """Resolve a function by name/arity; raises :class:`BindError`."""
    func = FUNCTIONS.get(name.lower())
    if func is None:
        raise BindError(f"unknown function {name!r}")
    if func.arity != num_args:
        raise BindError(
            f"function {name!r} expects {func.arity} argument(s), got {num_args}"
        )
    return func
