"""Helpers for evolving public signatures without breaking callers.

:func:`deprecated_positionals` backs the keyword-only migration of the
solver entry points (``dfg_frontier``, ``tree_frontier``,
``min_resource_schedule``, ``list_schedule``): the declared signatures
are keyword-only after the first two parameters, and the decorator adds
a runtime shim that still accepts the legacy positional style for one
release, emitting a :class:`DeprecationWarning` naming the keywords to
switch to.  See the migration note in ``docs/algorithms.md``.

The v1 API freeze upgrades the shim's warnings to errors: with
:data:`STRICT_API` true (set ``REPRO_STRICT_API=1``; the test suite and
CI run this way), legacy positional calls raise ``TypeError`` exactly
as the plain keyword-only def will once the shims are dropped.  The
flag is read at call time, so tests can flip it with ``monkeypatch``.

:func:`retired_knobs` (and :func:`warn_retired` for a knob retired
only in some combinations) keeps parameters that no longer do anything
(``kernel=``, ``incremental=``, ...) accepted-but-ignored with the same
warn / ``TypeError``-under-:data:`STRICT_API` split; ``docs/api.md``
lists them for removal in 2.0.

This module sits at the bottom layer (with ``errors`` and ``obs``) and
imports nothing from the rest of the package.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import warnings
from typing import Any, Callable, Sequence, TypeVar, cast

__all__ = ["deprecated_positionals", "retired_knobs", "warn_retired", "STRICT_API"]

#: When true, the deprecated-positionals shims raise ``TypeError``
#: instead of warning — the frozen v1 behaviour.  Initialised from the
#: ``REPRO_STRICT_API`` environment variable ("1"/"true"/"yes", case
#: insensitive); mutable at runtime (``repro.apiutil.STRICT_API = True``)
#: because the wrappers re-read it on every call.
STRICT_API: bool = os.environ.get("REPRO_STRICT_API", "").strip().lower() in (
    "1",
    "true",
    "yes",
    "on",
)

F = TypeVar("F", bound=Callable[..., Any])


def _caller_stacklevel() -> int:
    """``stacklevel`` (for :func:`warn_retired`) of the entry point's caller.

    :func:`warn_retired` is called either from a shim of this module or
    from the entry point itself; the first frame outside this module
    after that direct caller is the one to blame.  Shims stack
    (``deprecated_positionals`` over ``retired_knobs``), so a fixed
    level would blame an outer shim instead.
    """
    level, frame = 3, sys._getframe(3)
    while frame is not None and frame.f_code.co_filename == __file__:
        level, frame = level + 1, frame.f_back
    return level


def deprecated_positionals(*names: str, keep: int = 2) -> Callable[[F], F]:
    """Allow ``names`` to be passed positionally after ``keep`` args — deprecated.

    ``names`` lists, in order, the now keyword-only parameters that the
    previous release accepted positionally.  Extra positional arguments
    beyond ``keep`` are mapped onto them with a ``DeprecationWarning``;
    more positionals than ``names`` or a positional duplicating an
    explicit keyword raise ``TypeError`` exactly like a plain def would.

    Under :data:`STRICT_API` the legacy style raises ``TypeError``
    immediately (the v1 freeze) instead of warning.
    """

    def decorate(func: F) -> F:
        qualname = func.__name__

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if len(args) > keep:
                extras = args[keep:]
                if STRICT_API:
                    raise TypeError(  # lint: ignore[RL001]
                        f"{qualname}() takes {keep} positional arguments but "
                        f"{len(args)} were given ("
                        f"{', '.join(repr(n) for n in names[:len(extras)])} "
                        "are keyword-only; legacy positional calls are "
                        "rejected under STRICT_API)"
                    )
                if len(extras) > len(names):
                    raise TypeError(  # lint: ignore[RL001]
                        f"{qualname}() takes {keep} positional arguments but "
                        f"{len(args)} were given"
                    )
                mapped = names[: len(extras)]
                for name, value in zip(mapped, extras):
                    if name in kwargs:
                        raise TypeError(  # lint: ignore[RL001]
                            f"{qualname}() got multiple values for argument "
                            f"{name!r}"
                        )
                    kwargs[name] = value
                warnings.warn(
                    f"passing {', '.join(repr(n) for n in mapped)} to "
                    f"{qualname}() positionally is deprecated; these "
                    "parameters are keyword-only",
                    DeprecationWarning,
                    stacklevel=2,
                )
                args = args[:keep]
            return func(*args, **kwargs)

        return cast(F, wrapper)

    return decorate


def warn_retired(qualname: str, names: Sequence[str]) -> None:
    """Report that the caller of ``qualname`` passed retired ``names``.

    One ``DeprecationWarning`` blaming that caller; under
    :data:`STRICT_API` a ``TypeError`` naming the knobs instead.  Entry
    points call this directly for a knob retired only in some
    combinations (``dfg_frontier(workers=)`` without ``batch``); the
    rest go through :func:`retired_knobs`.
    """
    listed = ", ".join(repr(n) for n in names)
    if STRICT_API:
        raise TypeError(  # lint: ignore[RL001]
            f"{qualname}() got retired argument(s) {listed}; "
            "they have no effect and are rejected under STRICT_API"
        )
    warnings.warn(
        f"{listed} of {qualname}() is retired and ignored "
        "(it never changed a result); drop it before 2.0",
        DeprecationWarning,
        stacklevel=_caller_stacklevel(),
    )


def retired_knobs(*names: str) -> Callable[[F], F]:
    """Accept-and-ignore the parameters ``names`` — deprecated.

    The wrapped function keeps ``names`` in its signature (so
    ``deprecated_positionals`` stacked above can still map legacy
    positionals onto them) and never reads them.  A call passing one,
    by keyword or position, goes through :func:`warn_retired`: one
    ``DeprecationWarning``, or ``TypeError`` under :data:`STRICT_API`.
    """

    def decorate(func: F) -> F:
        qualname = func.__qualname__.removesuffix(".__init__")
        params = inspect.signature(func).parameters
        slots = {
            name: index
            for index, name in enumerate(params)
            if name in names
            and params[name].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        }

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            passed = [
                n for n in names if n in kwargs or slots.get(n, len(args)) < len(args)
            ]
            if passed:
                warn_retired(qualname, passed)
            return func(*args, **kwargs)

        return cast(F, wrapper)

    return decorate
