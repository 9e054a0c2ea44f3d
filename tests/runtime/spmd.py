"""Straight-line superstep programs for the runtime tests.

:func:`run_supersteps` drives a list of one-argument superstep
functions through one session, the way the program's own callers use
:meth:`~repro.runtime.backends.base.Backend.open_session` and
:meth:`~repro.runtime.backends.base.SpmdSession.step`. ``backend=None``
resolves the configured default, so ``$REPRO_BACKEND`` runs the same
tests on the process and tcp pools, a pool with a ``faults=`` plan
included.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, List, Mapping, Optional, Sequence

from repro.obs.tracer import TracerBase
from repro.runtime.backends import BackendLike, SpmdContext, resolve_backend
from repro.runtime.ledger import CommLedger


def without_arg(fn: Callable[[SpmdContext], Any], ctx: SpmdContext,
                _arg: Any) -> Any:
    """``fn(ctx)`` as a two-argument superstep. Module-level, so a
    ``partial`` of it pickles whenever ``fn`` does."""
    return fn(ctx)


def run_supersteps(
    size: int,
    supersteps: Sequence[Callable[[SpmdContext], Any]],
    ledger: Optional[CommLedger] = None,
    backend: BackendLike = None,
    tracer: Optional[TracerBase] = None,
    shared: Optional[Mapping[str, Any]] = None,
) -> List[List[Any]]:
    """``results[step][rank]`` of ``supersteps`` run in order on one
    ``size``-rank session of ``backend``."""
    with resolve_backend(backend).open_session(
        size, ledger=ledger, tracer=tracer, shared=shared
    ) as session:
        return [session.step(partial(without_arg, fn)) for fn in supersteps]
