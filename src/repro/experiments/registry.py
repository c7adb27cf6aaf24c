"""Artifact registry: every paper table/figure as a named grid plus rows.

Each experiments module lists its cells in a ``specs`` function and
registers the function that builds its rows from their results::

    @register_artifact("fig7", title="Figure 7: ...", specs=specs)
    def rows(results, **_) -> list[dict]: ...

``Artifact.run(**kwargs)`` is ``rows(execute_specs(specs(**kwargs)),
**kwargs)``, so a grid can be listed, sharded or unioned with another
without running anything.  An artifact registered without ``specs`` lists
no cells: the tables and fig3 train nothing.  ``rows`` only reads
results; a cell's whole run is its spec (a ``tag`` names a variant, see
:mod:`repro.experiments.variants`).  Discovery imports every module in
:mod:`repro.experiments` once, so adding an artifact module is
registration enough.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from dataclasses import dataclass, field
from typing import Callable

from .runner import execute_specs

__all__ = ["Artifact", "register_artifact", "get_artifact",
           "all_artifacts", "discover_artifacts"]


def _no_cells(**kwargs) -> list:
    return []


@dataclass(frozen=True)
class Artifact:
    """One registered table/figure harness."""

    name: str
    #: ``rows(results, **kwargs)``: the rows from the results of ``specs``.
    rows: Callable[..., list]
    title: str
    #: first paragraph of the module docstring (fallback: function doc).
    description: str
    module: str
    #: kwargs the artifact accepts (CLI options are filtered by this).
    params: tuple[str, ...]
    #: ``specs(**kwargs)``: the cells, in the order ``rows`` reads them.
    specs: Callable[..., list] = _no_cells
    #: extra renderer hint; "radar" artifacts normalise per-axis scores.
    render: str = "table"
    render_kwargs: dict = field(default_factory=dict)

    def run(self, **kwargs) -> list[dict]:
        return self.rows(execute_specs(self.specs(**kwargs)), **kwargs)


_ARTIFACTS: dict[str, Artifact] = {}
_DISCOVERED = False


def register_artifact(name: str, title: str | None = None,
                      render: str = "table",
                      specs: Callable[..., list] | None = None,
                      **render_kwargs):
    """Decorator registering ``rows`` as the artifact ``name``.

    The artifact's options (and its module, whose docstring describes it)
    come from ``specs`` when it lists cells, else from ``rows``, whose
    first parameter is ``results``; ``rows`` is called with the same
    options ``specs`` was.
    """

    def decorate(func: Callable[..., list]) -> Callable[..., list]:
        # The module that lists the cells owns the artifact: the
        # constraint figures share one rows function.
        owner = specs or func
        doc = inspect.getdoc(inspect.getmodule(owner)) or \
            inspect.getdoc(owner) or ""
        description = doc.split("\n\n", 1)[0].replace("\n", " ").strip()
        params = (tuple(inspect.signature(specs).parameters) if specs
                  else tuple(inspect.signature(func).parameters)[1:])
        artifact = Artifact(name=name, rows=func,
                            title=title or name,
                            description=description,
                            module=owner.__module__,
                            params=params,
                            specs=specs or _no_cells,
                            render=render,
                            render_kwargs=dict(render_kwargs))
        existing = _ARTIFACTS.get(name)
        if existing is not None and existing.module != artifact.module:
            raise ValueError(f"artifact {name!r} already registered by "
                             f"{existing.module}")
        _ARTIFACTS[name] = artifact
        return func

    return decorate


def discover_artifacts() -> None:
    """Import every ``repro.experiments`` module so decorators run.

    The discovered flag is only set once every import succeeded: a module
    that fails to import surfaces its real error here and is retried on
    the next call, instead of leaving a silently partial registry.
    """
    global _DISCOVERED
    if _DISCOVERED:
        return
    package = importlib.import_module("repro.experiments")
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"repro.experiments.{info.name}")
    _DISCOVERED = True


def all_artifacts() -> dict[str, Artifact]:
    discover_artifacts()
    return dict(_ARTIFACTS)


def get_artifact(name: str) -> Artifact:
    discover_artifacts()
    try:
        return _ARTIFACTS[name]
    except KeyError:
        raise ValueError(f"unknown artifact {name!r}; "
                         f"known: {sorted(_ARTIFACTS)}") from None
