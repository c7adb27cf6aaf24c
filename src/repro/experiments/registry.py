"""Artifact registry: every paper table/figure as a named, discoverable run.

Each experiments module decorates its ``run`` function::

    @register_artifact("fig4", title="Figure 4: computation-limited MHFL")
    def run(scale="demo", seed=0, ...): ...

and the unified CLI (:mod:`repro.__main__`) lists, describes and executes
artifacts from here — no hardcoded artifact list, no per-module ``main()``.
Discovery imports every module in :mod:`repro.experiments` once, so adding
a new artifact module is registration enough.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["Artifact", "register_artifact", "get_artifact",
           "all_artifacts", "discover_artifacts"]


@dataclass(frozen=True)
class Artifact:
    """One registered table/figure harness."""

    name: str
    run: Callable[..., list]
    title: str
    #: first paragraph of the module docstring (fallback: function doc).
    description: str
    module: str
    #: kwargs the run() callable accepts (CLI options are filtered by this).
    params: tuple[str, ...]
    #: extra renderer hint; "radar" artifacts normalise per-axis scores.
    render: str = "table"
    render_kwargs: dict = field(default_factory=dict)


_ARTIFACTS: dict[str, Artifact] = {}
_DISCOVERED = False


def register_artifact(name: str, title: str | None = None,
                      render: str = "table", **render_kwargs):
    """Decorator registering ``run`` as the artifact ``name``."""

    def decorate(func: Callable[..., list]) -> Callable[..., list]:
        module = inspect.getmodule(func)
        doc = inspect.getdoc(module) or inspect.getdoc(func) or ""
        description = doc.split("\n\n", 1)[0].replace("\n", " ").strip()
        params = tuple(inspect.signature(func).parameters)
        artifact = Artifact(name=name, run=func,
                            title=title or name,
                            description=description,
                            module=func.__module__,
                            params=params,
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
