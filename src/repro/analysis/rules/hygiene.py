"""Hygiene rules: pure work items, logger naming, exception discipline.

* **pure-work-items** — the statically resolvable call graph rooted at
  ``fl/executor.py::execute_work_item`` must not write module-global
  mutable state.  Work items are the unit of parallel dispatch; a global
  write makes a worker's result depend on which items it ran before,
  which is exactly the order-dependence the executor contract forbids.
  Worker-side caches that are *deliberately* process-local (the scenario
  and dataset memo tables) carry documented allow comments.
* **logger-naming** — all loggers come from
  :func:`repro.telemetry.logs.get_logger`, so the whole tree lives under
  the ``repro.*`` hierarchy and one handler config governs everything.
* **no-bare-except** — no bare ``except:`` anywhere; no broad
  ``except Exception`` that swallows (never re-raises) in the executor /
  aggregation / runner paths, where a swallowed error turns into a
  silently wrong aggregate rather than a failed run.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..engine import ModuleSource, ProjectRule, Rule
from ..findings import Finding
from .determinism import dotted_chain

__all__ = ["PureWorkItems", "LoggerNaming", "NoBareExcept"]

#: root of the work-item call graph.
WORK_ITEM_ROOT = ("fl/executor.py", "execute_work_item")

#: in-place mutator method names on builtin containers.
MUTATOR_METHODS = frozenset({"append", "add", "update", "pop", "setdefault",
                             "clear", "extend", "remove", "discard",
                             "insert", "popitem", "appendleft", "extendleft"})

#: paths where a swallowed broad exception corrupts results silently.
STRICT_EXCEPT_PREFIXES = ("fl/", "experiments/")

#: the sanctioned logger factory's home (the one logging.getLogger site).
LOGGER_MODULE = "telemetry/logs.py"


def _module_rel_candidates(dotted: str) -> tuple[str, ...]:
    """Root-relative rel paths a dotted module may live at."""
    if dotted.startswith("repro."):
        dotted = dotted[len("repro."):]
    elif dotted == "repro":
        dotted = ""
    base = dotted.replace(".", "/")
    if not base:
        return ("__init__.py",)
    return (f"{base}.py", f"{base}/__init__.py")


def resolve_module(modules: dict[str, ModuleSource],
                   dotted: str) -> ModuleSource | None:
    for rel in _module_rel_candidates(dotted):
        if rel in modules:
            return modules[rel]
    return None


def top_level_functions(module: ModuleSource) -> dict[str, ast.FunctionDef]:
    return {node.name: node for node in module.tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def module_level_names(module: ModuleSource) -> set[str]:
    """Names bound by top-level assignments (module-global state)."""
    names: set[str] = set()
    for stmt in module.tree.body:
        targets: list[ast.AST] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets = [stmt.target]
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name):
                    names.add(node.id)
    return names


def local_names(fn: ast.FunctionDef) -> set[str]:
    """Names the function binds locally (params, assignments, loops,
    withs, comprehension targets, local imports)."""
    names: set[str] = set()
    args = fn.args
    for arg in (args.posonlyargs + args.args + args.kwonlyargs):
        names.add(arg.arg)
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    declared_global: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node is not fn:
            names.add(node.name)
    return names - declared_global


def _root_name(node: ast.AST) -> str | None:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


class PureWorkItems(ProjectRule):
    """No module-global writes reachable from ``execute_work_item``.

    The analysis follows statically resolvable calls only (same-module
    names, ``from m import f`` bindings, ``module.f()`` through import
    aliases); dynamic dispatch through objects (``algorithm.client_round``)
    is out of scope — those paths are covered by the strict-mode runtime
    sanitizers instead.
    """

    rule_id = "pure-work-items"
    protects = ("work items stay pure functions of their inputs, so any "
                "executor can run them in any order on any worker and "
                "produce identical results")

    def check_project(self,
                      modules: dict[str, ModuleSource]) -> Iterable[Finding]:
        root_rel, root_fn = WORK_ITEM_ROOT
        if root_rel not in modules:
            return
        fn_index = {rel: top_level_functions(m)
                    for rel, m in modules.items()}
        globals_index = {rel: module_level_names(m)
                         for rel, m in modules.items()}
        if root_fn not in fn_index[root_rel]:
            yield Finding(path=root_rel, line=1, col=1, rule=self.rule_id,
                          message=f"work-item root {root_fn} is missing; "
                                  f"update WORK_ITEM_ROOT if it moved")
            return
        seen: set[tuple[str, str]] = set()
        queue: list[tuple[str, str]] = [(root_rel, root_fn)]
        while queue:
            rel, name = queue.pop()
            if (rel, name) in seen:
                continue
            seen.add((rel, name))
            module = modules[rel]
            fn = fn_index[rel][name]
            locals_ = local_names(fn)
            module_globals = globals_index[rel]
            yield from self._check_function(module, fn, name, locals_,
                                            module_globals)
            for callee in self._resolve_calls(module, fn, locals_,
                                              modules, fn_index):
                if callee not in seen:
                    queue.append(callee)

    def _check_function(self, module: ModuleSource, fn: ast.FunctionDef,
                        name: str, locals_: set[str],
                        module_globals: set[str]) -> Iterable[Finding]:
        def is_global(root: str | None) -> bool:
            return (root is not None and root not in locals_
                    and root in module_globals)

        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                yield self.finding(
                    module, node,
                    f"{name}() declares 'global "
                    f"{', '.join(node.names)}' on the work-item path; "
                    f"work items must not rebind module state")
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                targets = (node.targets if isinstance(node, (ast.Assign,
                                                             ast.Delete))
                           else [node.target])
                for target in targets:
                    if isinstance(target, (ast.Subscript, ast.Attribute)) \
                            and is_global(_root_name(target)):
                        yield self.finding(
                            module, node,
                            f"{name}() writes module-global "
                            f"'{_root_name(target)}' on the work-item "
                            f"path; results would depend on worker "
                            f"history")
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in MUTATOR_METHODS):
                root = _root_name(node.func.value)
                if isinstance(node.func.value,
                              (ast.Name, ast.Subscript)) \
                        and is_global(root):
                    yield self.finding(
                        module, node,
                        f"{name}() mutates module-global '{root}' via "
                        f".{node.func.attr}() on the work-item path")

    def _resolve_calls(self, module: ModuleSource, fn: ast.FunctionDef,
                       locals_: set[str],
                       modules: dict[str, ModuleSource],
                       fn_index: dict[str, dict[str, ast.FunctionDef]],
                       ) -> Iterable[tuple[str, str]]:
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            # function references escaping as call arguments
            # (``pool.submit(_run_item, ...)``, ``loader=_load``) are edges
            # too: the callee may invoke them on the work-item path.
            for value in ([a for a in node.args]
                          + [kw.value for kw in node.keywords]):
                if isinstance(value, ast.Name) and value.id not in locals_:
                    if value.id in fn_index[module.rel]:
                        yield (module.rel, value.id)
                    elif value.id in module.imported_names:
                        source, original = module.imported_names[value.id]
                        target = resolve_module(modules, source) \
                            if source else None
                        if target is not None and original in \
                                fn_index[target.rel]:
                            yield (target.rel, original)
            chain = dotted_chain(node.func)
            if chain is None:
                continue
            if len(chain) == 1:
                callee = chain[0]
                if callee in fn_index[module.rel] and callee not in \
                        module.imported_names and callee not in locals_:
                    yield (module.rel, callee)
                elif callee in module.imported_names:
                    source, original = module.imported_names[callee]
                    target = resolve_module(modules, source) if source \
                        else None
                    if target is not None and original in \
                            fn_index[target.rel]:
                        yield (target.rel, original)
            elif len(chain) == 2 and chain[0] not in locals_:
                dotted = None
                if chain[0] in module.module_aliases:
                    dotted = module.module_aliases[chain[0]]
                elif chain[0] in module.imported_names:
                    source, original = module.imported_names[chain[0]]
                    dotted = f"{source}.{original}" if source else original
                if dotted is not None:
                    target = resolve_module(modules, dotted)
                    if target is not None and chain[1] in \
                            fn_index[target.rel]:
                        yield (target.rel, chain[1])


class LoggerNaming(Rule):
    """All loggers come from the ``repro.*``-rooted factory.

    ``logging.getLogger("something")`` creates a tree outside the
    ``repro`` hierarchy, invisible to the telemetry handler config; and
    ``get_logger("repro.x")`` double-prefixes to ``repro.repro.x``.
    """

    rule_id = "logger-naming"
    protects = ("every logger lives under the repro.* hierarchy created "
                "by repro.telemetry.logs.get_logger, so one handler "
                "config governs all output")

    def check_module(self, module: ModuleSource) -> Iterable[Finding]:
        if module.rel == LOGGER_MODULE:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = dotted_chain(node.func)
            if chain is None:
                continue
            if (chain[-1] == "getLogger"
                    and (len(chain) == 2
                         and module.module_aliases.get(chain[0])
                         == "logging"
                         or len(chain) == 1
                         and module.imported_names.get(
                             "getLogger", ("", ""))[0] == "logging")):
                yield self.finding(
                    module, node,
                    "direct logging.getLogger() call; use "
                    "repro.telemetry.logs.get_logger so the logger joins "
                    "the repro.* hierarchy")
            elif (chain[-1] == "get_logger" and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                    and (node.args[0].value == "repro"
                         or node.args[0].value.startswith("repro."))):
                yield self.finding(
                    module, node,
                    f"get_logger({node.args[0].value!r}) double-prefixes "
                    f"to 'repro.{node.args[0].value}'; pass the name "
                    f"without the 'repro.' root")


class NoBareExcept(Rule):
    """No bare ``except:``; no swallowed broad excepts on hot paths.

    A bare ``except:`` catches ``KeyboardInterrupt``/``SystemExit`` and
    is never right.  In ``fl/`` and ``experiments/`` — where exceptions
    mark lost client work — a broad ``except Exception`` that never
    re-raises converts a loud failure into a silently wrong aggregate, so
    it must either re-raise or carry a documented allow comment.
    """

    rule_id = "no-bare-except"
    protects = ("executor and aggregation paths never swallow errors: "
                "failures surface instead of corrupting results")

    def check_module(self, module: ModuleSource) -> Iterable[Finding]:
        strict = module.rel.startswith(STRICT_EXCEPT_PREFIXES)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    module, node,
                    "bare 'except:' catches KeyboardInterrupt/SystemExit; "
                    "name the exceptions (or 'except Exception' plus a "
                    "re-raise)")
            elif strict and self._is_broad(node.type) \
                    and not self._reraises(node):
                yield self.finding(
                    module, node,
                    "broad except swallows the error on an executor/"
                    "aggregation path; re-raise, narrow the type, or "
                    "document with allow[no-bare-except]")

    @staticmethod
    def _is_broad(type_node: ast.AST) -> bool:
        names = []
        if isinstance(type_node, ast.Tuple):
            names = [elt.id for elt in type_node.elts
                     if isinstance(elt, ast.Name)]
        elif isinstance(type_node, ast.Name):
            names = [type_node.id]
        return any(n in ("Exception", "BaseException") for n in names)

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        return any(isinstance(node, ast.Raise)
                   for node in ast.walk(handler))
