"""Shared machinery for the project lint rules.

Every rule is a :class:`Rule` subclass with a stable code (``REPxxx``), a
one-line fix hint, and an optional path scope.  Rules receive a parsed
module and report :class:`Finding` objects; suppression comments and
output formatting live in :mod:`repro.devtools.lint`, so rules stay pure
AST analyses.

Path scoping matches on *posix path suffixes* (``repro/utils/
timing.py``), never on absolute paths — the linter's own tests copy
real source files into scratch mirrors and the rules must recognize them
there exactly as they do in the working tree.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from collections.abc import Iterator, Sequence
from typing import Optional, Union

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    code: str
    message: str
    hint: str


@dataclass
class Module:
    """A parsed source file plus the derived indexes rules share."""

    path: str  # normalized to posix separators
    tree: ast.Module
    source: str
    #: Names bound to the numpy module itself (``import numpy as np``).
    numpy_aliases: set[str] = field(default_factory=set)
    #: Names bound to the ``numpy.random`` module (``from numpy import
    #: random as npr`` / ``import numpy.random as npr``).
    random_aliases: set[str] = field(default_factory=set)
    #: Local name -> ``numpy.random`` attribute for ``from numpy.random
    #: import default_rng as rng_factory`` style imports.
    from_random: dict[str, str] = field(default_factory=dict)
    #: Names bound at module scope by def/class/import statements — the
    #: names REP003 accepts as picklable worker payloads.
    module_level_names: set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        self._index_imports()

    def _index_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "numpy":
                        self.numpy_aliases.add(alias.asname or "numpy")
                    elif alias.name == "numpy.random" and alias.asname:
                        self.random_aliases.add(alias.asname)
                    elif alias.name == "numpy.random":
                        self.numpy_aliases.add("numpy")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            self.random_aliases.add(alias.asname or "random")
                elif node.module == "numpy.random":
                    for alias in node.names:
                        self.from_random[alias.asname or alias.name] = alias.name
        for node in self.tree.body:
            for name in _bound_names(node):
                self.module_level_names.add(name)

    # ------------------------------------------------------------------
    # numpy.random call resolution (shared by REP001/REP002)
    # ------------------------------------------------------------------

    def numpy_random_callee(self, func: ast.expr) -> Optional[str]:
        """The ``numpy.random`` attribute a call expression resolves to.

        Returns e.g. ``"seed"`` for ``np.random.seed`` / ``npr.seed`` /
        a bare ``seed`` imported from ``numpy.random``; ``None`` when the
        callee is not a ``numpy.random`` attribute.
        """
        if isinstance(func, ast.Name):
            return self.from_random.get(func.id)
        if isinstance(func, ast.Attribute):
            value = func.value
            if isinstance(value, ast.Name) and value.id in self.random_aliases:
                return func.attr
            if (
                isinstance(value, ast.Attribute)
                and value.attr == "random"
                and isinstance(value.value, ast.Name)
                and value.value.id in self.numpy_aliases
            ):
                return func.attr
        return None

    def numpy_callee(self, func: ast.expr) -> Optional[str]:
        """The top-level numpy attribute of ``np.<attr>`` calls, else None."""
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in self.numpy_aliases
        ):
            return func.attr
        return None


def _bound_names(node: ast.stmt) -> Iterator[str]:
    """Names a top-level statement binds in its enclosing namespace."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        yield node.name
    elif isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.asname or alias.name.split(".")[0]
    elif isinstance(node, ast.ImportFrom):
        for alias in node.names:
            yield alias.asname or alias.name
    elif isinstance(node, ast.Assign):
        for target in node.targets:
            for name_node in ast.walk(target):
                if isinstance(name_node, ast.Name):
                    yield name_node.id
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        yield node.target.id


def attr_chain(node: ast.expr) -> Optional[tuple[str, ...]]:
    """The dotted-name parts of a Name/Attribute chain, or ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


class Rule:
    """Base class: subclasses set the class attributes and ``check``."""

    code: str = "REP000"
    name: str = "base"
    #: One-line fix hint rendered next to every finding.
    hint: str = ""
    #: Posix path suffixes exempt from this rule.
    exempt_paths: tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        return not any(path.endswith(suffix) for suffix in self.exempt_paths)

    def check(self, module: Module) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: Module, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=self.code,
            message=message,
            hint=self.hint,
        )


def first_positional(call: ast.Call) -> Optional[ast.expr]:
    """The first positional argument of a call, ``None`` when starred/empty."""
    if not call.args:
        return None
    arg = call.args[0]
    if isinstance(arg, ast.Starred):
        return None
    return arg


def is_none(node: Optional[ast.expr]) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def iter_calls(tree: ast.Module) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


def parameters_of(node: FunctionNode) -> Sequence[ast.arg]:
    args = node.args
    params: list[ast.arg] = []
    params.extend(args.posonlyargs)
    params.extend(args.args)
    params.extend(args.kwonlyargs)
    return params
