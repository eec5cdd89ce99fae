"""Policy rule: REP006 — engine policy routes through ``ExecutionContext``.

The per-layer knob chains (``sample_batch_size``, ``mc_batch_size``,
``jobs``, ...) live in one :class:`ExecutionContext` owned at the top of a
run.  This rule stops the chains from growing back: an engine-layer
function that takes a bare policy knob as a parameter is a finding unless
it also accepts a ``context`` parameter (the documented explicit-override
hybrid: the knob overrides the context per call, it does not replace it)
or lives in one of the modules that *define* the policy layer.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools.rules.base import (
    Finding,
    Module,
    Rule,
    parameters_of,
)

#: The engine-policy knobs ExecutionContext owns.  A parameter with one of
#: these names on an engine-layer function is a policy chain regrowing.
POLICY_KWARGS = frozenset(
    {
        "sample_batch_size",
        "mc_batch_size",
        "mc_tolerance",
        "reuse_pool",
        "jobs",
        "max_samples",
        "graph_storage",
        "kernel_backend",
    }
)


class ContextPolicyRule(Rule):
    """REP006 — no bare policy kwargs on engine-layer functions."""

    code = "REP006"
    name = "policy-via-context"
    hint = (
        "accept context: ExecutionContext instead, or alongside the knob "
        "as an explicit override"
    )
    #: Engine-layer scope: the installed package only.  Benchmark drivers
    #: and examples legitimately sweep raw knob values from argv/grids.
    _ENGINE_MARKER = "repro/"
    #: Modules that define the policy layer itself: the context (owner of
    #: every knob), the shared validators, the experiment config (the
    #: sweep's declarative source of a context), the CLI (argv boundary),
    #: and the parallel runtime (``jobs`` is its constructor's domain —
    #: the context passes it down, it does not read it back).
    exempt_paths = (
        "repro/runtime/context.py",
        "repro/utils/validation.py",
        "repro/experiments/config.py",
        "repro/cli.py",
        "repro/parallel/runtime.py",
    )

    def applies_to(self, path: str) -> bool:
        if self._ENGINE_MARKER not in path:
            return False
        return super().applies_to(path)

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = list(parameters_of(node))
            knobs = sorted(
                param.arg for param in params if param.arg in POLICY_KWARGS
            )
            if not knobs:
                continue
            # A `context` parameter next to the knob is the sanctioned
            # explicit-override hybrid; the knob is "bare" only when no
            # context route exists at all.
            if any(param.arg == "context" for param in params):
                continue
            yield self.finding(
                module,
                node,
                f"{node.name}() grows bare policy "
                f"{'kwarg' if len(knobs) == 1 else 'kwargs'} "
                f"{', '.join(knobs)} — engine policy routes through "
                "ExecutionContext",
            )
