"""Project-specific developer tooling.

The engine's correctness rests on invariants no general-purpose tool
checks: bit-identical outputs for any worker count hinge on chunk-indexed
``SeedSequence`` seeding and caller-drawn RNG, and fault recovery hinges
on worker payloads being module-level picklables.
:mod:`repro.devtools.lint` is the AST-based static-analysis pass
that turns each of those invariants into a lint rule (``REP001`` ...)
caught seconds into CI instead of minutes into the equivalence suites.

Run it as ``python -m repro.devtools.lint src benchmarks examples``.

(Deliberately import-free so ``python -m repro.devtools.lint`` does not
pre-import the submodule it is about to execute as ``__main__``.)
"""
