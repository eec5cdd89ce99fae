"""Public-API surface tests.

Guard rails for downstream users: everything advertised in ``__all__`` is
importable, the version is single-sourced, and the central entry points
keep their signatures.
"""

import importlib
import inspect

import pytest

import repro


PACKAGES = [
    "repro",
    "repro.graph",
    "repro.diffusion",
    "repro.sampling",
    "repro.core",
    "repro.baselines",
    "repro.experiments",
    "repro.utils",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    assert hasattr(package, "__all__"), package_name
    for name in package.__all__:
        assert hasattr(package, name), f"{package_name}.{name} missing"


def test_version_single_sourced():
    from repro._version import __version__

    assert repro.__version__ == __version__
    parts = __version__.split(".")
    assert len(parts) == 3
    assert all(part.isdigit() for part in parts)


def test_top_level_exports():
    # The names the README's quickstart depends on.
    for name in ("ASTI", "AdaptIM", "ATEUC", "IndependentCascade",
                 "LinearThreshold", "DiGraph", "ReproError"):
        assert name in repro.__all__


class TestSignatures:
    def test_asti_run_signature(self):
        params = inspect.signature(repro.ASTI.run).parameters
        assert list(params) == [
            "self", "graph", "eta", "realization", "seed", "max_rounds",
        ]

    def test_asti_constructor_defaults(self):
        params = inspect.signature(repro.ASTI.__init__).parameters
        assert params["epsilon"].default == 0.5  # the paper's setting
        assert params["batch_size"].default == 1

    def test_selector_protocol(self):
        from repro.core.policy import SeedSelector
        from repro.core.trim import TrimSelector
        from repro.core.trim_b import TrimBSelector
        from repro.baselines.opim import OpimNodeSelector

        for selector_cls in (TrimSelector, TrimBSelector, OpimNodeSelector):
            assert issubclass(selector_cls, SeedSelector)


class TestDocstrings:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_public_items_documented(self, package_name):
        """Every advertised class/function carries a docstring."""
        package = importlib.import_module(package_name)
        for name in package.__all__:
            item = getattr(package, name)
            if inspect.isclass(item) or inspect.isfunction(item):
                assert inspect.getdoc(item), f"{package_name}.{name} undocumented"

    def test_module_docstrings(self):
        import pkgutil

        # Every module imports with numpy alone: an ImportError here is a
        # failure, not an optional extra to skip.
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            module = importlib.import_module(info.name)
            assert module.__doc__, f"{info.name} lacks a module docstring"
