"""Repository-level meta checks: public API surface, documentation, the
examples and benches that keep the public names alive, and the import
footprint of the serving and screening path."""

import importlib
import importlib.util
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import repro


def _subpackages():
    """Every package under ``repro`` (walked, so a new one cannot be
    missed), plus the CLI module."""
    walked = [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if info.ispkg
    ]
    return ["repro", *sorted(walked), "repro.cli"]


SUBPACKAGES = _subpackages()


class TestPublicAPI:
    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_subpackage_imports(self, name):
        importlib.import_module(name)

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_all_entries_resolve(self, name):
        module = importlib.import_module(name)
        for entry in getattr(module, "__all__", []):
            assert hasattr(module, entry), f"{name}.__all__ lists missing {entry!r}"

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_module_docstrings(self, name):
        module = importlib.import_module(name)
        assert module.__doc__, f"{name} lacks a module docstring"
        assert len(module.__doc__.strip()) > 30

    def test_version(self):
        import repro

        assert repro.__version__


class TestSourceHygiene:
    def _src_files(self):
        root = pathlib.Path(__file__).resolve().parents[1] / "src"
        return list(root.rglob("*.py"))

    def test_every_module_has_docstring(self):
        import ast

        missing = []
        for path in self._src_files():
            tree = ast.parse(path.read_text())
            if not (
                tree.body
                and isinstance(tree.body[0], ast.Expr)
                and isinstance(tree.body[0].value, ast.Constant)
            ):
                missing.append(str(path))
        assert not missing, f"modules without docstrings: {missing}"

    def test_public_classes_and_functions_documented(self):
        import ast

        undocumented = []
        for path in self._src_files():
            tree = ast.parse(path.read_text())
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    if node.name.startswith("_"):
                        continue
                    if not ast.get_docstring(node):
                        undocumented.append(f"{path.name}:{node.name}")
        assert not undocumented, f"undocumented public items: {undocumented}"

    def test_one_bound_checker(self):
        """Knob bounds live in field domains (``repro.domains``): no
        ``__post_init__`` raises a hand-written ValueError, except the shape
        checks of the per-item structure records, and ``cli.py`` builds no
        bounded argparse type of its own."""
        import ast

        def raises(node, name):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            return getattr(exc, "id", getattr(exc, "attr", None)) == name

        shape_checked = {"Structure", "GraphSample", "Lattice"}
        offenders = []
        for path in self._src_files():
            tree = ast.parse(path.read_text())
            for cls in ast.walk(tree):
                if not isinstance(cls, ast.ClassDef) or cls.name in shape_checked:
                    continue
                for fn in cls.body:
                    if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__" and any(
                        isinstance(n, ast.Raise) and raises(n, "ValueError")
                        for n in ast.walk(fn)
                    ):
                        offenders.append(f"{path.name}:{cls.name}.__post_init__")
            if path.name != "cli.py":
                continue
            for fn in ast.walk(tree):
                if not isinstance(fn, ast.FunctionDef):
                    continue
                body = list(ast.walk(fn))
                if any(
                    isinstance(n, ast.Raise) and raises(n, "ArgumentTypeError") for n in body
                ) and any(
                    isinstance(n, ast.Compare)
                    and any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in n.ops)
                    for n in body
                ):
                    offenders.append(f"cli.py:{fn.name}")
        assert not offenders, f"hand-written bound checks: {offenders}"

    def test_no_torch_or_dgl_imports(self):
        """The reproduction's core claim: the entire stack is numpy-native."""
        offenders = []
        for path in self._src_files():
            text = path.read_text()
            for forbidden in ("import torch", "import dgl", "import lightning"):
                if forbidden in text:
                    offenders.append(f"{path.name}: {forbidden}")
        assert not offenders


ROOT = pathlib.Path(__file__).resolve().parents[1]


class TestKeptCallersImport:
    """The examples and benches are the callers that keep public names
    alive (a name stays only if a workflow, command, servable, example or
    bench reaches it), so deleting a name one of them imports must fail
    here, not at the next bench run.  Import only: nothing is executed."""

    @pytest.mark.parametrize(
        "path", sorted(ROOT.glob("examples/*.py")), ids=lambda p: p.name
    )
    def test_example_imports(self, path):
        spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
        spec.loader.exec_module(importlib.util.module_from_spec(spec))

    @pytest.mark.parametrize(
        "path",
        sorted(ROOT.glob("benchmarks/bench_*.py"))
        + sorted(
            p for p in ROOT.glob("benchmarks/e2e/*.py")
            if not p.name.startswith(("_", "test_"))
        ),
        ids=lambda p: p.relative_to(ROOT / "benchmarks").as_posix(),
    )
    def test_bench_imports(self, path, monkeypatch):
        """Every bench module, and every module of the end-to-end
        benchmark, which reads ``repro`` names the tier-1 suite must see."""
        monkeypatch.syspath_prepend(str(ROOT))
        module = path.relative_to(ROOT).with_suffix("").as_posix().replace("/", ".")
        importlib.import_module(module)


_SERVE_AND_SCREEN = """
import sys

import repro.cli
from repro.datasets import MaterialsProjectSurrogate
from repro.screening import ScreenConfig, run_screening
from repro.serving import ModelRegistry, ServableSpec

spec = ServableSpec(
    target="band_gap", encoder_name="schnet", hidden_dim=8, num_layers=1,
    position_dim=2, head_hidden_dim=8, head_blocks=1, normalizer=[0.5, 2.0],
)
registry = ModelRegistry(sys.argv[1])
registry.save("tiny", spec.build_task(), spec)
servable = registry.load("tiny")
crystal = MaterialsProjectSurrogate(1, seed=0)[0]
servable.predict([servable.prepare(crystal)])
run_screening(
    servable,
    ScreenConfig(n_candidates=16, top_k=4, batch_size=8, relax_steps=1, base_samples=4),
)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_serve_and_screen_never_load_scipy(tmp_path):
    """Materials Project crystals have at most 10 atoms, one KD-tree leaf,
    so importing the CLI, serving one crystal and screening candidates
    runs no scipy code and must not pay its import (about 40 MiB)."""
    proc = subprocess.run(
        [sys.executable, "-c", _SERVE_AND_SCREEN, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]", f"scipy modules loaded: {proc.stdout}"
