"""No orphan modules: every module under ``src/repro`` earns its place.

A module is *used* when a non-``__init__`` module in ``src/`` or ``bench/``
imports it — by its dotted name, as ``from package import module``, or by a
name it defines that its package re-exports (``from repro.mpi import
Communicator`` uses ``repro.mpi.comm``) — or when it registers a driver with
``@register_driver`` (the baselines are reached through the registry, not
by import).  ``__init__`` and ``__main__`` modules are entry points and are
not checked.  A module only its own test, benchmark or example imports is a
subsystem the program does not run, and this test names it.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = ROOT / "bench"


def _module_name(path: Path, base: Path) -> str:
    parts = list(path.relative_to(base).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _load(base: Path) -> dict[str, tuple[Path, ast.Module]]:
    return {_module_name(p, base): (p, ast.parse(p.read_text(), str(p)))
            for p in sorted(base.rglob("*.py"))}


def _package_of(name: str, path: Path) -> str:
    return name if path.name == "__init__.py" else name.rpartition(".")[0]


def _absolute(node: ast.ImportFrom, package: str) -> str:
    if not node.level:
        return node.module or ""
    parts = package.split(".")
    base = parts[:len(parts) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


class _Index:
    def __init__(self, modules: dict[str, tuple[Path, ast.Module]]):
        self.modules = modules

    def resolve(self, package: str, name: str, seen=frozenset()) -> str | None:
        """The module that defines ``name`` as re-exported by ``package``."""
        sub = f"{package}.{name}"
        if sub in self.modules:
            return sub
        if package not in self.modules or package in seen:
            return None
        path, tree = self.modules[package]
        for node in tree.body:
            if not isinstance(node, ast.ImportFrom):
                continue
            for alias in node.names:
                if (alias.asname or alias.name) != name:
                    continue
                origin = _absolute(node, _package_of(package, path))
                if origin in self.modules:
                    if self.modules[origin][0].name == "__init__.py":
                        return self.resolve(origin, alias.name,
                                            seen | {package})
                    return origin
        return None

    def used_by(self, name: str) -> set[str]:
        """Modules ``name`` imports, each resolved to its defining module."""
        path, tree = self.modules[name]
        package = _package_of(name, path)
        used: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    used.add(alias.name)
            elif isinstance(node, ast.ImportFrom):
                origin = _absolute(node, package)
                used.add(origin)
                for alias in node.names:
                    target = self.resolve(origin, alias.name)
                    if target:
                        used.add(target)
        return used


def _registers_driver(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for dec in node.decorator_list:
                if isinstance(dec, ast.Name) and dec.id == "register_driver":
                    return True
    return False


def orphans(src_root: Path = SRC, bench_root: Path = BENCH) -> list[str]:
    src = _load(src_root)
    index = _Index({**src, **{f"bench.{k}" if k else "bench": v
                              for k, v in _load(bench_root).items()}})
    used: set[str] = set()
    for name, (path, _) in index.modules.items():
        if path.name != "__init__.py":
            used |= index.used_by(name)
    found = []
    for name, (path, tree) in src.items():
        if path.name in ("__init__.py", "__main__.py"):
            continue
        if name not in used and not _registers_driver(tree):
            found.append(name.removeprefix("repro."))
    return sorted(found)


def test_every_module_is_used_outside_its_own_tests():
    found = orphans()
    assert not found, f"modules nothing in src/ or bench/ uses: {found}"


def test_guard_sees_through_packages_and_ignores_init_imports(tmp_path):
    files = {
        "src/repro/__init__.py": "",
        # the package imports both, but an __init__ import is no use
        "src/repro/pkg/__init__.py":
            "from .used import f\nfrom .orphan import g\n",
        "src/repro/pkg/used.py": "def f():\n    pass\n",
        "src/repro/pkg/orphan.py": "def g():\n    pass\n",
        # uses pkg.used through the name its package re-exports
        "src/repro/app.py": "from repro.pkg import f\n",
        "src/repro/drv.py": "@register_driver\nclass D:\n    pass\n",
        "bench/run.py": "from repro import app\n",
    }
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert orphans(tmp_path / "src", tmp_path / "bench") == ["pkg.orphan"]
