"""Repository hygiene guards.

A stale compiled module is a silent source of wrong behaviour: a
``.pyc`` whose ``.py`` was deleted (or never committed) can keep an old
implementation importable — Python happily loads sourceless bytecode
placed next to real modules, and a leftover ``__pycache__`` entry from a
renamed module survives checkouts on machines that never clean.  These
tests fail the suite the moment either appears under ``src/``.

A dead module is the same problem in source form: code nothing calls
still has to be read, kept importable and refactored around.  Two guards
fail the suite when a module under ``src/repro`` loses its last importer,
or a public function or class its last mention outside ``tests/``.  A
third fails it when a second collective write path appears beside
``RealDriver.write``, a fourth when a second read route appears beside
``Dataset._partition_arrays``.

Committed evidence is the third form: ``results/`` tracks only the small
digest tables, never the reports they were computed from.
"""

from __future__ import annotations

import ast
import collections
import pathlib
import re
import subprocess

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _module_source_exists(pyc: pathlib.Path) -> bool:
    """True when the ``.pyc`` corresponds to a ``.py`` that still exists."""
    if pyc.parent.name == "__pycache__":
        # __pycache__/name.cpython-XY.pyc -> ../name.py
        stem = pyc.name.split(".")[0]
        return (pyc.parent.parent / f"{stem}.py").exists()
    # Sourceless bytecode placed directly next to modules: name.pyc -> name.py
    return pyc.with_suffix(".py").exists()


def test_no_pyc_is_importable_without_source():
    orphans = sorted(
        str(p.relative_to(SRC))
        for p in SRC.rglob("*.pyc")
        if not _module_source_exists(p)
    )
    assert not orphans, (
        "compiled modules without a matching .py source under src/ "
        f"(stale bytecode would shadow real code): {orphans}"
    )


def test_no_sourceless_bytecode_outside_pycache():
    # Even with a matching .py, a .pyc sitting *outside* __pycache__ takes
    # import precedence in sourceless layouts and never invalidates.
    strays = sorted(
        str(p.relative_to(SRC))
        for p in SRC.rglob("*.pyc")
        if p.parent.name != "__pycache__"
    )
    assert not strays, f"bytecode files outside __pycache__ under src/: {strays}"


# ---------------------------------------------------------------------------
# Dead-module guard
# ---------------------------------------------------------------------------

ROOT = SRC.parent
#: Where live code may import ``repro`` from.  ``benchmarks/`` regenerates
#: the paper's figures and ``examples/``/``perfbench/`` drive the package
#: from outside — consumers, unlike ``tests/``, which would keep anything
#: alive just by testing it.
CONSUMER_DIRS = ("src", "examples", "benchmarks", "perfbench")


def _module_name(path: pathlib.Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imports(path: pathlib.Path, package: str) -> list[tuple[str, str | None]]:
    """``(module, name)`` for every import statement in one file (``name``
    is None for plain ``import x.y``; relative imports are resolved)."""
    out: list[tuple[str, str | None]] = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                up = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(up + ([base] if base else []))
            out += [(base, alias.name) for alias in node.names]
    return out


def test_every_module_has_a_live_importer():
    """Every module under ``src/repro`` is imported by some other non-test
    module, or is a declared entry point (a ``__main__`` or a ``setup.py``
    console script).  A package ``__init__`` re-export is not an importer:
    ``from pkg import name`` is credited to the module ``name`` really
    lives in, so a module only its own package re-exports is dead."""
    modules = {_module_name(p): p for p in SRC.rglob("*.py")}
    reexports = {
        name: {n: m for m, n in _imports(path, name) if n is not None}
        for name, path in modules.items()
        if path.name == "__init__.py"
    }

    def origin(module: str, name: str | None) -> str:
        if name is None:
            return module
        if f"{module}.{name}" in modules:
            return f"{module}.{name}"
        source = reexports.get(module, {}).get(name)
        return origin(source, name) if source not in (None, module) else module

    live = set(re.findall(r"=\s*([\w.]+):\w+", (ROOT / "setup.py").read_text(encoding="utf-8")))
    for top in CONSUMER_DIRS:
        for path in (ROOT / top).rglob("*.py"):
            if path.name == "__init__.py":
                continue
            inside = SRC in path.parents
            package = _module_name(path).rpartition(".")[0] if inside else ""
            me = _module_name(path) if inside else None
            live |= {origin(m, n) for m, n in _imports(path, package)} - {me}
    dead = sorted(
        name
        for name, path in modules.items()
        if path.name not in ("__init__.py", "__main__.py") and name not in live
    )
    assert not dead, (
        "modules nothing imports (a re-export from their own package "
        f"__init__ does not count) — delete them or give them a caller: {dead}"
    )


def test_every_public_name_has_a_live_user():
    """The dead-module guard one level down: every public top-level
    ``def``/``class`` of a non-``__init__`` module under ``src/repro`` is
    named somewhere in ``CONSUMER_DIRS`` other than at its own definition
    or in a package ``__init__`` re-export, or carries a decorator
    (a decorated definition counts as used).  A word match, so
    lenient; a name only its own test mentions still fails it."""
    words: collections.Counter[str] = collections.Counter()
    for top in CONSUMER_DIRS:
        for path in (ROOT / top).rglob("*.py"):
            if path.name != "__init__.py":
                words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    defined = [
        (_module_name(path), node.name)
        for path in SRC.rglob("*.py")
        if path.name != "__init__.py"
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not node.decorator_list
    ]
    definitions = collections.Counter(name for _, name in defined)
    dead = sorted(
        f"{module}.{name}" for module, name in defined if words[name] <= definitions[name]
    )
    assert not dead, (
        "public names nothing outside tests/ mentions (their own definition and "
        f"__init__ re-exports do not count) — delete them or give them a caller: {dead}"
    )


def _calls_with_scope(path: pathlib.Path):
    """``(qualname of the enclosing def, call node)`` for every call in one
    file (``""`` at module level; nested defs join with ``.``)."""
    out = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call):
                out.append((scope, child))
            walk(child, scope)

    walk(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def _is_other_run(func: ast.Attribute) -> bool:
    """A ``.run(...)`` call that is provably not ``RealDriver.run``: the
    simulator clock (``env.run()``), ``subprocess.run`` or a method of a
    freshly built object of another class (``SimDriver(...).run``)."""
    receiver = func.value
    if isinstance(receiver, ast.Name):
        return receiver.id in ("env", "subprocess")
    if isinstance(receiver, ast.Attribute):
        return receiver.attr == "env"
    if isinstance(receiver, ast.Call) and isinstance(receiver.func, ast.Name):
        return receiver.func.id != "RealDriver"
    return False


def test_one_collective_write():
    """README's "one write path", checked: the SPMD fan-out
    (``map_ranks``/``run_spmd``) is called only by the MPI layer and by
    ``RealDriver.write``, and ``RealDriver.run`` — the rank body — only by
    ``RealDriver.write``.  Any ``.run(...)`` call this scan
    cannot prove to be something else counts as ``RealDriver.run``."""
    write = "RealDriver.write"
    stray = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        rel = path.relative_to(SRC / "repro").as_posix()
        for scope, call in _calls_with_scope(path):
            func = call.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            in_write = rel == "core/pipeline.py" and (scope == write or scope.startswith(write + "."))
            if name in ("map_ranks", "run_spmd"):
                if not (rel.startswith("mpi/") or in_write):
                    stray.append(f"{rel}::{scope or '<module>'} calls {name}")
            elif name == "run" and isinstance(func, ast.Attribute) and not _is_other_run(func):
                if not in_write:
                    stray.append(f"{rel}::{scope or '<module>'} calls RealDriver.run")
    assert not stray, f"a second collective write path — route it through {write}: {stray}"


def test_one_read_route():
    """README's "one read route", checked: ``FilterPipeline.invert_many``,
    the one call into ``SZCompressor.decompress_many`` for stored chunks, is
    called only by ``hdf5.Dataset._partition_arrays``, and
    ``huffman_decode_many`` only by ``compression/sz.py`` and by
    ``huffman_decode`` — a second decode loop anywhere else fails it."""
    allowed = {
        "invert_many": [("hdf5/dataset.py", "Dataset._partition_arrays")],
        "decompress_many": [
            ("hdf5/filters.py", "FilterPipeline.invert_many"),
            ("compression/sz.py", "SZCompressor.decompress"),
        ],
        "huffman_decode_many": [
            ("compression/sz.py", ""),
            ("compression/huffman.py", "huffman_decode"),
        ],
    }
    stray = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        rel = path.relative_to(SRC / "repro").as_posix()
        for scope, call in _calls_with_scope(path):
            func = call.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in allowed and not any(
                rel == where and (scope + ".").startswith(owner + "." if owner else "")
                for where, owner in allowed[name]
            ):
                stray.append(f"{rel}::{scope or '<module>'} calls {name}")
    assert not stray, f"a second read route — decode through Dataset._partition_arrays: {stray}"


def test_results_tracks_only_digest_tables():
    """``results/`` is ignored except ``VERIFY_DIGESTS_*.txt``; a 168 KB
    ``VERIFY_*.json`` or a bench artifact only gets in by ``git add -f``."""
    try:
        tracked = subprocess.run(
            ["git", "-C", str(ROOT), "ls-files", "results"],
            capture_output=True, text=True, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        pytest.skip("not a git checkout")
    stray = [p for p in tracked if not re.fullmatch(r"results/VERIFY_DIGESTS_.+\.txt", p)]
    assert not stray, f"only digest tables are committed under results/: {stray}"


# ---------------------------------------------------------------------------
# Docstring cross-references
# ---------------------------------------------------------------------------

#: A Sphinx cross-reference role; its text is ``target`` or ``text <target>``.
_XREF = re.compile(r":(?:class|func|meth|attr|mod):`([^`]*)`")


def _resolves(target: str) -> bool:
    """Import the longest module prefix of ``target``, then look the rest
    up attribute by attribute (a dataclass field counts as an attribute)."""
    import importlib

    parts = target.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            fields = getattr(obj, "__dataclass_fields__", {})
            if name in fields and not hasattr(obj, name):
                obj = fields[name]
                continue
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


def test_docstring_cross_references_resolve():
    """Every ``:class:``/``:func:``/``:meth:``/``:attr:``/``:mod:`` role
    naming ``repro.*`` in ``src/`` — docstrings and ``#:`` doc comments,
    ``~``-shortened or in the ``text <target>`` form — names something
    that imports, so deleting a class cannot leave its docs pointing at it."""
    refs = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        for match in _XREF.finditer(path.read_text(encoding="utf-8")):
            text = match.group(1)
            explicit = re.search(r"<([^>]*)>\s*$", text)
            # A target wrapped across docstring lines is one dotted name.
            target = re.sub(r"\s+", "", explicit.group(1) if explicit else text).lstrip("~!")
            if target.startswith("repro."):
                refs.append((path.relative_to(SRC).as_posix(), target))
    assert len(refs) > 100  # the scan itself still finds the references
    dangling = sorted({f"{where}: {target}" for where, target in refs if not _resolves(target)})
    assert not dangling, f"docstring references to names that do not exist: {dangling}"


#: A markdown file named in source: a repo-relative path or a bare name.
_MD_REF = re.compile(r"[\w./-]*\w\.md\b")


def test_docstring_file_references_exist():
    """Every ``*.md`` file named in ``src/`` — docstrings and comments —
    exists in the repository (a path counts from the repository root; a
    bare name may live in any directory), so no doc points at a file that
    was never written or has been deleted."""
    known = {
        p.relative_to(ROOT).as_posix()
        for p in ROOT.rglob("*.md")
        if ".git" not in p.relative_to(ROOT).parts
    }
    basenames = {k.rsplit("/", 1)[-1] for k in known}
    missing = sorted(
        f"{path.relative_to(SRC).as_posix()}: {ref}"
        for path in (SRC / "repro").rglob("*.py")
        for ref in _MD_REF.findall(path.read_text(encoding="utf-8"))
        if ref not in known and ("/" in ref or ref not in basenames)
    )
    assert not missing, f"source names markdown files that do not exist: {missing}"
