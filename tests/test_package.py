"""Package hygiene: the public export list and every module's imports."""

import ast
import dataclasses
import tracemalloc
from pathlib import Path

import pytest

import ico_hbac
from ico_hbac import oracle

MODULES = sorted(Path(ico_hbac.__file__).parent.glob("*.py"))


def test_exports_resolve_sorted_and_unique():
    names = ico_hbac.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(ico_hbac, name)] == []


@pytest.mark.parametrize("name", ["DiagonalState", "ReducedState"])
def test_state_kinds_bind_their_own_post_init(name):
    # bench/tracer.py wraps the __post_init__ in each state class's own namespace;
    # one only inherited would go unrecorded in the register.* span metrics
    assert "__post_init__" in vars(getattr(ico_hbac, name))


@pytest.mark.parametrize(
    "cls,names",
    [
        (ico_hbac.DiagonalState, ("populations", "norm")),
        (ico_hbac.ReducedState, ("populations", "norm")),
        (ico_hbac.TransferMatrix, ("entries", "kind")),
        (ico_hbac.ThermalParams, ("epsilon",)),
        (oracle.CompareReport, ("max_offdiagonal", "by_case")),
    ],
)
def test_value_objects_store_only_what_their_data_cannot_give(cls, names):
    # n is read off a length or shape, z off epsilon, the worst deviation off
    # by_case: none is a field that could disagree with its source
    assert tuple(field.name for field in dataclasses.fields(cls)) == names
    assert not hasattr(cls, "from_vector")


def _top_level_imports(tree: ast.Module):
    """Every name bound by an import statement in the module body."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


# a command compiles each module it imports from source when no bytecode cache
# is written (PYTHONDONTWRITEBYTECODE), so its peak RSS grows with the largest
# syntax tree compiled
COMPILE_PEAK_MIB = 2.0


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_compile_peak_stays_bounded(path):
    source = path.read_text()
    tracemalloc.start()
    try:
        compile(source, str(path), "exec")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= COMPILE_PEAK_MIB * 2**20, (
        f"compiling {path.name} peaks at {peak / 2**20:.3f} MiB, above {COMPILE_PEAK_MIB} MiB: "
        "see ROADMAP item K and README's module map ('What is implemented'), and move the "
        "code that only some commands run into a module that only they import"
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_top_level_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    assert [name for name in _top_level_imports(tree) if name not in used] == []


def _private_definitions(tree: ast.Module):
    """Every ``_``-prefixed, non-dunder name a module binds at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def _names_read(tree: ast.Module):
    """Every name the module loads, reads as an attribute, or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_private_module_name_is_read():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
    read = {name for tree in trees.values() for name in _names_read(tree)}
    unread = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in read
    ]
    assert unread == []


_SMALL_RUN = "--scheme hbac-ico --n 3 --eps 0.5"


@pytest.mark.parametrize(
    "argv,loaded",
    [
        ("table1 --n 3 --eps 0.5", set()),
        (f"run {_SMALL_RUN}", set()),
        ("fixed-point --n 3 --eps 0.5", set()),
        (f"sample {_SMALL_RUN} --trials 5 --seed 1", {"sampling"}),
        ("table1 --n 3 --eps 0.5 --format json", {"jsontext"}),
        (f"run {_SMALL_RUN} --format json", {"jsontext"}),
        ("fixed-point --n 3 --eps 0.5 --format json", {"jsontext"}),
        (f"sample {_SMALL_RUN} --trials 5 --seed 1 --format json", {"jsontext", "sampling"}),
        ("validate --nmax 1 --trials 2", {"oracle", "sampling"}),
    ],
)
def test_each_command_loads_only_the_modules_it_runs(run_probe, argv, loaded):
    # a command compiles every module it imports, so the validate battery
    # (oracle), the JSON encoder (jsontext) and the attempt chain with its
    # draws (sampling) load only where they run
    probe = (
        "import os, sys, ico_hbac.cli as cli\n"
        f"code = cli.main({argv.split()!r} + ['--output', os.devnull])\n"
        "print(code, sorted(name for name in ('oracle', 'jsontext', 'sampling') "
        "if 'ico_hbac.' + name in sys.modules))\n"
    )
    assert run_probe(probe).splitlines()[-1] == f"0 {sorted(loaded)}"


def test_importing_the_traced_modules_loads_no_sampling(run_probe):
    # bench/tracer.py imports these six and rebinds their public functions;
    # sampling, imported only when a command runs it, then binds the wrappers
    modules = ("register", "hbac_core", "switch", "schemes", "oracle", "cli")
    probe = (
        "import importlib, sys\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module('ico_hbac.' + name)\n"
        "print('ico_hbac.sampling' in sys.modules)\n"
    )
    assert run_probe(probe).splitlines()[-1] == "False"
