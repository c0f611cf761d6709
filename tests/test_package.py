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
        (ico_hbac.TransferMatrix, ("entries",)),
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
    """Every name the module loads, reads as an attribute, or imports.

    An attribute chain rooted at a name that a plain ``import`` binds
    (``np.bitwise_or.reduce``, ``math.inf``) reads that library, not this
    package, so its attributes do not count.
    """
    libraries = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if not (isinstance(root, ast.Name) and root.id in libraries):
                yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}


def test_every_private_module_name_is_read():
    trees = _trees()
    read = {name for tree in trees.values() for name in _names_read(tree)}
    unread = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in read
    ]
    assert unread == []


def _public_definitions(tree: ast.Module):
    """``(label, name)`` of every public top-level function or class, and of
    every public method or property of a top-level class (``Class.name``)."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if not isinstance(node, (*functions, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, functions) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member.name


# public names that no program code reads, each kept for a reason
_KEPT_UNREAD = {
    "cli.py:_Parser.error": "argparse calls it",
    "hbac_core.py:iterate": "acceptance criterion 1 reproduces the fixed point with it",
    "oracle.py:CompareReport.max_abs_deviation": "acceptance criterion 3 reads it",
    "oracle.py:conjugate": "dense oracle reference",
    "oracle.py:dense_from_diagonal": "dense oracle reference",
    "oracle.py:dense_reset": "dense oracle reference",
    "oracle.py:density_defects": "dense oracle reference",
    "oracle.py:unitarity_defect": "dense oracle reference",
    "register.py:reduce": (
        "tests compare _minus_step and the cooling round against the validated "
        "reset -> switch -> reduce path"
    ),
}


def test_every_public_name_is_read():
    # API surface only tests reach is deleted with its tests, unless kept above;
    # re-exports in __init__.py do not count as a read
    trees = _trees()
    read = {
        name
        for module, tree in trees.items()
        if module != "__init__.py"
        for name in _names_read(tree)
    }
    unread = [
        f"{module}:{label}"
        for module, tree in trees.items()
        for label, name in _public_definitions(tree)
        if name not in read
    ]
    assert sorted(unread) == sorted(_KEPT_UNREAD)


def _scheme_name_comparisons(tree: ast.Module):
    """Line of every comparison one of whose operands, or an element of a
    literal tuple, list or set operand, is a scheme-name constant, a scheme
    name or a ``.scheme`` attribute."""
    constants = {"HBAC", "HBAC_ICO", "ICO_ALONE", "ICO_TREE_SORT", "HBAC_KICO", "BATH_SCHEMES"}

    def names_a_scheme(part: ast.AST) -> bool:
        return (
            (isinstance(part, ast.Name) and part.id in constants)
            or (isinstance(part, ast.Attribute) and part.attr == "scheme")
            or (isinstance(part, ast.Constant) and part.value in ico_hbac.SCHEMES)
        )

    literals = (ast.Tuple, ast.List, ast.Set)
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and any(
            names_a_scheme(part)
            for operand in (node.left, *node.comparators)
            for part in (operand.elts if isinstance(operand, literals) else [operand])
        ):
            yield node.lineno


def test_no_module_compares_a_scheme_name():
    # what a scheme does is its record in schemes, which every module reads,
    # so a new fact is added in one place.  The one exception is the
    # hbac-ico / hbac-kico split in success_probability: nine rewrites of it
    # onto the record each raised tree-sort-json's peak RSS by 0.08-0.15 MB
    # when compiled from source, and not with bytecode caches (ROADMAP N)
    schemes = _trees()["schemes.py"]
    law = next(
        node
        for node in schemes.body
        if isinstance(node, ast.FunctionDef) and node.name == "success_probability"
    )
    (split,) = [
        node.lineno
        for node in ast.walk(law)
        if isinstance(node, ast.Compare)
        and isinstance(node.comparators[0], ast.Name)
        and node.comparators[0].id == "HBAC_ICO"
    ]
    compared = [
        f"{module}:{line}"
        for module, tree in _trees().items()
        for line in sorted(set(_scheme_name_comparisons(tree)))
    ]
    assert compared == [f"schemes.py:{split}"]


_SMALL_RUN = "--scheme hbac-ico --n 3 --eps 0.5"


@pytest.mark.parametrize(
    "argv,loaded",
    [
        ("table1 --n 3 --eps 0.5", set()),
        (f"run {_SMALL_RUN}", set()),
        ("fixed-point --n 3 --eps 0.5", set()),
        (f"sample {_SMALL_RUN} --trials 5 --seed 1", {"sampling", "philox"}),
        ("table1 --n 3 --eps 0.5 --format json", {"jsontext"}),
        (f"run {_SMALL_RUN} --format json", {"jsontext"}),
        ("fixed-point --n 3 --eps 0.5 --format json", {"jsontext"}),
        (
            f"sample {_SMALL_RUN} --trials 5 --seed 1 --format json",
            {"jsontext", "sampling", "philox"},
        ),
        ("validate --nmax 1 --trials 2", {"oracle", "philox"}),
    ],
)
def test_each_command_loads_only_the_modules_it_runs(run_probe, argv, loaded):
    # a command compiles every module it imports, so the validate battery
    # (oracle), the JSON encoder (jsontext), the attempt chain (sampling) and
    # its Philox kernel (philox) load only where they run
    probe = (
        "import os, sys, ico_hbac.cli as cli\n"
        f"code = cli.main({argv.split()!r} + ['--output', os.devnull])\n"
        "print(code, sorted(name for name in ('oracle', 'jsontext', 'sampling', 'philox') "
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
