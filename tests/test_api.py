"""Public-surface tests: every exported name resolves, every attribute the
perfbench span tracer patches exists, so a deletion that would break
``perfbench/run.py --trace 1`` fails here first, and the package imports
nothing beyond the standard library and numpy."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import unipol
import unipol.bench
import unipol.cli
import unipol.io

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

SUBMODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(unipol.__path__) if name != "__main__"
)


def test_package_all_resolves():
    missing = [name for name in unipol.__all__ if not hasattr(unipol, name)]
    assert not missing, missing


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_resolves(name):
    module = importlib.import_module(f"unipol.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, missing


def test_span_tracer_patch_targets_exist():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)

    tracer = spans.Tracer()
    try:
        spans.install(tracer, unipol)  # getattr on a missing target raises here
        patched = list(tracer._undo)
    finally:
        tracer.uninstall()
    assert patched
    for owner, key, original, is_dict in patched:
        current = owner[key] if is_dict else getattr(owner, key)
        assert current is original, key


def test_no_dependency_beyond_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "unipol"}
    imported = set()
    for path in Path(unipol.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert "numpy" in imported  # the walk saw the imports
    assert imported <= allowed, sorted(imported - allowed)


USER_API = {
    "SolverConfig", "RunTrace", "UnimodularSequence", "run", "can_run", "init_random",
    "generate", "FAMILIES", "BARKER_CODES",
    "autocorrelation", "isl_time", "isl_freq", "psl", "merit_factor", "sidelobe_db",
}


@pytest.mark.parametrize(
    "module, name",
    [("surrogate", "ab_all_direct"), ("surrogate", "ab_all_fast"), ("surrogate", "surrogate_value"),
     ("metrics", "isl_quartic"), ("metrics", "spectrum_2n"), ("quartic", "minimize_batch"),
     ("solver", "unipol_step")],
)
def test_kernels_live_in_their_modules(module, name):
    assert name in importlib.import_module(f"unipol.{module}").__all__
    assert not hasattr(unipol, name)


def test_one_kernel_entry_and_one_step_signature():
    """The MM step is unipol_step(xt) into minimize_batch(a, b), quartic's one
    entry, and no module but surrogate, its home, names the ab_all_direct oracle."""
    quartic = importlib.import_module("unipol.quartic")
    solver = importlib.import_module("unipol.solver")
    assert quartic.__all__ == ["minimize_batch"]
    assert len(inspect.signature(solver.unipol_step).parameters) == 1
    assert len(inspect.signature(quartic.minimize_batch).parameters) == 2
    referring = sorted(
        path.stem
        for path in Path(unipol.__file__).parent.glob("*.py")
        if any(
            getattr(node, field, None) == "ab_all_direct"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            for field in ("id", "attr", "name", "value")  # Name, Attribute, alias and def, Constant
        )
    )
    assert referring == ["surrogate"]  # the walk sees the definition itself


def test_package_root_is_the_user_api():
    assert sorted(unipol.__all__) == sorted(USER_API)


@pytest.mark.parametrize("call, home", [("fft", "metrics.spectrum_2n"), ("angle", "metrics.phase_of")])
def test_forward_transform_has_one_home(call, home):
    """np.fft.fft is called only inside metrics.spectrum_2n, the zero-padded
    2N-point spectrum, and np.angle only inside metrics.phase_of, the phase fold."""
    sites = []
    for path in sorted(Path(unipol.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for func in ast.walk(tree):  # breadth first, so a nested function claims its own body
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, func.name) for node in ast.walk(func))
        sites += [
            f"{path.stem}.{owner.get(node, '<module>')}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == call
        ]
    assert sites == [home]


def test_exit_codes_are_set_in_main_alone():
    """No cmd_* function in cli.py catches an exception; main maps every error to its exit code."""
    tree = ast.parse(Path(unipol.cli.__file__).read_text(encoding="utf-8"))
    commands = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    assert len(commands) == 4  # design, metrics, generate, bench
    catching = [
        func.name
        for func in commands
        for node in ast.walk(func)
        if type(node).__name__ in ("Try", "TryStar")
    ]
    assert catching == []
