"""Repository guards: the demos run, the engine holds no `assert`, raises
only its own errors and imports neither `dataclasses` nor `typing`, a cold
start imports only what its subcommand uses, and importing the engine
builds no `Poly`."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import hurwitzcalc
from hurwitzcalc import errors

PACKAGE = Path(hurwitzcalc.__file__).resolve().parent
DEMOS = sorted((PACKAGE.parents[1] / "demos").glob("*.py"))


def test_four_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, engine_env):
    result = subprocess.run([sys.executable, str(demo)],
                            env=engine_env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_assert_in_the_engine(module):
    # `python -O` strips asserts; every derivation check is a `require`
    tree = ast.parse(module.read_text(), filename=str(module))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"assert at {module.name} lines {lines}"


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_raise_in_the_engine_is_an_engine_error(module):
    # so the CLI's one `except EngineError` reports every domain failure;
    # AttributeError is the attribute protocol, which records and the
    # package's lazy names follow
    tree = ast.parse(module.read_text(), filename=str(module))
    raised = {node.lineno: node.exc.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
              and isinstance(node.exc.func, ast.Name)}
    foreign = {line: name for line, name in raised.items() if name != "AttributeError"
               and not issubclass(getattr(errors, name, type), errors.EngineError)}
    assert not foreign, f"{module.name} raises {foreign}"


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_dataclasses_or_typing_in_the_engine(module):
    # both cost a cold start their import; records derive from errors.Record
    tree = ast.parse(module.read_text(), filename=str(module))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert not {name.split(".")[0] for name in imported} & {"dataclasses", "typing"}


# the package's names: its exports plus the engine submodules it binds
PACKAGE_NAMES = [
    "Certificate", "ChernData", "ChowClass", "ChowPresentation", "CoverInvariants",
    "DirectrixFamily", "DivisorClass", "DualGraph", "FamilyInvariants",
    "InequalityRule", "PencilRecord", "Poly", "Rational", "RationalFunction",
    "SplittingType", "balanced_type", "basechange_section_bookkeeping", "bogomolov",
    "boundary_multiplicity", "build_rules", "bundles", "c2_omega_tetragonal_surface",
    "canonical_label", "ce_class", "ceil_div", "certify", "check_closed_form_d4",
    "chow", "class_x", "directrix", "divisor_classes", "divisorial_conditions",
    "enumerate_two_vertex", "errors", "excess", "ext1_dim", "family_calc",
    "generic_tame", "graphs", "grr_degree_on_p1xp1", "invariants_from_chern",
    "is_balanced", "is_tame", "maroni_class", "maroni_codimension",
    "maroni_intersection_pentagonal", "partial_pencil_record",
    "pencil_delta_on_surface", "pentagonal_pencil_numbers", "pushforward_c1_power",
    "ramification_index", "rational_and_elliptic_tables", "ring_grassmann_bundle_g25",
    "ring_hirzebruch", "ring_p1xp1", "ring_product_with_p1", "ring_proj_bundle_over_p1",
    "ring_proj_space", "rotating_directrix_class", "slope_bound", "symkernel",
    "syzygy_rank", "validate", "yeff"]

# run a CLI call (or none) in a fresh interpreter, then print on a last
# line every module it has loaded
LOADED = (
    "import json, sys\n"
    "import hurwitzcalc.cli\n"
    "code = hurwitzcalc.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
    "print(json.dumps(sorted(sys.modules)))\n"
    "raise SystemExit(code)\n")


def modules_after(engine_env, *argv):
    result = subprocess.run([sys.executable, "-c", LOADED, *argv], env=engine_env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


def loaded_modules(engine_env, *argv):
    """The engine modules a CLI call loads."""
    return {name.split(".")[1] for name in modules_after(engine_env, *argv)
            if name.startswith("hurwitzcalc.")}


def test_cli_import_loads_no_engine_module(engine_env):
    assert loaded_modules(engine_env) == {"cli", "errors"}


def test_chow_eval_loads_only_chow(engine_env):
    assert loaded_modules(engine_env, "chow", "eval", "p1xp1", "Rs*Rt") == \
        {"cli", "chow", "symkernel", "errors"}


def test_graphs_enum_loads_no_chow(engine_env):
    loaded = loaded_modules(engine_env, "graphs", "enum", "--d", "3", "--g", "4")
    assert "graphs" in loaded and not loaded & {"chow", "family_calc"}


def test_slope_loads_no_pencil_or_certificate_module(engine_env):
    loaded = loaded_modules(engine_env, "slope", "3", "4")
    assert "divisor_classes" in loaded and not loaded & {"family_calc", "yeff"}


@pytest.fixture(scope="module")
def preloaded(engine_env):
    """The modules a bare interpreter loads (through `site`, for instance)
    before any engine code runs."""
    script = "import json, sys; print(json.dumps(list(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", script], env=engine_env,
                            capture_output=True, text=True, timeout=60)
    return set(json.loads(result.stdout))


@pytest.mark.parametrize("argv", [
    ("yeff", "certify", "--d", "3", "--g", "12", "--json"),
    ("selftest",),
    ("pencil", "pentagonal_basechange", "--gr", "16", "--g", "36"),
    ("invariants", "--d", "4", "--g", "9", "--ch2e", "1", "--ch2f", "1", "--c1sq", "1"),
    ("slope", "3", "4"),
    ("graphs", "enum", "--d", "3", "--g", "4"),
], ids=lambda argv: argv[0])
def test_cli_calls_load_no_dataclasses_or_inspect(engine_env, preloaded, argv):
    assert not modules_after(engine_env, *argv) & ({"dataclasses", "inspect"} - preloaded)


def test_package_names_resolve(engine_env):
    script = (
        "import json, hurwitzcalc\n"
        "public = [n for n in dir(hurwitzcalc) if not n.startswith('_')]\n"
        "missing = [n for n in hurwitzcalc.__all__ if getattr(hurwitzcalc, n, None) is None]\n"
        "unknown = hasattr(hurwitzcalc, 'no_such_name')\n"
        "print(json.dumps([sorted(hurwitzcalc.__all__), public, missing, unknown]))\n")
    result = subprocess.run([sys.executable, "-c", script], env=engine_env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    names, public, missing, unknown = json.loads(result.stdout)
    assert names == PACKAGE_NAMES and public == PACKAGE_NAMES
    assert not missing and not unknown


def test_import_builds_no_poly(objects_built):
    # kernel work at import time is paid by every cold CLI call
    others = sorted(path.stem for path in PACKAGE.glob("*.py")
                    if path.stem not in ("__init__", "symkernel"))
    assert len(others) == 10
    code = "".join(f"import hurwitzcalc.{name}\n" for name in others)
    assert objects_built(code)["Poly"] == 0
