import ast
import dataclasses
import os
import shutil
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_does_not_load_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    subprocess.run(
        [sys.executable, "-c",
         "import dipolekit, sys; assert 'scipy' not in sys.modules"],
        env=env, check=True, timeout=120)


def test_import_does_not_load_numpy_polynomial():
    # mom holds its 16- and 8-point Gauss-Legendre rules as correctly
    # rounded literals (_X8/_W8, _X4/_W4), not numpy.polynomial's leggauss
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    subprocess.run(
        [sys.executable, "-c",
         "import dipolekit, sys; assert 'numpy.polynomial' not in sys.modules"],
        env=env, check=True, timeout=120)


def test_bundled_catalog_is_found_under_another_package_name(tmp_path):
    # the catalog is found through the package itself, so a copy imported
    # as dk_other reads its own data and never imports dipolekit
    shutil.copytree(SRC / "dipolekit", tmp_path / "dk_other",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    out = subprocess.run(
        [sys.executable, "-c",
         "import dk_other, sys; names = sorted(dk_other.load_substrates()); "
         "assert 'dipolekit' not in sys.modules; print(','.join(names))"],
        env=env, check=True, timeout=120, capture_output=True, text=True)
    assert out.stdout.split() == ["arlon_ad300,fr4,fr4_h2.08,rogers_rt5880"]


def test_package_exports_the_one_solve_path():
    # the Toeplitz column and the mesh it pairs with stay inside mom
    import dipolekit
    assert hasattr(dipolekit, "solve_at")
    assert hasattr(dipolekit, "solve_band")
    assert not hasattr(dipolekit, "assemble_system")
    assert not hasattr(dipolekit, "solve_current")


def test_import_does_not_load_the_cli():
    # the CLI parser is built on first use, not by `import dipolekit`
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import dipolekit, sys; print('\\n'.join(sys.modules))"],
        env=env, check=True, timeout=120, capture_output=True,
        text=True).stdout.split()
    assert "dipolekit" in loaded
    assert "argparse" not in loaded
    assert "dipolekit.cli" not in loaded


def test_no_module_imports_a_private_name_of_another():
    # what one module uses of another is that module's public API
    found = []
    for path in sorted((SRC / "dipolekit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").startswith(
                "dipolekit")
            found += ["%s:%d imports %s" % (path.name, node.lineno, a.name)
                      for a in node.names
                      if internal and a.name.startswith("_")]
    assert found == []


def _functions_that(calls) -> set[str]:
    """`module.function` (or `module.<module>`) of every call in src/ that
    `calls(node)` accepts."""
    found = set()
    for path in sorted((SRC / "dipolekit").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        scope = {}
        for fn in ast.walk(tree):   # outer functions first, so inner win
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    scope[node] = fn.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and calls(node):
                found.add("%s.%s" % (path.stem, scope.get(node, "<module>")))
    return found


def test_only_the_fold_views_a_buffer_as_an_array():
    # np.ndarray(shape, dtype, buffer, ...) reads one array through another's
    # memory: _fold's Toeplitz and Hankel views of the column's ramp
    def views_a_buffer(node):
        return (isinstance(node.func, ast.Attribute)
                and node.func.attr == "ndarray"
                and (len(node.args) >= 3
                     or any(k.arg == "buffer" for k in node.keywords)))
    assert _functions_that(views_a_buffer) == {"mom._fold"}


def test_one_function_builds_a_substrate_from_text():
    # the catalog's lines and the CLI's inline pairs share one reader
    def builds_a_substrate(node):
        func = node.func
        return getattr(func, "id", getattr(func, "attr", None)) == "Substrate"
    assert _functions_that(builds_a_substrate) == {"design.parse_substrate"}


def test_every_input_field_is_read_outside_its_class():
    # a field the library accepts changes a result or goes away: each one
    # is read as an attribute somewhere in src/ beyond its own class body
    from dipolekit.design import DipoleGeometry, Substrate
    from dipolekit.mom import SegmentMesh, WireModel
    classes = (Substrate, DipoleGeometry, WireModel, SegmentMesh)
    read = {cls.__name__: set() for cls in classes}
    for path in sorted((SRC / "dipolekit").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {}
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name in read:
                for node in ast.walk(cls):
                    owner[node] = cls.name
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)):
                for name, names in read.items():
                    if owner.get(node) != name:
                        names.add(node.attr)
    unread = ["%s.%s" % (cls.__name__, f.name) for cls in classes
              for f in dataclasses.fields(cls)
              if f.name not in read[cls.__name__]]
    assert unread == []


def test_no_function_computes_a_condition_number():
    # the condition guard has one verdict, _certified's proof: no SVD or
    # np.linalg.cond decides a solve
    def svd_or_cond(node):
        func = node.func
        return getattr(func, "id", getattr(func, "attr", None)) in ("svd",
                                                                    "cond")
    assert _functions_that(svd_or_cond) == set()


def test_one_function_reduces_a_geometry_to_a_wire():
    # geometry_model checks the design-rule restrictions, so it stays the
    # one way from a geometry to a WireModel
    def builds_a_wire(node):
        func = node.func
        return getattr(func, "id", getattr(func, "attr", None)) == "WireModel"
    assert _functions_that(builds_a_wire) == {"mom.geometry_model"}


def test_one_function_makes_a_sweep_result():
    # solve_band holds the one per-frequency loop over a band; sweep and the
    # study rows reach it with the mesh and grid they built
    def builds_a_sweep_result(node):
        func = node.func
        return getattr(func, "id", getattr(func, "attr", None)) == "SweepResult"
    assert _functions_that(builds_a_sweep_result) == {"mom.solve_band"}


def test_one_function_makes_a_current():
    # solve_at holds the frequency it solved at, so a current carries its
    # own f and no caller can pair it with another one
    def builds_a_current(node):
        func = node.func
        return getattr(func, "id", getattr(func, "attr", None)) \
            == "CurrentDistribution"
    assert _functions_that(builds_a_current) == {"mom.solve_at"}


def test_no_module_reads_the_environment():
    # what a run reads is named by its arguments, not by os.environ
    found = []
    for path in sorted((SRC / "dipolekit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names]
            else:
                continue
            found += ["%s:%d %s" % (path.name, node.lineno, name)
                      for name in names if name in ("environ", "getenv")]
    assert found == []
