"""Static checks of the package sources that need no external linter."""

import ast
import dataclasses
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def unused_imports(path: Path) -> list:
    """(line, name) of each module-level import whose bound name the module
    never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_unused_imports_detected(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from __future__ import annotations\n"
                      "import os.path\nimport numpy as np\nfrom json import dumps, loads\n"
                      "x = np.zeros(1)\ny = loads\n", encoding="utf-8")
    assert unused_imports(module) == [(2, "os"), (4, "dumps")]


def test_no_unused_module_level_imports():
    # package __init__ modules import to re-export
    found = [f"{path.relative_to(SRC)}:{line} {name}"
             for path in sorted(SRC.rglob("*.py")) if path.name != "__init__.py"
             for line, name in unused_imports(path)]
    assert found == []


STACKING = ("stack_grids", "mortar_group", "MortarGroup")


def named_calls(path: Path, names) -> list:
    """(line, name) of each call in a module of a function, class or method
    named in ``names``, by its bare or its attribute name."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                found.append((node.lineno, name))
    return sorted(found)


def test_stacking_calls_detected(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from mdthm import mdmesh\nfrom mdthm.mdmesh.mortar import MortarGroup, mortar_group\n"
        "g = mdmesh.stack_grids(1, [])\nm = mortar_group([], g, g)\n"
        "k = MortarGroup\nc = MortarGroup(**{})\nstack_grids = None\n", encoding="utf-8")
    assert named_calls(module, STACKING) == [(3, "stack_grids"), (4, "mortar_group"),
                                             (6, "MortarGroup")]


def test_mesh_is_stacked_only_in_mdmesh():
    # the per-dimension grids and mortar groups are built once, in mdmesh;
    # every other layer reads mdg.grids and mdg.mortars
    mdmesh = SRC / "mdthm" / "mdmesh"
    found = [f"{path.relative_to(SRC)}:{line} {name}"
             for path in sorted(SRC.rglob("*.py")) if mdmesh not in path.parents
             for line, name in named_calls(path, STACKING)]
    assert found == []


STUDY_FIELD_SOURCES = ("cells", "mortar", "jumps", "fracture_state", "aperture")


def test_study_field_sources_detected(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "u = x[dofs.cells(2, 'u')]\nnu = x[asm.dofs.mortar(1, 'nu')]\njump = asm.jumps(x)\n"
        "frac = asm.fracture_state(x, x)\na = aperture(jn, jt, model, mat)\n"
        "f = snapshot_fields(asm, x, x)\ng = f[1]['aperture']\n", encoding="utf-8")
    assert named_calls(module, STUDY_FIELD_SOURCES) == [
        (1, "cells"), (2, "mortar"), (3, "jumps"), (4, "fracture_state"), (5, "aperture")]


def test_studies_read_the_field_table():
    # the convergence study and the dilation comparison read their fields
    # from output.snapshot_fields, the table the VTK snapshots are written
    # from, and evaluate none themselves
    drivers = SRC / "mdthm" / "scenarios" / "drivers.py"
    assert named_calls(drivers, STUDY_FIELD_SOURCES) == []


FLOAT_FORMATTERS = ("format_float_scientific", "format_float_positional")
FILE_TEXT_CALLS = FLOAT_FORMATTERS + ("repr", "str", "format", "savetxt", "write", "writelines")


def test_number_formatting_detected(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import numpy as np\nf = np.format_float_scientific\ns = f(1.0, precision=17)\n"
        "fh.write(repr(0.1) + '\\n')\nnp.savetxt(path, x)\ntext = str(3)\n"
        "writer.write_snapshot(fields)\n", encoding="utf-8")
    assert "format_float_scientific" in references(module)
    assert named_calls(module, FILE_TEXT_CALLS) == [(4, "repr"), (4, "write"), (5, "savetxt"),
                                                    (6, "str")]


def test_numbers_are_formatted_by_the_output_writers():
    # output's two array formatters write every number of a run file: no
    # module formats floats one call each, and the study drivers hand their
    # tables to output.write_csv (and their summaries to json)
    found = [f"{path.relative_to(SRC)} {name}" for path in sorted(SRC.rglob("*.py"))
             for name in FLOAT_FORMATTERS if name in references(path)]
    assert found == []
    drivers = SRC / "mdthm" / "scenarios" / "drivers.py"
    assert named_calls(drivers, FILE_TEXT_CALLS) == []


LOCAL_SOLVERS = ("invert_block_diagonal", "least_squares_block_solve")


def test_local_solver_calls_detected(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from mdthm.fvm import local\nfrom mdthm.fvm.local import invert_block_diagonal\n"
        "a = invert_block_diagonal(0, 1, 2, ())\nb = local.least_squares_block_solve(0, 1, 2, ())\n"
        "c = systems.solve(invert_block_diagonal)\nleast_squares_block_solve = None\n",
        encoding="utf-8")
    # handing a solver over is not a call of it
    assert named_calls(module, LOCAL_SOLVERS) == [(3, "invert_block_diagonal"),
                                                  (4, "least_squares_block_solve")]


def test_local_systems_are_solved_only_in_fvm_local():
    # MPFA and MPSA hand their solver to LocalSystems.solve, which gathers,
    # inverts and applies the local inverse in one place
    local = SRC / "mdthm" / "fvm" / "local.py"
    found = [f"{path.relative_to(SRC)}:{line} {name}"
             for path in sorted(SRC.rglob("*.py")) if path != local
             for line, name in named_calls(path, LOCAL_SOLVERS)]
    assert found == []


DOF_BLOCK_CALLS = ("sd", "block", "blocks")


def dof_block_calls(path: Path) -> list:
    """(line, name) of each call of a method that reads the unknowns by
    subdomain or interface: ``sd``, ``block`` or ``blocks``."""
    return sorted((node.lineno, node.func.attr)
                  for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in DOF_BLOCK_CALLS)


def test_dof_block_calls_detected(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "x = dofs.sd(0, 'p')\ny = self.dofs.block('sd', 0, 'u')\n"
        "for key, sl in dofs.blocks():\n    pass\n"
        "sd = block = blocks = dofs.blocks\nz = dofs.cells(2, 'p')[sd(1)]\n", encoding="utf-8")
    assert dof_block_calls(module) == [(1, "sd"), (2, "block"), (3, "blocks")]


def test_dofs_are_read_per_dimension():
    # only system/dofs.py knows how the unknowns are numbered; every other
    # module reads DofMap.cells, DofMap.mortar and DofMap.variable, so that
    # renumbering the unknowns touches that module alone
    dofs = SRC / "mdthm" / "system" / "dofs.py"
    found = [f"{path.relative_to(SRC)}:{line} {name}"
             for path in sorted(SRC.rglob("*.py")) if path != dofs
             for line, name in dof_block_calls(path)]
    assert found == []


def splu_imports(path: Path) -> list:
    """Line of each import that binds ``splu`` by name."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ImportFrom) and any(a.name == "splu" for a in node.names)]


def test_splu_imports_detected(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import scipy.sparse.linalg as spla\nfrom scipy.sparse.linalg import splu\n"
                      "from scipy.sparse.linalg import gmres, splu as lu\nlu = spla.splu\n",
                      encoding="utf-8")
    assert splu_imports(module) == [2, 3]


def test_splu_is_called_through_its_module():
    # bench/tracing.py counts factorisations by wrapping the module attribute
    # scipy.sparse.linalg.splu; a name bound by import would bypass it
    found = [f"{path.relative_to(SRC)}:{line}"
             for path in sorted(SRC.rglob("*.py")) for line in splu_imports(path)]
    assert found == []


def enclosing_functions(path: Path, names) -> list:
    """(line, enclosing function) of each call in a module of a function
    named in ``names``, by its bare or its attribute name; the enclosing
    function is the innermost one, None at module level."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in names:
                    found.append((child.lineno, function))
            inner = (child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                     else function)
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return sorted(found)


def test_factorisation_callers_detected(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import scipy.sparse.linalg as spla\nlu = spla.splu(a)\n"
        "def _factor(a):\n    return spla.splu(a, permc_spec='COLAMD')\n"
        "class S:\n    def solve(self):\n        f = spla.splu\n"
        "        def inner():\n            return f(1) + spla.splu(2)\n", encoding="utf-8")
    assert enclosing_functions(module, ("splu",)) == [(2, None), (4, "_factor"), (9, "inner")]


def test_only_factor_calls_splu():
    # every factorisation goes through newton._factor, so that each block's
    # ordering is chosen in one place
    found = [(str(path.relative_to(SRC)), function)
             for path in sorted(SRC.rglob("*.py"))
             for _, function in enclosing_functions(path, ("splu",))]
    assert found == [("mdthm/system/newton.py", "_factor")]


def imports_from(path: Path, module: str) -> list:
    """(line, name) of each name a module imports from ``module`` or one of
    its submodules, and of each import of ``module`` itself."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.name) for alias in node.names
                      if f"{node.module}.{alias.name}".startswith(module + ".")
                      or f"{node.module}.{alias.name}" == module]
        elif isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name == module or alias.name.startswith(module + ".")]
    return sorted(found)


def test_constitutive_imports_detected(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import numpy as np\nfrom mdthm.constitutive import fluid_density, carried_heat\n"
        "from mdthm import constitutive, contact\nimport mdthm.constitutive as law\n"
        "from mdthm.system.assembly import Assembler\nfrom mdthm.constitutively import x\n",
        encoding="utf-8")
    assert imports_from(module, "mdthm.constitutive") == [
        (2, "carried_heat"), (2, "fluid_density"), (3, "constitutive"),
        (4, "mdthm.constitutive")]


def test_diagnostics_import_no_constitutive_law():
    # the balance report reads its storage, heat-capacity, volume-change and
    # well terms off the assembler, so that each law lives in one place
    diagnostics = SRC / "mdthm" / "system" / "diagnostics.py"
    assert imports_from(diagnostics, "mdthm.constitutive") == []


def definitions(path: Path) -> list:
    """(line, name) of each function, method and ``self.<attr>`` assignment
    in a module, dunder names excepted."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(sub.lineno, sub.attr) for target in targets for sub in ast.walk(target)
                      if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                      and sub.value.id == "self"]
    return [(line, name) for line, name in found if not name.startswith("__")]


def references(path: Path) -> set:
    """Every name a module reads: loaded names and attributes, and string
    constants (``getattr`` and the like) outside ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(id(sub) for sub in ast.walk(node.value))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in exported):
            names.add(node.value)
    return names


def unreferenced(defining: list, reading: list) -> list:
    """(path, line, name) of each definition in ``defining`` that no module
    in ``reading`` names."""
    read = set().union(*(references(path) for path in reading))
    return [(path, line, name) for path in defining
            for line, name in definitions(path) if name not in read]


def test_unreferenced_definitions_detected(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "__all__ = ['orphan']\n"
        "def used():\n    return 1\n"
        "def orphan():\n    pass\n"
        "class A:\n"
        "    def __init__(self):\n        self.read = used()\n        self.written = 2\n"
        "        self.bumped = 0\n"
        "    def by_name(self):\n        self.bumped += self.read\n"
        "getattr(A(), 'by_name')\n", encoding="utf-8")
    found = [(line, name) for _, line, name in unreferenced([module], [module])]
    assert found == [(4, "orphan"), (9, "written"), (10, "bumped"), (12, "bumped")]


def test_every_definition_is_named_again():
    # a function, method or attribute of the package that neither the
    # package nor its tests nor the benchmark name again is dead code
    reading = [path for part in (SRC, ROOT / "tests", ROOT / "bench")
               for path in sorted(part.rglob("*.py"))]
    found = [f"{path.relative_to(SRC)}:{line} {name}"
             for path, line, name in unreferenced(sorted(SRC.rglob("*.py")), reading)]
    assert found == []


def defaulted_parameters(path: Path) -> list:
    """(line, callee, parameter, position) of each parameter with a default
    of a function or method in a module. ``callee`` is the name calls use:
    the class name for a constructor. ``position`` is the parameter's index
    among the arguments a call passes by position (``self`` excluded), None
    for a keyword-only one."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                skip = 1 if cls is not None and not static else 0
                callee = cls if cls is not None and child.name == "__init__" else child.name
                args = child.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                found.extend((arg.lineno, callee, arg.arg, pos - skip)
                             for pos, arg in enumerate(positional) if pos >= first)
                found.extend((arg.lineno, callee, arg.arg, None)
                             for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                             if default is not None)
                visit(child, None)
            else:
                visit(child, cls)

    visit(tree, None)
    return found


def calls(path: Path) -> dict:
    """Per called name, the (positional count, keyword names) of each call
    in a module; a call that unpacks ``*args`` or ``**kwargs`` counts as
    passing every parameter."""
    out = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if any(isinstance(arg, ast.Starred) for arg in node.args) or any(
                kw.arg is None for kw in node.keywords):
            out.setdefault(name, []).append((float("inf"), None))
        else:
            out.setdefault(name, []).append(
                (len(node.args), {kw.arg for kw in node.keywords}))
    return out


def unpassed_parameters(defining: list, reading: list) -> list:
    """(path, line, 'callee(parameter)') of each defaulted parameter in
    ``defining`` that no call in ``reading`` passes."""
    seen = {}
    for path in reading:
        for name, found in calls(path).items():
            seen.setdefault(name, []).extend(found)

    def passed(callee, param, pos):
        return any(keywords is None or param in keywords
                   or (pos is not None and n_pos > pos)
                   for n_pos, keywords in seen.get(callee, []))

    return [(path, line, f"{callee}({param})") for path in defining
            for line, callee, param, pos in defaulted_parameters(path)
            if not passed(callee, param, pos)]


def test_unpassed_parameters_detected(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
        "class K:\n"
        "    def __init__(self, x, y=0):\n        pass\n"
        "    def m(self, p=1, q=2):\n        pass\n"
        "    @staticmethod\n    def s(r=1):\n        pass\n"
        "def g(h=1):\n    pass\n"
        "f(0, 5, e=1)\nK(1, 2).m(q=3)\nK.s(0)\ng(**{})\n", encoding="utf-8")
    found = [(line, name) for _, line, name in unpassed_parameters([module], [module])]
    assert found == [(1, "f(c)"), (1, "f(d)"), (6, "m(p)")]


def test_every_default_is_passed_somewhere():
    # a defaulted parameter that no call in the package, its tests or the
    # benchmark passes is a constant in disguise
    reading = [path for part in (SRC, ROOT / "tests", ROOT / "bench")
               for path in sorted(part.rglob("*.py"))]
    found = [f"{path.relative_to(SRC)}:{line} {name}"
             for path, line, name in unpassed_parameters(sorted(SRC.rglob("*.py")), reading)]
    assert found == []


def test_benchmark_hooks_exist():
    # the benchmark's tracer wraps package attributes by name from outside
    # the package; a rename would only show as a crashed traced run
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    install = next(node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "install")
    namespace = {}
    imports = [node for node in install.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    exec(compile(ast.Module(body=imports, type_ignores=[]), "install", "exec"), namespace)
    hooks = [(call.args[0], call.args[1].value) for call in ast.walk(install)
             if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
             and call.func.attr == "wrap"]
    assert len(hooks) > 10
    for owner, attr in hooks:
        target = eval(compile(ast.Expression(owner), "install", "eval"), namespace)
        assert hasattr(target, attr), f"{ast.unparse(owner)}.{attr}"
    # and the attributes its callbacks read
    from mdthm.system.assembly import Assembler, IterationCache

    assert "prev_cache" in inspect.signature(Assembler.build_cache).parameters
    assert "contact_state" in {f.name for f in dataclasses.fields(IterationCache)}
