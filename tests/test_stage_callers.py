"""A lint of the package: each stage of the per-node chain has one caller.

Every command reaches the chain from the leads' boundary values and a
transfer product to the densities through one kernel, `fluxes.node_table`,
so `weiss_boundary`, `evaluate_point` and `spectral_densities` are read by
that function alone. `validate` is left out: its oracles call the stages on
their own.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "ebb"
STAGES = ("weiss_boundary", "evaluate_point", "spectral_densities")


def readers(package, names, skip=("validate",)):
    """For each name, module.function of the top-level functions (or
    `<module>` for module code) of the package's modules, bar skip, that
    read it: as a bare name or an attribute, also from a nested function.
    An import, a docstring or a comment is not a read."""
    found = {name: set() for name in names}
    for path in sorted(package.glob("*.py")):
        if path.stem in skip:
            continue
        for top in ast.parse(path.read_text(), str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, (ast.Name, ast.Attribute)):
                    name = node.id if isinstance(node, ast.Name) else node.attr
                    if name in found:
                        found[name].add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    return {name: sorted(owners) for name, owners in found.items()}


def test_each_stage_has_one_production_caller(tmp_path):
    # The lint itself: a second loop that calls a stage, even from a
    # closure or through an attribute, is a second reader.
    (tmp_path / "a.py").write_text(
        '"""evaluate_point is documented here."""\n'
        "def kernel():\n"
        "    return evaluate_point()\n"
        "def copy():\n"
        "    def inner():\n"
        "        return fluxes.evaluate_point()\n"
        "    return inner\n"
    )
    (tmp_path / "validate.py").write_text("def oracle():\n    return evaluate_point()\n")
    assert readers(tmp_path, ["evaluate_point"]) == {"evaluate_point": ["a.copy", "a.kernel"]}
    assert readers(PACKAGE, STAGES) == {name: ["fluxes.node_table"] for name in STAGES}
