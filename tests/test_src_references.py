"""No `src/` definition exists only to serve its own unit test, and no
`src/` import goes unread."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def referenced_names(tree: ast.AST) -> set[str]:
    """Every name a tree reads, as a bare name, an attribute or an import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_every_top_level_definition_is_used_by_src_or_the_gate():
    # a definition counts as used when another top-level statement of src/
    # reads its name, or when the acceptance gate imports or reads it
    statements = [node for path in sorted((ROOT / "src" / "groupcontrast").glob("*.py"))
                  for node in ast.parse(path.read_text(encoding="utf-8")).body]
    gate = referenced_names(ast.parse((ROOT / "tests" / "test_acceptance.py")
                                      .read_text(encoding="utf-8")))
    reads = [referenced_names(node) for node in statements]
    unused = [node.name for node in statements
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in gate
              and not any(node.name in names for other, names in zip(statements, reads)
                          if other is not node)]
    assert unused == []


def exported_names(body: list[ast.stmt]) -> set[str]:
    """The names a module's ``__all__`` lists."""
    for node in body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_import_of_src_is_read():
    # an import counts as read when another top-level statement of its
    # module reads the name it binds, or when the module's __all__ lists it
    unused = []
    for path in sorted((ROOT / "src" / "groupcontrast").glob("*.py")):
        body = ast.parse(path.read_text(encoding="utf-8")).body
        reads = [referenced_names(node) for node in body]
        exported = exported_names(body)
        for node in body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                if bound not in exported and not any(
                        bound in names for other, names in zip(body, reads) if other is not node):
                    unused.append(f"{path.name}: {bound}")
    assert unused == []



def imported_modules(path: Path) -> set[str]:
    """The groupcontrast modules a source file imports, anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["groupcontrast" if node.level else "", node.module]))
            found |= {module} | {f"{module}.{alias.name}" for alias in node.names}
    return {name.split(".")[1] for name in found if name.startswith("groupcontrast.")}


def test_graph_and_config_modules_import_nothing_of_the_model():
    # the graph types, their augmentation, the config and the seeded streams
    # sit below the model: none of them imports the autodiff engine or
    # anything built on it
    below = ("graphs", "augment", "config", "seeding")
    model = {"tensor", "encoder", "representor", "objectives", "optim", "trainer"}
    imported = {name: sorted(imported_modules(ROOT / "src" / "groupcontrast" / f"{name}.py")
                             & model) for name in below}
    assert imported == {name: [] for name in below}
