"""No `src/` definition exists only to serve its own unit test."""
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
