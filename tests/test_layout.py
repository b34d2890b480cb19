import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "srgcert"

# ROADMAP item 6's budget; an independent verify.py is counted on its own
SRC_LINE_BUDGET = 1550

# the package's modules in layer order: each imports only modules before it
LAYERS = ["params", "cliquebound", "gramtest", "serialize", "oracle", "cli", "__init__"]

# imports cli keeps inside the functions that use them, so that starting
# any command does not pay for them
LAZY_IN_CLI = {"oracle", "concurrent.futures", "argparse"}

# the only module that builds a Fraction: the brute-force oracle, whose
# census classes are rationals; every other module keeps a rational as an
# integer pair
IMPORTS_FRACTIONS = {"oracle"}


def _modules():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py") if p.name != "verify.py"}


def _imports(node):
    """(imported module, relative level) of every import statement under node."""
    for n in ast.walk(node):
        if isinstance(n, ast.ImportFrom):
            yield n.module or "", n.level
        elif isinstance(n, ast.Import):
            yield from ((alias.name, 0) for alias in n.names)


def test_src_stays_within_line_budget():
    sources = [p for p in SRC.glob("*.py") if p.name != "verify.py"]
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sources)
    assert lines <= SRC_LINE_BUDGET, f"src/srgcert has {lines} lines, budget {SRC_LINE_BUDGET}"


def test_modules_import_only_earlier_layers():
    modules = _modules()
    assert sorted(modules) == sorted(LAYERS)
    for name, tree in modules.items():
        earlier = set(LAYERS[: LAYERS.index(name)])
        for module, level in _imports(tree):
            if level:
                assert module in earlier, f"{name} imports .{module}, not an earlier layer"
            else:
                assert module.split(".")[0] != "srgcert", f"{name} imports {module} absolutely"


def test_only_the_oracle_imports_fractions():
    """No other module imports fractions, at top level or inside a function."""
    modules = _modules()
    importers = {name for name, tree in modules.items() for module, _ in _imports(tree)
                 if module.split(".")[0] == "fractions"}
    assert importers == IMPORTS_FRACTIONS


def test_cli_imports_oracle_and_pool_lazily():
    tree = _modules()["cli"]
    top = {module for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom)) for module, _ in _imports(n)}
    assert not top & LAZY_IN_CLI
    inner = {
        module
        for f in tree.body
        if isinstance(f, ast.FunctionDef)
        for module, _ in _imports(f)
    }
    assert LAZY_IN_CLI <= inner
