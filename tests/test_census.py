"""Census: every public definition in the package is something the product reaches.

A public top-level function or class whose name appears nowhere else in
`src/amiprivacy` must be a console-script entry point, be named by an
acceptance criterion, or be on the allowlist below. Anything else only unit
tests reach, and should be deleted with those tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# spend_report goes on the CLI as `audit-show --spend` (ROADMAP item 6).
ALLOWLIST = {"spend_report"}


def _script_targets() -> set[str]:
    """The functions `[project.scripts]` names; a regex, as tomllib needs Python 3.11."""
    text = (ROOT / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    return set(re.findall(r'^[\w-]+\s*=\s*"[\w.]+:(\w+)"', section, re.M))


def _named_only_at_definition() -> dict[str, str]:
    """Public top-level functions and classes in src named once: where they are defined."""
    sources = {p.name: p.read_text() for p in sorted((ROOT / "src" / "amiprivacy").glob("*.py"))}
    everything = "\n".join(sources.values())
    return {
        node.name: module
        for module, text in sources.items()
        for node in ast.parse(text).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and len(re.findall(rf"\b{node.name}\b", everything)) == 1
    }


def test_every_public_definition_is_reached_by_the_product():
    unreferenced = _named_only_at_definition()
    scripts = _script_targets()
    # The console mains are named only in pyproject.toml, so the census must see them.
    assert scripts and scripts <= unreferenced.keys()
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text()
    orphans = sorted(
        f"{module}:{name}" for name, module in unreferenced.items()
        if name not in scripts | ALLOWLIST and not re.search(rf"\b{name}\b", acceptance)
    )
    assert orphans == []


def test_only_audit_builds_an_audit_record():
    """gateway routes and cli parses: neither names the chain's internals or builds a record."""
    for module in ("gateway.py", "cli.py"):
        text = (ROOT / "src" / "amiprivacy" / module).read_text()
        assert re.findall(r"\b(?:GENESIS_HASH|_record_hash|_record_payload)\b|\bAuditRecord\(",
                          text) == [], module


def test_only_route_and_release_charge_the_ledger():
    """A technique that charged behind route's back would release what no record accounts for."""
    charges = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "charge"):
                charges.append(scope)
            visit(child, scope)

    texts = {p.stem: p.read_text() for p in (ROOT / "src" / "amiprivacy").glob("*.py")}
    for module, text in texts.items():
        visit(ast.parse(text), module)
    assert sorted(charges) == ["dp.release", "gateway.Gateway.route"]
    assert sum(text.count(".charge(") for text in texts.values()) == 2
