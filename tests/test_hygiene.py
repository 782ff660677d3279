"""Source hygiene checks that need no tool beyond the standard library, and
checks that the README shows the CLI and the run directory as they are."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from docturn.cli import main
from docturn.runner import emit_reports, execute, plan_from_dict

from .test_runner import minimal_plan_dict

SRC = Path(__file__).resolve().parent.parent / "src"
BENCH = SRC.parent / "bench"
README = SRC.parent / "README.md"
# A command as the README shows it: at the start of a code line or in `...`.
_COMMAND_RE = re.compile(r"(?:^|`)docturn ([a-z][a-z-]*)", re.MULTILINE)
NOQA = "# noqa: F401"


def _annotation_names(node: ast.AST) -> set[str]:
    """Names in an annotation, including those inside string annotations."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in filter(None, annotations):
            used |= _annotation_names(annotation)
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return used


def _imports(source: str) -> list[tuple[int, str, bool, bool]]:
    """(line, name, used, noqa) of each name a module-level import binds:
    whether the module uses it, and whether the alias's own line carries the
    F401 noqa comment."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _used_names(tree)
    found = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            name = alias.asname or alias.name.split(".")[0]
            found.append((alias.lineno, name, name in used, NOQA in lines[alias.lineno - 1]))
    return found


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each module-level import whose bound name the module
    never uses, unless the alias's own line carries the F401 noqa comment."""
    return [(line, name) for line, name, used, noqa in _imports(source) if not used and not noqa]


def stale_noqa_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each module-level import whose line carries the F401
    noqa comment although the module uses the name: the comment outlived
    the re-export it excused."""
    return [(line, name) for line, name, used, noqa in _imports(source) if used and noqa]


def _found_in_src(check) -> list[str]:
    return [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in check(path.read_text("utf-8"))
    ]


def test_no_unused_module_level_imports():
    assert _found_in_src(unused_imports) == []


def test_no_stale_noqa_imports():
    assert _found_in_src(stale_noqa_imports) == []


@pytest.mark.parametrize(
    "source, expected",
    [
        ("import os\n", [(1, "os")]),
        ("import os.path\nos.sep\n", []),
        ("from a import (\n    b,\n    c,\n)\nb\n", [(3, "c")]),
        ("from a import b as c\nb\n", [(1, "c")]),
        ("from a import b  # noqa: F401\n", []),
        ("from a import (\n    b,  # noqa: F401\n    c,\n)\n", [(3, "c")]),
        ("from a import b\n__all__ = ['b']\n", []),
        ("from a import b\ndef f(x: 'list[b]') -> None: ...\n", []),
        ("from a import b\nx: 'b | None' = None\n", []),
        ("from __future__ import annotations\n", []),
        ("def f():\n    import os\n", []),  # not module-level
    ],
)
def test_unused_import_check(source, expected):
    assert unused_imports(source) == expected


@pytest.mark.parametrize(
    "source, expected",
    [
        ("from a import b  # noqa: F401\n", []),  # a re-export the module never uses
        ("from a import b  # noqa: F401\nb()\n", [(1, "b")]),
        ("from a import (\n    b,  # noqa: F401\n    c,  # noqa: F401\n)\nc\n", [(3, "c")]),
        ("from a import b\nb()\n", []),
        ("def f():\n    from a import b  # noqa: F401\n    b()\n", []),  # not module-level
    ],
)
def test_stale_noqa_check(source, expected):
    assert stale_noqa_imports(source) == expected


def mentioned_names(source: str) -> set[str]:
    """Every name a module's code mentions: a name, an attribute, or a string
    constant that is an identifier, as getattr and patch targets spell one.
    An attribute or a string is also added as "." and the name, the only
    mention that reaches a method: a bare name is a local or a global."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names |= {node.attr, "." + node.attr}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names |= {node.value, "." + node.value}
    return names


def _is_click_command(node: ast.AST) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in node.decorator_list
    )


def unmentioned_definitions(source: str, mentioned: set[str]) -> list[tuple[int, str]]:
    """(line, name) of each module-level function or class whose name is not
    in mentioned, and each method of a module-level class that mentioned
    holds no attribute or string for. Dunder methods, which Python calls by
    protocol, and click commands are exempt."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        defined = [(node, node.name, node.name)]
        if isinstance(node, ast.ClassDef):
            defined += [
                (sub, f"{node.name}.{sub.name}", "." + sub.name) for sub in node.body
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
        for definition, name, mention in defined:
            short = definition.name
            dunder = short.startswith("__") and short.endswith("__")
            if not dunder and not _is_click_command(definition) and mention not in mentioned:
                found.append((definition.lineno, name))
    return found


def test_every_definition_in_src_is_mentioned():
    """Nothing in src/ is defined that no code in src/ or bench/ mentions:
    what only the tests reach is dead code."""
    sources = {path: path.read_text("utf-8") for root in (SRC, BENCH) for path in root.rglob("*.py")}
    mentioned = set().union(*map(mentioned_names, sources.values()))
    found = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path, source in sorted(sources.items()) if path.is_relative_to(SRC)
        for line, name in unmentioned_definitions(source, mentioned)
    ]
    assert found == []


@pytest.mark.parametrize(
    "source, expected",
    [
        ("def f(): ...\n", [(1, "f")]),
        ("def f(): ...\nf()\n", []),
        ("class A:\n    def m(self): ...\n", [(1, "A"), (2, "A.m")]),
        ("class A:\n    def m(self): ...\nA().m()\n", []),
        ("class A:\n    def m(self): ...\nm = 1\nA()\n", [(2, "A.m")]),  # a local m
        ("class A:\n    def m(self): ...\ngetattr(A(), 'm')\n", []),
        ("class A:\n    def __init__(self): ...\nA()\n", []),  # called by protocol
        ("def f(): ...\ngetattr(module, 'f')\n", []),
        ("def f(): ...\n__all__ = ['f']\n", []),
        ("def f(): ...\nprint('Call f first.')\n", [(1, "f")]),  # prose is no mention
        ("def f(): ...\n# f()\n", [(1, "f")]),
        ("@main.command('f')\ndef f(): ...\n", []),
        ("@click.group()\ndef main(): ...\n", []),
        ("@functools.cache\ndef f(): ...\n", [(2, "f")]),
        ("def f():\n    def g(): ...\nf()\n", []),  # not module-level
        ("x = 1\n", []),
    ],
)
def test_unmentioned_definition_check(source, expected):
    assert unmentioned_definitions(source, mentioned_names(source)) == expected


def test_readme_shows_exactly_the_cli_commands():
    """The README's CLI block, the bash block that runs `docturn run`, lists
    every subcommand, and every `docturn <command>` the README names exists."""
    text = README.read_text("utf-8")
    (block,) = [b for b in re.findall(r"```bash\n(.*?)```", text, re.DOTALL) if "docturn run " in b]
    assert set(_COMMAND_RE.findall(block)) == set(main.commands)
    assert set(_COMMAND_RE.findall(text)) <= set(main.commands)


def _expanded(path: str, plan) -> set[str]:
    """A README path with `<backend>`, `<strategy>` and one `{a,b}` expanded."""
    paths = {
        path.replace("<backend>", backend.name).replace("<strategy>", strategy.label)
        for backend in plan.backends for strategy in plan.strategies
    }
    braces = re.search(r"\{(.*?)\}", path)
    if braces is None:
        return paths
    return {p.replace(braces.group(0), alt) for p in paths for alt in braces.group(1).split(",")}


def test_readme_lists_exactly_the_files_a_run_writes(tmp_path):
    """The README's run-directory block, expanded over a plan's backends and
    strategies, names exactly the files execute and emit_reports write."""
    text = README.read_text("utf-8")
    block = re.search(r"Artifacts land under `runs/<run_id>/`:\n\n```\n(.*?)```", text, re.DOTALL)
    plan = plan_from_dict(minimal_plan_dict(tmp_path, backends=[
        {"kind": "mock_identity", "name": "identity"},
        {"kind": "mock_tail_dropper", "name": "dropper", "drop_fraction": 0.5},
    ]))
    artifacts = execute(plan)
    emit_reports(artifacts)
    listed = set().union(*(_expanded(line.split()[0], plan) for line in block[1].splitlines()))
    written = {
        p.relative_to(artifacts.run_dir).as_posix()
        for p in artifacts.run_dir.rglob("*") if p.is_file()
    }
    assert listed == written
