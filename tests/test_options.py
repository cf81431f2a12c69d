"""Every optional parameter of a public medusa function, and every
defaulted field of a public medusa dataclass, is set by some call.

A default that no call in src/, tests/ or perfbench/ ever overrides is a
constant, not an option: it belongs in a module constant.  Calls are
matched by the called name (``f(...)``, ``module.f(...)``, ``obj.f(...)``
for methods), so a parameter counts as set when any call of that name
passes it by keyword or by position, or passes ``*args``/``**kwargs``.
A dataclass field counts as set when a call of the class passes it by
keyword or by position, or any ``replace(...)`` call passes it by keyword:
``Class(**mapping)`` rebuilds a stored instance (model.npz's config) and
sets no field of its own.

Every public function, class and public method of src/medusa is also
named somewhere in src/ or perfbench/ outside its own definition: code
that only the tests use belongs in tests/.  So is every module-level
private function and class: code that nothing calls goes.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "perfbench")


def _public_functions():
    """(qualified name, def, is method, skips self/cls) for src/medusa."""
    for path in sorted((ROOT / "src" / "medusa").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node, False, 0
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                     for d in item.decorator_list)
                        yield (f"{path.stem}.{node.name}.{item.name}", item, True,
                               0 if static else 1)


def _optional(fn: ast.FunctionDef):
    """(name, position or None for keyword-only) of each parameter with a default."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    out = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            if d is not None]
    return out


def _calls():
    """called name -> (bare-name calls, attribute calls), each a list of
    (positional count or None for ``*args``, keywords or None for ``**kwargs``)."""
    calls = defaultdict(lambda: ([], []))
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                star = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = {k.arg for k in node.keywords}
                record = (None if star else len(node.args),
                          None if None in keywords else keywords)
                if isinstance(node.func, ast.Name):
                    calls[node.func.id][0].append(record)
                elif isinstance(node.func, ast.Attribute):
                    calls[node.func.attr][1].append(record)
    return calls


def _passed(records, name: str, position: int | None, skip: int = 0) -> bool:
    return any(
        keywords is None or name in keywords
        or (position is not None and (count is None or count > position - skip))
        for count, keywords in records
    )


def unset_parameters() -> list[str]:
    calls = _calls()
    unset = []
    for qualname, fn, is_method, skip in _public_functions():
        bare, attribute = calls.get(fn.name, ([], []))
        records = attribute if is_method else bare + attribute
        for name, position in _optional(fn):
            if not _passed(records, name, position, skip):
                unset.append(f"{qualname}({name})")
    return unset


def _defaulted_fields():
    """(qualified name, class name, field, position) of each field with a
    default of a public dataclass in src/medusa."""
    for path in sorted((ROOT / "src" / "medusa").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not (isinstance(node, ast.ClassDef) and not node.name.startswith("_")
                    and any("dataclass" in ast.unparse(d) for d in node.decorator_list)):
                continue
            fields = [item for item in node.body
                      if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
            for position, item in enumerate(fields):
                if item.value is not None:
                    name = item.target.id
                    yield f"{path.stem}.{node.name}.{name}", node.name, name, position


def unset_fields() -> list[str]:
    calls = _calls()
    bare, attribute = calls.get("replace", ([], []))
    replaces = [(0, keywords) for _, keywords in bare + attribute]   # by keyword only
    unset = []
    for qualname, cls, name, position in _defaulted_fields():
        bare, attribute = calls.get(cls, ([], []))
        named = [(count, keywords) for count, keywords in bare + attribute + replaces
                 if keywords is not None]
        if not _passed(named, name, position):
            unset.append(qualname)
    return unset


def test_every_optional_parameter_is_set_by_some_call():
    assert unset_parameters() == []


def test_every_defaulted_dataclass_field_is_set_by_some_call():
    assert unset_fields() == []


# perfbench builds ReservoirConfig without a rate, and model.npz files store
# the rate in it; every other rate is the caller's to pass
FRAME_RATE_DEFAULT_ALLOWED = {"reservoir.ReservoirConfig.frame_rate"}


def frame_rate_defaults() -> list[str]:
    """Public functions and dataclass fields that default a ``frame_rate``."""
    found = [f"{qualname}(frame_rate)" for qualname, fn, _, _ in _public_functions()
             if any(name == "frame_rate" for name, _ in _optional(fn))]
    found += [qualname for qualname, _, name, _ in _defaulted_fields()
              if name == "frame_rate" and qualname not in FRAME_RATE_DEFAULT_ALLOWED]
    return found


def test_no_public_api_defaults_a_frame_rate():
    assert frame_rate_defaults() == []


def architecture_branches() -> list[str]:
    """Places in src/medusa that name an architecture outside the one table.

    An architecture name may key `reservoir.ARCHITECTURES` and be the
    default of an ``architecture`` field or of a ``default=`` keyword;
    anywhere else it is a branch the table should decide.
    """
    from medusa.reservoir import ARCHITECTURES

    found = []
    for path in sorted((ROOT / "src" / "medusa").glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                    and any(isinstance(t, ast.Name) and t.id == "ARCHITECTURES"
                            for t in node.targets)):
                allowed.update(map(id, node.value.keys))
            elif (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                  and node.target.id == "architecture"):
                allowed.add(id(node.value))
            elif isinstance(node, ast.keyword) and node.arg == "default":
                allowed.add(id(node.value))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and node.value in ARCHITECTURES
                    and id(node) not in allowed):
                found.append(f"{path.name}:{node.lineno} {node.value!r}")
    return found


def test_only_the_architecture_table_names_an_architecture():
    assert architecture_branches() == []


def _definitions():
    """(qualified name, path, def) of every module-level function and class
    in src/medusa, and of every public method of its public classes."""
    for path in sorted((ROOT / "src" / "medusa").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            yield f"{path.stem}.{node.name}", path, node
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", path, item


def _name_uses():
    """name -> (path, line) of each place src/ or perfbench/ names it: as a
    name, an attribute or an import.  A bare name in a perfbench file that
    defines that name at module level is its own, not src/'s."""
    uses = defaultdict(list)
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            own = ({node.name for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
                   if top == "perfbench" else set())
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    if node.id in own:
                        continue
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.alias):
                    names = node.name.split(".")
                else:
                    continue
                for name in names:
                    uses[name].append((path, node.lineno))
    return uses


def unnamed_definitions() -> list[str]:
    """Definitions in src/medusa that src/ and perfbench/ never name outside
    the definition itself: an API only the tests use, or a private helper
    that nothing calls."""
    uses = _name_uses()
    return [qualname for qualname, path, node in _definitions()
            if not any(p != path or not node.lineno <= line <= node.end_lineno
                       for p, line in uses[node.name])]


def test_every_public_definition_is_named_outside_the_tests():
    assert [q for q in unnamed_definitions() if not q.split(".")[1].startswith("_")] == []


def test_every_private_helper_is_named_outside_its_definition():
    assert [q for q in unnamed_definitions() if q.split(".")[1].startswith("_")] == []
