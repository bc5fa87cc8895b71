"""The production package's shape: the slow test oracle stays out of
its import graph, it imports only the standard library, every function
and method in it has a production caller, every defaulted parameter is
passed by one, and every field is read by one."""

import ast
import os
import subprocess
import sys

import dsreduce

PKG_DIR = os.path.dirname(dsreduce.__file__)

# Definitions kept without a production caller, each for a named user.
KEPT_WITHOUT_CALLER = {
    # perfbench/corpus.py relabels its generated graphs through it
    "Graph.edges",
}


# Defaulted parameters no production call passes, each for a named user.
KEPT_WITHOUT_PASSING = {
    # tests and perfbench call the entry point with an argument list
    ("main", "argv"),
    # the tier-1 visit gates read the visits of one driver or pass call
    ("reduce_iterate", "work"),
    ("suitable_set", "work"),
    # the tests check annotated domination through the one domination check
    ("first_undominated", "covered"),
    # perfbench's stub forwards it positionally; it goes with the
    # benchmark's next change (ROADMAP item 6)
    ("write_sidecar", "solution"),
}


# Fields no production code reads, each for a named reader.
KEPT_WITHOUT_READER = {
    # perfbench/spans.py wraps reducer.compact, which returns them; they
    # go with the benchmark's next change (ROADMAP item 6)
    "CompactResult.graph",
    "CompactResult.old_to_new",
    "CompactResult.new_to_old",
    # oracle.greedy_reference and tests/test_greedy.py read it
    "TieBreaker.priority",
    # the passes only add to it; perfbench/spans.py and the tier-1 visit
    # gates read it
    "WorkCounter.visits",
}


def parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def package_files():
    return sorted(f for f in os.listdir(PKG_DIR) if f.endswith(".py"))


def production_trees():
    """File name -> parsed module, for every package module but the oracle."""
    return {
        fname: parse(os.path.join(PKG_DIR, fname))
        for fname in package_files()
        if fname != "oracle.py"
    }


def imported_modules(path):
    """Dotted names a module imports, relative ones resolved in the package."""
    tree = parse(path)
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            parts = ["dsreduce"] if node.level else []
            if node.module:
                parts.append(node.module)
            base = ".".join(parts)
            names.append(base)
            names += [f"{base}.{alias.name}" for alias in node.names]
    return names


def test_no_module_imports_the_oracle():
    offenders = []
    for fname in package_files():
        if fname == "oracle.py":
            continue
        for name in imported_modules(os.path.join(PKG_DIR, fname)):
            if name == "dsreduce.oracle" or name.startswith("dsreduce.oracle."):
                offenders.append(f"{fname}: {name}")
    assert offenders == []


def test_cli_import_leaves_oracle_unloaded():
    # multiprocessing is for bench alone; every other command starts without it
    env = dict(os.environ)
    src = os.path.dirname(PKG_DIR)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import sys, dsreduce.cli; "
        "print([m for m in ('dsreduce.oracle', 'multiprocessing') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_runtime_imports_only_the_standard_library():
    offenders = []
    for fname in package_files():
        for name in imported_modules(os.path.join(PKG_DIR, fname)):
            top = name.partition(".")[0]
            if top != "dsreduce" and top not in sys.stdlib_module_names:
                offenders.append(f"{fname}: {name}")
    assert offenders == []


def uncalled_definitions(trees, exempt=()):
    """Qualified names of the top-level functions and non-dunder methods
    in ``trees`` (file name -> parsed module) whose name nothing refers
    to outside their own body.

    A reference is a name or an attribute with that name anywhere in the
    modules.  References inside a flagged definition do not count, so
    the scan repeats until no new name is flagged: a helper called only
    by a flagged method is flagged too.  ``exempt`` names are never
    flagged.
    """
    defs = []  # (qualified name, name, file, first line, last line)
    refs = []  # (name, file, line)
    for fname, tree in trees.items():
        for node in tree.body:
            members = [("", node)]
            if isinstance(node, ast.ClassDef):
                members = [(node.name + ".", item) for item in node.body]
            for prefix, item in members:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if prefix and item.name.startswith("__") and item.name.endswith("__"):
                    continue
                qual = prefix + item.name
                if qual not in exempt:
                    defs.append((qual, item.name, fname, item.lineno, item.end_lineno))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((node.id, fname, node.end_lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, fname, node.end_lineno))

    def inside(spans, fname, line):
        return any(f == fname and lo <= line <= hi for f, lo, hi in spans)

    flagged = {}
    while True:
        dead = [d[2:] for d in flagged.values()]
        new = [
            d
            for d in defs
            if d[0] not in flagged
            and not any(
                name == d[1] and not inside([d[2:], *dead], fname, line)
                for name, fname, line in refs
            )
        ]
        if not new:
            return sorted(flagged)
        flagged.update((d[0], d) for d in new)


def test_uncalled_definitions_follow_call_chains():
    trees = {
        "a.py": ast.parse(
            "def used():\n    return 1\n"
            "def helper():\n    return helper()\n"
            "class C:\n"
            "    def __len__(self):\n        return 0\n"
            "    def dead(self):\n        return helper()\n"
            "    def kept(self):\n        return 2\n"
        ),
        "b.py": ast.parse("x = used()\n"),
    }
    assert uncalled_definitions(trees) == ["C.dead", "C.kept", "helper"]
    assert uncalled_definitions(trees, exempt={"C.dead"}) == ["C.kept"]


def test_every_production_definition_has_a_production_caller():
    trees = production_trees()
    exempt = set(dsreduce.__all__) | KEPT_WITHOUT_CALLER
    assert uncalled_definitions(trees, exempt) == []


def unpassed_defaults(trees, exempt=()):
    """(qualified name, parameter) of each defaulted parameter of the
    top-level functions and methods in ``trees`` that no call in them
    passes, by keyword or by position.

    A call matches by name: a function's name or a method's attribute
    name, and a class name for ``__init__``.  A method's positions skip
    ``self``.  A call with ``*args`` or ``**kwargs`` passes every
    parameter it could reach.  ``exempt`` pairs are never reported.
    """
    params = []  # (qualified name, called name, parameter, position or None)
    calls = []  # (called name, call node)
    for tree in trees.values():
        for node in tree.body:
            members = [(None, node)]
            if isinstance(node, ast.ClassDef):
                members = [(node.name, item) for item in node.body]
            for cls, item in members:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                args = item.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                if cls is not None:
                    positional = positional[1:]
                called = cls if item.name == "__init__" else item.name
                qual = item.name if cls is None else f"{cls}.{item.name}"
                first = len(positional) - len(args.defaults)
                params += [
                    (qual, called, name, i)
                    for i, name in enumerate(positional)
                    if i >= first
                ]
                params += [
                    (qual, called, a.arg, None)
                    for a, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None
                ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    calls.append((func.id, node))
                elif isinstance(func, ast.Attribute):
                    calls.append((func.attr, node))

    def passes(call, name, pos):
        if any(k.arg in (name, None) for k in call.keywords):
            return True
        starred = any(isinstance(a, ast.Starred) for a in call.args)
        return pos is not None and (starred or len(call.args) > pos)

    return sorted(
        (qual, name)
        for qual, called, name, pos in params
        if (qual, name) not in exempt
        and not any(c == called and passes(call, name, pos) for c, call in calls)
    )


def test_unpassed_defaults_see_keywords_positions_and_methods():
    trees = {
        "a.py": ast.parse(
            "def f(a, b=1, *, c=2, d=3):\n    return a\n"
            "class C:\n"
            "    def __init__(self, x=0, y=0):\n        pass\n"
            "    def m(self, k=0):\n        return k\n"
        ),
        "b.py": ast.parse(
            "f(0, c=1)\nC(1)\nC().m(*[])\n"
        ),
    }
    assert unpassed_defaults(trees) == [
        ("C.__init__", "y"), ("f", "b"), ("f", "d")
    ]
    assert unpassed_defaults(trees, exempt={("f", "b")}) == [
        ("C.__init__", "y"), ("f", "d")
    ]


def test_every_defaulted_parameter_is_passed_by_production_code():
    trees = production_trees()
    assert unpassed_defaults(trees, KEPT_WITHOUT_PASSING) == []
    # the allow-list holds only parameters that still need it
    assert unpassed_defaults(trees) == sorted(KEPT_WITHOUT_PASSING)


def declared_fields(tree):
    """``Class.name`` of each ``@dataclass`` field and ``__slots__`` name
    declared at the top level of ``tree``."""
    out = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        is_dataclass = any(
            ast.unparse(d.func if isinstance(d, ast.Call) else d).endswith("dataclass")
            for d in node.decorator_list
        )
        for item in node.body:
            if is_dataclass and isinstance(item, ast.AnnAssign):
                out.append(f"{node.name}.{item.target.id}")
            elif isinstance(item, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets
            ):
                slots = ast.literal_eval(item.value)
                slots = [slots] if isinstance(slots, str) else slots
                out += [f"{node.name}.{name}" for name in slots]
    return out


def unread_fields(trees, exempt=()):
    """``Class.name`` of each dataclass field and ``__slots__`` name in
    ``trees`` that no attribute read in them names.

    A read is an attribute in Load context, matched by name whatever
    the object: an assignment or an augmented assignment (``+=``) to the
    field is no read.  ``exempt`` names are never reported.
    """
    reads = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        qual
        for tree in trees.values()
        for qual in declared_fields(tree)
        if qual not in exempt and qual.partition(".")[2] not in reads
    )


def test_unread_fields_see_dataclasses_slots_and_loads():
    trees = {
        "a.py": ast.parse(
            "import dataclasses\n"
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class R:\n    a: int\n    b: int = 0\n    c: int = 0\n"
            "@dataclasses.dataclass(frozen=True)\n"
            "class F:\n    d: int\n"
            "class S:\n"
            "    __slots__ = ('x', 'y')\n"
            "    def __init__(self):\n        self.x = self.y = 0\n"
            "    def bump(self):\n        self.y += 1\n"
            "class P:\n    z: int = 0\n    __slots__ = 'w'\n"
        ),
        "b.py": ast.parse("def f(r, s, p):\n    r.b = 1\n    return r.a + s.x + p.w\n"),
    }
    assert unread_fields(trees) == ["F.d", "R.b", "R.c", "S.y"]
    assert unread_fields(trees, exempt={"S.y", "F.d"}) == ["R.b", "R.c"]


def test_every_field_is_read_by_production_code():
    trees = production_trees()
    assert unread_fields(trees, KEPT_WITHOUT_READER) == []
    # the allow-list holds only fields that still need it
    assert unread_fields(trees) == sorted(KEPT_WITHOUT_READER)


# The canonical reference's tie-break, as ``ast.unparse`` prints it: the
# member of N[u] with the largest (degree, id).
CANONICAL_TIE_BREAK = "d > bd or v > rho"


def test_the_canonical_reference_has_one_home():
    # every vertex's canonical reference is computed in the superset pass
    # alone, which the re-evaluation of a round scopes to its candidates
    homes = {}
    for fname, tree in production_trees().items():
        for node in tree.body:
            members = [("", node)]
            if isinstance(node, ast.ClassDef):
                members = [(node.name + ".", item) for item in node.body]
            for prefix, item in members:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    count = ast.unparse(item).count(CANONICAL_TIE_BREAK)
                    if count:
                        homes[f"{fname}:{prefix}{item.name}"] = count
    assert homes == {"pipeline.py:compute_superset": 1}
