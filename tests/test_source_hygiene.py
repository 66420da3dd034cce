"""Source checks on src/orbitcodes, standard library only: line length, no
private top-level name or method left without a use, memo caches that
cannot grow without bound, a brute-force side and a predictor that read no
name of each other, one kernel per arithmetic job, one key = value writer
and FieldSpec slots set only where a field is built."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "orbitcodes"
MODULES = sorted(SRC.glob("*.py"))
MAX_LINE = 100


def _top_level_names(node: ast.stmt) -> list[str]:
    """Names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _uses(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names read in tree, as a bare name or an attribute, outside skip."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_lines_fit(path):
    long = [(i, len(line)) for i, line in enumerate(path.read_text().splitlines(), 1)
            if len(line) > MAX_LINE]
    assert long == [], f"{path.name}: (line, length) above {MAX_LINE}"


#: Private methods read by no code of the package, with the reason each stays.
CALLED_FROM_OUTSIDE = {"ExponentProfile._make": "namedtuple's _replace calls it"}


def _private_definitions(tree: ast.Module):
    """(dotted name, defining node) of each single-underscore name defined
    at top level or as a method in a top-level class body."""
    for node in tree.body:
        for defined in _top_level_names(node):
            yield defined, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def test_private_top_level_names_are_used():
    """Every single-underscore name a module defines at top level, and every
    single-underscore method of a top-level class, is read somewhere in the
    package outside its own definition."""
    trees = {path.name: ast.parse(path.read_text()) for path in MODULES}
    unused = []
    for name, tree in trees.items():
        for dotted, node in _private_definitions(tree):
            defined = dotted.rpartition(".")[2]
            if (not defined.startswith("_") or defined.startswith("__")
                    or dotted in CALLED_FROM_OUTSIDE):
                continue
            if not any(defined in _uses(other, skip=node if other is tree else None)
                       for other in trees.values()):
                unused.append(f"{name}: {dotted}")
    assert unused == []


def _functools(node: ast.AST, name: str) -> bool:
    """node names functools.<name>, or <name> imported from functools."""
    if isinstance(node, ast.Attribute):
        return node.attr == name and isinstance(node.value, ast.Name) \
            and node.value.id == "functools"
    return isinstance(node, ast.Name) and node.id == name


def _int_maxsize(call: ast.Call) -> bool:
    sizes = [k.value for k in call.keywords if k.arg == "maxsize"] + call.args[:1]
    return len(sizes) == 1 and isinstance(sizes[0], ast.Constant) \
        and type(sizes[0].value) is int


def _unbounded_caches(tree: ast.AST) -> list[int]:
    """Lines of a functools.lru_cache not given an int maxsize, and of a
    functools.cache other than the decorator of a function of no argument."""
    called = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
    bare = {id(d) for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)
            and not any(ast.iter_child_nodes(n.args)) for d in n.decorator_list}
    return [node.lineno for node in ast.walk(tree)
            if (_functools(node, "lru_cache")
                and not (id(node) in called and _int_maxsize(called[id(node)])))
            or (_functools(node, "cache") and id(node) not in bare)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_memo_caches_are_bounded(path):
    """No cache grows with the arguments it sees for the life of the process."""
    assert _unbounded_caches(ast.parse(path.read_text())) == [], path.name


@pytest.mark.parametrize("source,lines", [
    ("@functools.lru_cache(maxsize=256)\ndef f(a): pass", []),
    ("@functools.lru_cache(64)\ndef f(a): pass", []),
    ("@functools.cache\ndef f(): pass", []),
    ("@functools.lru_cache\ndef f(a): pass", [1]),
    ("@functools.lru_cache(maxsize=None)\ndef f(a): pass", [1]),
    ("from functools import lru_cache\n@lru_cache()\ndef f(a): pass", [2]),
    ("@functools.cache\ndef f(a): pass", [1]),
    ("@functools.cache\ndef f(*, a=1): pass", [1]),
    ("g = functools.cache(h)", [1]),
])
def test_the_cache_check_reads_decorators(source, lines):
    assert _unbounded_caches(ast.parse(source)) == lines


#: The brute-force side: the orbit walks, the oracle and what they build on.
BRUTE_FORCE = {"orbitcode.py": ["generate_orbit", "_walk_orbit", "min_distance_brute",
                                "_oracle_report", "_distinct_words"],
               "matspace.py": ["_spanner", "_combine", "_xor_span", "_xor_spans",
                               "_image_table"]}
#: The predictor's names: its multiset, the extension field and its logs.
PREDICTOR = {"DifferenceMultiset", "ExtensionContext", "orbit_partition",
             "exponent_profile", "dlog", "_coords"}
#: The predictor's code, as dotted paths of top-level definitions.
PREDICTOR_CODE = {"orbitcode.py": ["DifferenceMultiset"],
                  "fieldmap.py": ["ExtensionContext.orbit_partition",
                                  "ExtensionContext.exponent_profile"]}


def _definition(module: str, path: str) -> ast.AST:
    """The function or class at a dotted path in a module."""
    node = ast.parse((SRC / module).read_text())
    for part in path.split("."):
        [node] = [n for n in node.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                  and n.name == part]
    return node


@pytest.mark.parametrize("module,name", [(m, f) for m, fs in BRUTE_FORCE.items() for f in fs])
def test_brute_force_side_reads_no_predictor_name(module, name):
    assert _uses(_definition(module, name)) & PREDICTOR == set()


@pytest.mark.parametrize("module,path",
                         [(m, f) for m, fs in PREDICTOR_CODE.items() for f in fs])
def test_predictor_reads_no_brute_force_name(module, path):
    brute_force = {name for names in BRUTE_FORCE.values() for name in names}
    assert _uses(_definition(module, path)) & brute_force == set()


#: The one kernel of each arithmetic job, and the definitions (dotted paths
#: per module) that must read it: every power, every polynomial division,
#: every loop that grows a span, and every product by x mod a polynomial.
KERNELS = {"_power": {"gfq.py": ["FieldSpec._pow"], "matspace.py": ["Mat.__pow__"],
                      "polyring.py": ["poly_powmod", "is_irreducible", "_order"]},
           "_divide": {"polyring.py": ["Poly.__divmod__", "_euclid"]},
           "_combine": {"matspace.py": ["_spanner", "_xor_span", "_xor_spans"]},
           "_alpha_step": {"gfq.py": ["_mulmod", "_coset_walk"]}}


#: The extension context's build, whose coset walk finds ord(alpha) itself.
CONTEXT_BUILD = {"gfq.py": ["_coset_walk"], "fieldmap.py": ["ExtensionContext.__init__"]}


@pytest.mark.parametrize("module,path",
                         [(m, f) for m, fs in CONTEXT_BUILD.items() for f in fs])
def test_the_context_build_reads_no_polynomial_order(module, path):
    assert _uses(_definition(module, path)) & {"_order", "order_of_polynomial"} == set()


def _functions(tree: ast.AST) -> list[ast.FunctionDef]:
    return [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _ladders(tree: ast.AST) -> list[str]:
    """Names of the functions that hold a square-and-multiply loop: a for
    over bin(...), or a loop that shifts a value right."""
    def ladder(loop):
        if isinstance(loop, ast.For) and any(
                isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "bin"
                for n in ast.walk(loop.iter)):
            return True
        return isinstance(loop, (ast.For, ast.While)) and any(
            isinstance(n, (ast.AugAssign, ast.BinOp)) and isinstance(n.op, ast.RShift)
            for n in ast.walk(loop))

    return [fn.name for fn in _functions(tree) if any(map(ladder, ast.walk(fn)))]


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_one_kernel_per_arithmetic_job(kernel):
    trees = [ast.parse(path.read_text()) for path in MODULES]
    assert [fn.name for tree in trees for fn in _functions(tree)].count(kernel) == 1
    unread = [f"{module}: {path}" for module, paths in KERNELS[kernel].items()
              for path in paths if kernel not in _uses(_definition(module, path))]
    assert unread == []


def test_no_square_and_multiply_loop_outside_the_ladder():
    assert [name for path in MODULES for name in _ladders(ast.parse(path.read_text()))] \
        == ["_power"]


@pytest.mark.parametrize("source,names", [
    ("def f(e):\n    for bit in bin(e)[3:]:\n        pass", ["f"]),
    ("def f(e):\n    while e:\n        e >>= 1", ["f"]),
    ("def f(e):\n    for _ in range(3):\n        e = e >> 1", ["f"]),
    ("def f(e):\n    return e >> 1", []),
    ("def f(e):\n    for c in str(e):\n        e ^= 1", []),
])
def test_the_ladder_check_reads_loops(source, names):
    assert _ladders(ast.parse(source)) == names


#: The one writer of "key = value" lines in cli.py.
WRITER = "_lines"


def _key_value_writes(tree: ast.AST) -> list[int]:
    """Lines of the print and .write calls outside the writer that are
    given an f-string whose literal text holds " = "."""
    writer = {id(n) for fn in _functions(tree) if fn.name == WRITER for n in ast.walk(fn)}

    def key_value(node):
        return isinstance(node, ast.JoinedStr) and any(
            isinstance(v, ast.Constant) and " = " in v.value for v in node.values)

    return [call.lineno for call in ast.walk(tree)
            if isinstance(call, ast.Call) and id(call) not in writer
            and (isinstance(call.func, ast.Name) and call.func.id == "print"
                 or isinstance(call.func, ast.Attribute) and call.func.attr == "write")
            and any(key_value(n) for arg in call.args + [k.value for k in call.keywords]
                    for n in ast.walk(arg))]


def test_cli_writes_key_value_lines_through_one_writer():
    tree = ast.parse((SRC / "cli.py").read_text())
    assert WRITER in [fn.name for fn in _functions(tree)]
    assert _key_value_writes(tree) == []


@pytest.mark.parametrize("source,lines", [
    ('print(f"spread = {s}")', [1]),
    ('x = 1\nsys.stdout.write(f"{key} = {value}\\n")', [2]),
    ('out.write("".join(f"{k} = {v}" for k, v in pairs))', [1]),
    ('print(f"{k}", end=f" = {v}")', [1]),
    ('print("spread = true")', []),
    ('print(f"ok {name}: {detail}")', []),
    ('def _lines(pairs):\n    sys.stdout.write(f"{k} = {v}")', []),
])
def test_the_writer_check_reads_calls(source, lines):
    assert _key_value_writes(ast.parse(source)) == lines


#: FieldSpec's private slots, and the only definitions that may set them:
#: a field's operations are fixed when it is built.
FIELD_SLOTS = {"_add", "_sub", "_neg", "_mul", "_join", "_key", "_hash"}
FIELD_BUILDERS = {"FieldSpec.__init__", "FieldSpec.extend"}


def _slot_writes(tree: ast.AST) -> list[str]:
    """Dotted names of the definitions outside FIELD_BUILDERS ("<module>"
    at top level) that assign or delete a FieldSpec slot of any object, or
    set one by setattr."""
    def writes(node):
        if isinstance(node, ast.Attribute):
            return node.attr in FIELD_SLOTS and not isinstance(node.ctx, ast.Load)
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "setattr" and len(node.args) > 1 \
            and isinstance(node.args[1], ast.Constant) and node.args[1].value in FIELD_SLOTS

    out = []

    def visit(node, path):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            path = f"{path}.{node.name}" if path else node.name
        if writes(node) and path not in FIELD_BUILDERS:
            out.append(path or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, path)

    visit(tree, "")
    return out


def test_field_slots_are_set_only_where_a_field_is_built():
    assert [f"{path.name}: {name}" for path in MODULES
            for name in _slot_writes(ast.parse(path.read_text()))] == []


@pytest.mark.parametrize("source,names", [
    ("class FieldSpec:\n    def __init__(self, p):\n        self._mul = f", []),
    ("class FieldSpec:\n    def extend(self, m):\n        spec._add, spec._key = f, k", []),
    ("def _tabulate(field):\n    field._mul = lambda a, b: 0", ["_tabulate"]),
    ("class FieldSpec:\n    def _pow(self, a, e):\n        self._hash = 0", ["FieldSpec._pow"]),
    ("class FieldSpec:\n    def extend(self, m):\n        def f():\n            spec._mul = g",
     ["FieldSpec.extend.f"]),
    ("def f(sub):\n    setattr(sub, '_join', j)", ["f"]),
    ("def f(sub):\n    sub._neg += 1", ["f"]),
    ("def f(sub):\n    del sub._key", ["f"]),
    ("field._mul = g", ["<module>"]),
    ("def f(sub):\n    mul = sub._mul\n    table[sub._key] = mul(1, 2)", []),
    ("def f(sub):\n    sub._exp = e\n    setattr(sub, name, g)", []),
])
def test_the_slot_check_reads_assignments(source, names):
    assert _slot_writes(ast.parse(source)) == names
