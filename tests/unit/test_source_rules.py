"""Source rules: the per-file determinism and ownership checks of ``src/repro``.

Byte-identical replay and one owner per piece of state can both be read off
one file's syntax tree.  Each check is a plain function ``(tree, rel) ->
[(line, message)]``; one test per check runs it over ``src/repro``, and one
parametrized test feeds each a seeded violation and its clean spelling.
:data:`EXEMPT` says what a check may find under a path prefix, and why:
``None`` any number, a count no more.  The RD codes were ``repro devlint``'s.

check             was    flags
wall_clock        RD101  a wall-clock read or reference (``time.time``, ``datetime.now``)
unseeded_random   RD102  module-level ``random.*``; an RNG built without a seed
os_entropy        RD103  ``os.urandom``, ``uuid.uuid1/4``, ``secrets.*``
unsorted_listing  RD104  ``listdir`` / ``scandir`` / ``glob`` / ``iterdir`` not in ``sorted()``
set_iteration     RD105  a loop or comprehension over a set expression
id_ordering       RD106  ``key=id``, ``id()`` in an ordering comparison or as a mapping key
module_getattr    RD404  a module-level ``__getattr__``
private_reach     RD405  another module's ``_private`` state in ``server/``; a write to ``.njs._…``
content_pass      RD406  ``zlib.crc32`` / ``hashlib.sha256`` outside a content pass's owner
private_layout    -      a ``struct`` layout: a value crosses as one ``repro.asn1`` value
broker_import     -      ``server/`` importing ``repro.broker`` beyond its wire error codes
"""

import ast

import pytest


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted name of a call target (``time.monotonic``)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _calls(tree: ast.Module) -> list[ast.Call]:
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)]


# -- determinism: one seed, one run ---------------------------------------------
def wall_clock(tree: ast.Module, rel: str) -> list[tuple[int, str]]:
    clocks = {"time.time", "time.monotonic", "time.perf_counter", "time.process_time"}
    dates = ("datetime.now", "datetime.utcnow", "datetime.today", "date.today")
    # A reference hands the clock on (``Tracer(clock=time.monotonic)``); a call
    # reports once, as its ``func``.  Suffixes catch ``from datetime import datetime``.
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _dotted(node).removesuffix("_ns") in clocks:
            found.append((node.lineno, f"wall clock {_dotted(node)}; read sim.now"))
        elif isinstance(node, ast.Call):
            name = _dotted(node.func)
            if any(name == s or name.endswith("." + s) for s in dates):
                found.append((node.lineno, f"wall-clock call {name}(); derive from sim.now"))
    return found


def unseeded_random(tree: ast.Module, rel: str) -> list[tuple[int, str]]:
    global_rng = {f"random.{fn}" for fn in "random randint randrange choice choices shuffle"
                  " sample uniform gauss expovariate getrandbits seed betavariate".split()}
    found = []
    for call in _calls(tree):
        name = _dotted(call.func)
        if name in global_rng:
            found.append((call.lineno, f"{name}() is the process-global RNG; use derive_rng"))
        elif name.endswith(("random.Random", "default_rng")) and not (call.args or call.keywords):
            found.append((call.lineno, f"{name}() without a seed is entropy-seeded"))
    return found


def os_entropy(tree: ast.Module, rel: str) -> list[tuple[int, str]]:
    sources = {"os.urandom", "uuid.uuid1", "uuid.uuid4"} | {f"secrets.{fn}" for fn in
               "token_bytes token_hex token_urlsafe randbits randbelow choice".split()}
    return [
        (call.lineno, f"{_dotted(call.func)}() reads OS entropy; derive from seeded state")
        for call in _calls(tree) if _dotted(call.func) in sources
    ]


def unsorted_listing(tree: ast.Module, rel: str) -> list[tuple[int, str]]:
    ordered = {arg for call in _calls(tree) if _dotted(call.func) == "sorted" for arg in call.args}
    found = []
    for call in _calls(tree):
        method = isinstance(call.func, ast.Attribute) and call.func.attr in ("iterdir", "rglob")
        name = call.func.attr if method else _dotted(call.func)
        listing = method or name in ("os.listdir", "os.scandir", "glob.glob", "glob.iglob")
        if listing and call not in ordered:
            found.append((call.lineno, f"{name}() lists in filesystem order; wrap in sorted()"))
    return found


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and _dotted(node.func) in ("set", "frozenset"):
        return True
    algebra = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    if isinstance(node, ast.BinOp) and isinstance(node.op, algebra):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def set_iteration(tree: ast.Module, rel: str) -> list[tuple[int, str]]:
    return [
        (node.iter.lineno, "iterating a set leaks hash order into event order; iterate sorted()")
        for node in ast.walk(tree)
        if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)) and _is_set_expr(node.iter)
    ]


def id_ordering(tree: ast.Module, rel: str) -> list[tuple[int, str]]:
    found = []
    for call in _calls(tree):
        ordering = _dotted(call.func) in ("sorted", "min", "max") or (
            isinstance(call.func, ast.Attribute) and call.func.attr == "sort"
        )
        if ordering and any(kw.arg == "key" and _dotted(kw.value) == "id" for kw in call.keywords):
            found.append((call.lineno, "ordering by id() follows allocation addresses"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops
        ):
            found.extend(
                (node.lineno, "comparing id() values orders by address")
                for side in [node.left, *node.comparators]
                if _is_id_call(side)
            )
        # An address outlives its object: a later one can take the dead
        # object's key, and what was stored under it.
        if isinstance(node, ast.Subscript):
            key = node.slice
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("get", "setdefault", "pop") and node.args):
            key = node.args[0]
        else:
            continue
        if _is_id_call(key):
            found.append((node.lineno, "an id() key is reused once its object is freed"))
    return found


def _is_id_call(node: ast.expr) -> bool:
    return isinstance(node, ast.Call) and _dotted(node.func) == "id"


# -- ownership: every name and every piece of state has one home ----------------
def module_getattr(tree: ast.Module, rel: str) -> list[tuple[int, str]]:
    return [
        (node.lineno, "module-level __getattr__ hides what a module exports")
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "__getattr__"
    ]


def _private_names_defined(tree: ast.Module) -> set[str]:
    """Functions, classes and names a module binds, and what it sets on self/cls."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
                names.add(node.attr)
    return names


def private_reach(tree: ast.Module, rel: str) -> list[tuple[int, str]]:
    in_server = rel.startswith("src/repro/server/")
    own = _private_names_defined(tree)
    found = []
    for node in ast.walk(tree):
        attr = node
        while isinstance(attr, ast.Subscript):
            attr = attr.value  # storing into a private collection writes it
        if not (
            isinstance(attr, ast.Attribute)
            and attr.attr.startswith("_") and not attr.attr.endswith("__")
        ) or (isinstance(attr.value, ast.Name) and attr.value.id in ("self", "cls")):
            continue
        through = getattr(attr.value, "attr", getattr(attr.value, "id", ""))
        if through == "njs" and not isinstance(node.ctx, ast.Load):
            found.append((node.lineno, f"write to .njs.{attr.attr}; use the NJS's methods"))
        elif in_server and node is attr and attr.attr not in own:
            found.append((node.lineno, f"{ast.unparse(attr)}: ask its owner, publicly"))
    return found


def content_pass(tree: ast.Module, rel: str) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        else:
            continue
        found.extend(
            (node.lineno, f"{name} re-reads file content; take FileBody.digest / .chunk_crcs")
            for name in names if name in ("zlib.crc32", "hashlib.sha256")
        )
    return found


def private_layout(tree: ast.Module, rel: str) -> list[tuple[int, str]]:
    layouts = {"struct.Struct", "struct.pack", "struct.unpack", "struct.calcsize"}
    return [
        (node.lineno, f"{_dotted(node.func)}() is a private byte layout; use a repro.asn1 value")
        for node in _calls(tree) if _dotted(node.func) in layouts
    ]


def broker_import(tree: ast.Module, rel: str) -> list[tuple[int, str]]:
    """The broker is a client of the sites: the server tier may raise its
    wire error codes (``repro.broker.errors``) and knows nothing else of it."""
    if not rel.startswith("src/repro/server/"):
        return []
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found.extend(
            (node.lineno, f"{name}: the server tier does not know the broker")
            for name in names
            if name.split(".")[:2] == ["repro", "broker"]
            and name.split(".")[:3] != ["repro", "broker", "errors"]
        )
    return found


# -- what each check may find in src/repro, and why -------------------------------
EXEMPT: dict[tuple[object, str], tuple[int | None, str]] = {
    **{(check, "src/repro/net/aio_transport.py"): (None, "real sockets, real clocks")
       for check in (wall_clock, unseeded_random, os_entropy, unsorted_listing)},
    (unseeded_random, "src/repro/security/"): (None, "consumes callers' seeded Randoms"),
    (module_getattr, "src/repro/__init__.py"): (None, "lazy facade: a cheap `import repro`"),
    (module_getattr, "src/repro/errors.py"): (None, "breaks the errors-module import cycle"),
    (content_pass, "src/repro/net/stream.py"): (None, "frame codec: a CRC per chunk"),
    (content_pass, "src/repro/vfs/body.py"): (None, "the body keeps both checks by its bytes"),
    (content_pass, "src/repro/security/"): (None, "key material, not file content"),
    (content_pass, "src/repro/simkernel/rng.py"): (None, "RNG stream names, not file content"),
    (content_pass, "src/repro/storage/backend.py"): (1, "load() checks each blob's digest"),
    (content_pass, "src/repro/protocol/datapath.py"): (1, "a sender name seeds stream ids"),
    (private_layout, "src/repro/net/stream.py"): (2, "the frame header and OPEN fixed part"),
    (private_layout, "src/repro/net/wire.py"): (1, "the socket frame header"),
}


def _unexempt(check, files) -> list[str]:
    """``check``'s findings over ``files`` beyond what :data:`EXEMPT` allows."""
    found: dict[str, list[str]] = {}
    for rel, _source, tree in files:
        prefix = next((p for c, p in EXEMPT if c is check and rel.startswith(p)), rel)
        found.setdefault(prefix, []).extend(f"{rel}:{n}: {m}" for n, m in check(tree, rel))
    cap = {prefix: EXEMPT.get((check, prefix), (0, ""))[0] for prefix in found}
    return sorted(f for p, fs in found.items() if cap[p] is not None and len(fs) > cap[p]
                  for f in fs)


def _tree_test(check, code: str = ""):
    def test(src_files):
        assert _unexempt(check, src_files) == []
    test.__doc__ = f"``{check.__name__}`` finds nothing in src/repro" + (
        f"; replaces {code}." if code else "."
    )
    return test


test_no_wall_clock_in_simulation_code = _tree_test(wall_clock, "RD101")
test_every_rng_derives_from_the_seed = _tree_test(unseeded_random, "RD102")
test_no_os_entropy = _tree_test(os_entropy, "RD103")
test_directory_listings_are_sorted = _tree_test(unsorted_listing, "RD104")
test_no_set_iteration = _tree_test(set_iteration, "RD105")
test_no_id_ordering = _tree_test(id_ordering, "RD106")
test_no_module_getattr = _tree_test(module_getattr, "RD404")
test_no_reach_into_private_state = _tree_test(private_reach, "RD405")
test_one_owner_per_content_pass = _tree_test(content_pass, "RD406")
test_no_private_byte_layouts = _tree_test(private_layout)
test_the_server_tier_does_not_know_the_broker = _tree_test(broker_import)


def test_a_counted_exemption_allows_no_second_finding():
    twice = [("src/repro/storage/backend.py", "", ast.parse("hashlib.sha256(b)\n" * 2))]
    assert len(_unexempt(content_pass, twice)) == 2


def test_no_module_outgrows_its_part(src_files):
    """The NJS was one 1,969-line class once; a module that passes 550
    lines is two parts sharing a file."""
    sizes = {rel: source.count("\n") for rel, source, _tree in src_files}
    assert len(sizes) > 100
    assert {rel: n for rel, n in sizes.items() if n > 550} == {}


# -- each check bites -----------------------------------------------------------
NJS = "njs"  # spelled apart, so a grep of the repo for reach-ins finds none of these
CLEAN = {
    wall_clock: "def handler(sim):\n    return sim.now\n",
    unseeded_random: "import random\nrng = random.Random(seed)\nx = rng.random()\n",
    os_entropy: "key = rng.randbytes(16)\n",
    unsorted_listing: "import os\nfor name in sorted(os.listdir(path)):\n    use(name)\n",
    set_iteration: "for item in sorted({1, 2, 3}):\n    use(item)\n",
    id_ordering: "order = sorted(objs, key=lambda o: o.name)\n"
                 "subs.setdefault(parent.id, []).append(sub)\n",
    module_getattr: "class Lazy:\n    def __getattr__(self, name):\n        raise KeyError\n",
    private_reach: "class RunIndex:\n    def verify(self, runs):\n        self._status = {}\n"
                   "        return self._status == RunIndex()._status, runs.njs.runs\n",
    content_pass: "import hashlib\nkept = body.digest, body.chunk_crcs(4096), hashlib.md5\n",
    private_layout: "from repro import asn1\nblob = asn1.encode([size, crc32, stream_id])\n",
    broker_import: "from repro.broker.errors import BrokerQuotaError\nimport repro.broker.errors\n",
}


def case(check, name, dirty, n=1, rel="src/repro/server/example.py"):
    return pytest.param(check, dirty, n, rel, id=f"{check.__name__}-{name}")


CASES = [
    case(wall_clock, "time", "import time\nt = time.time()\n"),
    case(wall_clock, "monotonic", "import time\nt = time.monotonic()\n"),
    case(wall_clock, "reference", "import time\nclock = time.perf_counter\n"),
    case(wall_clock, "datetime.now", "from datetime import datetime\nd = datetime.now()\n"),
    case(wall_clock, "date.today", "import datetime\nd = datetime.date.today()\n"),
    case(unseeded_random, "random", "import random\nx = random.random()\n"),
    case(unseeded_random, "shuffle", "import random\nrandom.shuffle(items)\n"),
    case(unseeded_random, "Random", "import random\nrng = random.Random()\n"),
    case(os_entropy, "urandom", "import os\nkey = os.urandom(16)\n"),
    case(os_entropy, "uuid4", "import uuid\njob = uuid.uuid4()\n"),
    case(os_entropy, "secrets", "import secrets\ntok = secrets.token_hex(8)\n"),
    case(unsorted_listing, "listdir", "import os\nfor n in os.listdir(path):\n    use(n)\n"),
    case(unsorted_listing, "iterdir", "for p in root.iterdir():\n    use(p)\n"),
    case(set_iteration, "literal", "for item in {1, 2, 3}:\n    use(item)\n"),
    case(set_iteration, "algebra", "xs = [x for x in set(a) | set(b)]\n"),
    case(id_ordering, "key", "order = sorted(objs, key=id)\n"),
    case(id_ordering, "compare", "if id(a) < id(b):\n    swap()\n", n=2),
    case(id_ordering, "mapping-key", "subs.setdefault(id(parent), []).append(sub)\n"
                                     "seen[id(job)] = job\nkids = subs.get(id(job), [])\n", n=3),
    case(module_getattr, "hook", "def __getattr__(name):\n    return getattr(new_home, name)\n"),
    case(private_reach, "server", f"def jobs(self):\n    return len(self.{NJS}._runs)\n"),
    # Outside the server tier only a *write* into the NJS is a finding.
    case(private_reach, "write", f"seen = u.{NJS}._runs\nu.{NJS}._crashed = True\n"
                                 f"del u.{NJS}._runs[job_id]\n", n=2, rel="src/repro/faults/x.py"),
    case(content_pass, "reader", "import hashlib\nfrom zlib import crc32\n"
                                 "d, c = hashlib.sha256(b).hexdigest(), crc32(b)\n", n=2),
    case(private_layout, "Struct", "import struct\nREF = struct.Struct('!QIQ')\n"),
    case(private_layout, "pack", "import struct\n"
                                 "blob = struct.pack('!B', 1) + struct.unpack('!I', b)\n", n=2),
    case(broker_import, "module", "from repro.broker.advertise import BROKER_PEER\n"
                                  "import repro.broker.service\n", n=2),
    case(broker_import, "package", "from repro.broker import BrokerError, errors\n"
                                   "from repro import broker\n", n=2),
]
DIRTY = {param.values[0]: param.values[1] for param in reversed(CASES)}  # first case per check


@pytest.mark.parametrize(("check", "dirty", "n", "rel"), CASES)
def test_flags_violation_passes_clean(check, dirty, n, rel):
    assert len(check(ast.parse(dirty), rel)) == n
    assert check(ast.parse(CLEAN[check]), rel) == []


@pytest.mark.parametrize("check", list(CLEAN), ids=lambda check: check.__name__)
def test_quiet_on_clean_code_and_where_exempt(check):
    """The clean spelling passes in and out of the server tier; under each
    ``None`` exemption of the check, so does its seeded violation."""
    for rel in ("src/repro/server/example.py", "src/repro/faults/x.py"):
        assert check(ast.parse(CLEAN[check]), rel) == []
    for (exempt, prefix), (cap, reason) in EXEMPT.items():
        if exempt is check and cap is None:
            rel = prefix + "x.py" if prefix.endswith("/") else prefix
            assert reason and _unexempt(check, [(rel, "", ast.parse(DIRTY[check]))]) == []
