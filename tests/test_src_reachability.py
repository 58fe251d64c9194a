"""Every def in ``src/repro`` is reached from a non-test path.

A function, class, method or constant that only the tests use is either
dead or an oracle; oracles belong under ``tests/`` (see
``tests/prediction/mlp_oracle.py``).  This guard parses every
``src/repro`` module and fails on any module-level ``def``/``class`` or
public assignment, or public ``def`` in a class body, that is never
*used* in ``src/``, ``benchmarks/``, ``atmbench/`` or ``examples/``.  A
module-level name is used when it is loaded as a ``Name`` or read as an
``Attribute``; a class member (method or property) only when it is read
as an ``Attribute``, so a local variable that shares a method's name does
not keep the method alive.  Imports (so ``__init__`` re-exports),
``__all__`` strings and uses inside the def's own body do not count.
Names are matched by identifier, not by module or class, so the check is
a floor: a dead def that shares its name with a live one slips through
(a method named ``run`` is reached by any ``.run`` anywhere).

The same holds for parameters: a parameter with a default, of a
module-level function or a method in ``src/repro``, fails the guard when
no call in those directories passes it (by keyword or by position), or
when every such call passes an AST-equal copy of the default.  A call
``Cls(...)`` counts for ``Cls.__init__``; dataclass fields are out of
scope.  A def whose name is loaded as a value anywhere (``key=f``, a
kernel table) or is called with ``*args``/``**kwargs`` has unknown
arguments and is skipped; its defaulted parameters are checked by hand
and listed in ``HAND_CHECKED``, which must match the skipped set.
"""

import ast
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
USE_DIRS = ("src", "benchmarks", "atmbench", "examples")

#: Defs kept in ``src/`` although no production path names them.
ALLOWED_UNREACHED = {
    "resolve_evidence": "the documented read path for stored evidence bundles",
    "ar1_noise": "one-row AR(1) call whose bytes the generator identity tests pin",
    "render_box": "one-box scenario render whose bytes the scenario identity tests pin",
    "Actuator": "the protocol the cgroups-style actuators implement",
    "get_registry": "state accessor of the observability registry",
    "registered_stages": "state accessor of the artifact codec registry",
    "shard_tier_active": "state accessor of the shard tier",
    "silhouette_values": "per-item form of the production silhouette kernel the tests pin",
    "current_limit": "read side of the Actuator protocol, which the simulated actuator implements",
    "to_json": "writes the scenario file that --scenario loads; documented in the README",
    "fit_temporal_batch_warm": "one-box form of fit_temporal_fleet_batch_warm; the atmbench tracer wraps it by name",
}

#: Defaulted parameters kept although no production call sets them, or
#: every production call passes the default; keyed ``def(param)``, with
#: ``Cls(param)`` for ``Cls.__init__``.
ALLOWED_PARAMETERS = {
    "ar1_noise(phi)": "the generator identity tests pin its bytes through explicit arguments",
    "ar1_noise(sigma)": "the generator identity tests pin its bytes through explicit arguments",
    "render_box(cfg)": "the scenario identity tests pin its bytes through explicit arguments",
    "resolve_evidence(store)": "the CI ticket-ops smoke passes it in inline Python",
    "fit_temporal_batch_warm(period)": "keeps the signature the atmbench tracer wraps",
    "fit_temporal_batch_warm(warm)": "the atmbench tracer reads it from the keyword arguments",
}

#: Defaulted parameters of the defs the scan skips (loaded as a value or
#: called with ``*``/``**``), each with the production call that sets it.
HAND_CHECKED = {
    "OnlineRunResult.total_tickets(static)": "cli._cmd_online passes static=True",
    "OnlineFleetResult.total_tickets(static)": "cli._cmd_online passes static=True",
    "_run_box_atm_chunk(keys)": "run_fleet_atm passes the run's RunKeys through run_fleet",
    "ArtifactStore.headers(skip)": "evidence _PackIndex.refresh passes skip=self.seen",
    "ExperimentResult.tickets(vm_id)": "bench_fig12_mediawiki_usage passes each VM id",
    "AlternatingLoad.rates(rng)": "run_testbed_experiment passes the run's rng",
    "_box_ops_key(keys)": "run_fleet_ops passes _OpsKeys(cfg) through run_fleet",
    "stepwise_eliminate(vif_threshold)": "search_signature_set passes cfg.vif_threshold",
    "stepwise_eliminate(corr)": "search_signature_set passes the shared correlation block",
    "bursts(rate_per_window)": "the generator passes cfg.burst_rate, the spiky scenario 0.02",
    "bursts(mean_duration)": "the spiky scenario passes 2.0",
    "bursts(amplitude)": "the generator passes cfg.burst_amplitude, the spiky scenario 1.1",
    "NeuralNetPredictor(config)": "the registry's neural factory passes MlpConfig(period=period)",
}

_DEF_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _class_members(cls: ast.ClassDef) -> Iterator[ast.AST]:
    """The public defs of a class body, nested class bodies included."""
    for node in cls.body:
        if isinstance(node, _DEF_TYPES) and not node.name.startswith("_"):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from _class_members(node)


#: Where a scanned def sits: at module level, or inside a class body.
MODULE, MEMBER = "module", "member"


def _assigned_names(node: ast.stmt) -> List[str]:
    """Public names a module-level assignment binds (tuple targets skipped)."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        targets = [node.target]
    else:
        return []
    return [
        t.id for t in targets if isinstance(t, ast.Name) and not t.id.startswith("_")
    ]


def _module_defs() -> Dict[str, List[Tuple[str, int, str]]]:
    """Map each scanned def name in ``src/repro`` to its locations and kind."""
    defs: Dict[str, List[Tuple[str, int, str]]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        where = str(path.relative_to(ROOT))
        for node in ast.parse(path.read_text()).body:
            for name in _assigned_names(node):
                defs.setdefault(name, []).append((where, node.lineno, MODULE))
            if not isinstance(node, _DEF_TYPES):
                continue
            if not node.name.startswith("__"):
                defs.setdefault(node.name, []).append((where, node.lineno, MODULE))
            if isinstance(node, ast.ClassDef):
                for member in _class_members(node):
                    defs.setdefault(member.name, []).append(
                        (where, member.lineno, MEMBER)
                    )
    return defs


def _owners(body: List[ast.stmt], owner: Dict[int, Set[str]]) -> None:
    """Record, for every node, the names of the defs it sits inside."""
    for node in body:
        if isinstance(node, _DEF_TYPES):
            for sub in ast.walk(node):
                owner.setdefault(id(sub), set()).add(node.name)
            if isinstance(node, ast.ClassDef):
                _owners(node.body, owner)


def _used_names() -> Dict[str, Set[str]]:
    """Identifiers used outside their own def, by kind of use.

    ``MODULE`` holds every identifier loaded as a ``Name`` or read as an
    ``Attribute``; ``MEMBER`` only the ``Attribute`` reads.
    """
    used: Dict[str, Set[str]] = {MODULE: set(), MEMBER: set()}
    for top in USE_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            owner: Dict[int, Set[str]] = {}
            _owners(tree.body, owner)
            for node in ast.walk(tree):
                if not isinstance(getattr(node, "ctx", None), ast.Load):
                    continue  # binding a name is no use of it
                if isinstance(node, ast.Name):
                    name, kinds = node.id, (MODULE,)
                elif isinstance(node, ast.Attribute):
                    name, kinds = node.attr, (MODULE, MEMBER)
                else:
                    continue
                if name not in owner.get(id(node), ()):
                    for kind in kinds:
                        used[kind].add(name)
    return used


@pytest.fixture(scope="module")
def scan():
    return _module_defs(), _used_names()


def test_every_src_def_is_reached(scan):
    defs, used = scan
    unreached = [
        f"{path}:{line} {name}"
        for name, places in sorted(defs.items())
        if name not in ALLOWED_UNREACHED
        for path, line, kind in places
        if name not in used[kind]
    ]
    assert not unreached, (
        "defs no src/benchmarks/atmbench/examples path uses "
        "(delete them, or move test oracles under tests/):\n" + "\n".join(unreached)
    )


def test_allowlist_is_current(scan, parameter_scan):
    defs, used = scan
    stale = sorted(
        name
        for name in ALLOWED_UNREACHED
        if name not in defs or all(name in used[kind] for _, _, kind in defs[name])
    )
    assert not stale, f"allowlist entries that are gone or now reached: {stale}"
    _, flagged, _ = parameter_scan
    stale = sorted(key for key in ALLOWED_PARAMETERS if key not in flagged)
    assert not stale, f"parameter allowlist entries that are gone or now set: {stale}"
    assert all(reason.strip() for reason in ALLOWED_PARAMETERS.values())


#: A defaulted parameter: its name, its position among the arguments a
#: call passes (``None`` for keyword-only), and its default.
_Param = Tuple[str, Optional[int], ast.expr]


def _defaulted(fn: ast.FunctionDef, bound: bool) -> List[_Param]:
    """The parameters of ``fn`` that have a default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    params: List[_Param] = [
        (arg.arg, first + i - bound, default)
        for i, (arg, default) in enumerate(zip(positional[first:], args.defaults))
    ]
    params += [
        (arg.arg, None, default)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return params


def _callees(
    body: List[ast.stmt], prefix: str = ""
) -> Iterator[Tuple[str, str, int, List[_Param]]]:
    """``(called name, key prefix, line, defaulted params)`` per def.

    A method is called by its own name, ``__init__`` by its class's name;
    other dunders are called implicitly and are skipped.
    """
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _callees(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not prefix:
                yield node.name, node.name, node.lineno, _defaulted(node, False)
            elif node.name == "__init__":
                cls = prefix[:-1]
                yield cls.rsplit(".", 1)[-1], cls, node.lineno, _defaulted(node, True)
            elif not node.name.startswith("__"):
                static = any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in node.decorator_list
                )
                yield node.name, prefix + node.name, node.lineno, _defaulted(node, not static)


#: The arguments of one call: positional expressions and keyword map.
_Call = Tuple[List[ast.expr], Dict[str, ast.expr]]


def _not_values(tree: ast.AST) -> Set[int]:
    """Ids of loads that pass no def as a value.

    Called functions, the object of an attribute read (``Cls.attr``),
    annotations and ``isinstance``/``issubclass`` class arguments.
    """
    ids: Set[int] = set()

    def skip(sub: Optional[ast.AST]) -> None:
        if sub is not None:
            ids.update(id(n) for n in ast.walk(sub))

    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            ids.add(id(node.func))
            if isinstance(node.func, ast.Name) and node.func.id in ("isinstance", "issubclass"):
                for arg in node.args[1:]:
                    skip(arg)
        elif isinstance(node, ast.Attribute):
            ids.add(id(node.value))
        elif isinstance(node, ast.arg):
            skip(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            skip(node.returns)
        elif isinstance(node, ast.AnnAssign):
            skip(node.annotation)
    return ids


def _calls(trees: Iterable[ast.AST]) -> Tuple[Dict[str, List[_Call]], Set[str]]:
    """Calls by called name, and the names whose arguments are unknown."""
    calls: Dict[str, List[_Call]] = {}
    unknown: Set[str] = set()
    for tree in trees:
        not_values = _not_values(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    name = func.id
                elif isinstance(func, ast.Attribute):
                    name = func.attr
                else:
                    continue
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                if starred or any(k.arg is None for k in node.keywords):
                    unknown.add(name)
                else:
                    kwargs = {k.arg: k.value for k in node.keywords}
                    calls.setdefault(name, []).append((node.args, kwargs))
            elif (
                isinstance(getattr(node, "ctx", None), ast.Load)
                and id(node) not in not_values
            ):
                if isinstance(node, ast.Name):
                    unknown.add(node.id)
                elif isinstance(node, ast.Attribute):
                    unknown.add(node.attr)
    return calls, unknown


def _unset_parameters(
    callees: Dict[str, ast.Module], callers: Iterable[ast.AST]
) -> Tuple[Set[str], Dict[str, str], Set[str]]:
    """Every defaulted parameter's key, the flagged ones with why, and the
    skipped ones (their def's arguments are unknown).

    ``callees`` maps a path to a parsed module whose defs are checked;
    ``callers`` are the parsed modules whose calls count.
    """
    calls, unknown = _calls(callers)
    keys: Set[str] = set()
    flagged: Dict[str, str] = {}
    skipped: Set[str] = set()
    for where, tree in callees.items():
        for name, prefix, line, params in _callees(tree.body):
            for param, position, default in params:
                key = f"{prefix}({param})"
                keys.add(key)
                if name in unknown:
                    skipped.add(key)
                    continue
                passed = [
                    kwargs[param] if param in kwargs else args[position]
                    for args, kwargs in calls.get(name, ())
                    if param in kwargs or (position is not None and position < len(args))
                ]
                if not passed:
                    flagged[key] = f"{where}:{line} {key}: no call sets it"
                elif all(ast.dump(arg) == ast.dump(default) for arg in passed):
                    flagged[key] = (
                        f"{where}:{line} {key}: every call passes the default "
                        f"{ast.unparse(default)}"
                    )
    return keys, flagged, skipped


@pytest.fixture(scope="module")
def parameter_scan():
    callees = {
        str(path.relative_to(ROOT)): ast.parse(path.read_text())
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    callers = [
        ast.parse(path.read_text())
        for top in USE_DIRS
        for path in sorted((ROOT / top).rglob("*.py"))
    ]
    return _unset_parameters(callees, callers)


def test_every_defaulted_parameter_is_set(parameter_scan):
    _, flagged, _ = parameter_scan
    unset = [why for key, why in sorted(flagged.items()) if key not in ALLOWED_PARAMETERS]
    assert not unset, (
        "defaulted parameters no src/benchmarks/atmbench/examples call sets to "
        "another value (delete them, or make them constants):\n" + "\n".join(unset)
    )


def test_every_skipped_parameter_is_hand_checked(parameter_scan):
    _, _, skipped = parameter_scan
    unlisted = sorted(skipped - set(HAND_CHECKED))
    assert not unlisted, (
        "defaulted parameters of defs the scan skips (loaded as a value or "
        "called with */**): check who sets each by hand, then list it in "
        f"HAND_CHECKED with that caller: {unlisted}"
    )
    stale = sorted(set(HAND_CHECKED) - skipped)
    assert not stale, f"HAND_CHECKED entries the scan no longer skips: {stale}"
    assert all(reason.strip() for reason in HAND_CHECKED.values())


_SYNTHETIC_CALLEE = """
def never(a, b=1): ...
def always(a, b=2): ...
def by_position(a, b=1): ...
def by_keyword(a, *, b=1): ...
def by_reference(a, b=1): ...
def starred(a, b=1): ...
def double_starred(a, b=1): ...
class Box:
    def __init__(self, a, b=1): ...
    def method(self, a, b=1): ...
    @staticmethod
    def static(a, b=1): ...
"""

_SYNTHETIC_CALLER = """
never(0)
always(0, 2)
always(0, b=2)
by_position(0, 5)
by_keyword(0, b=5)
hook = by_reference
starred(*args)
double_starred(0, **kwargs)
box = Box(0, 3)
box.method(0)
Box.static(0, 4)
def typed(x: never) -> always: ...
"""


def test_parameter_scan_on_synthetic_source():
    keys, flagged, skipped = _unset_parameters(
        {"callee.py": ast.parse(_SYNTHETIC_CALLEE)}, [ast.parse(_SYNTHETIC_CALLER)]
    )
    assert "Box(b)" in keys and "Box.static(b)" in keys
    assert set(flagged) == {"never(b)", "always(b)", "Box.method(b)"}
    assert "no call sets it" in flagged["never(b)"]
    assert "every call passes the default 2" in flagged["always(b)"]
    assert skipped == {"by_reference(b)", "starred(b)", "double_starred(b)"}
