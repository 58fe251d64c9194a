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
"""

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
USE_DIRS = ("src", "benchmarks", "atmbench", "examples")

#: Defs kept in ``src/`` although no production path names them.
ALLOWED_UNREACHED = {
    "shard_cluster_csv": "trace loader, the only non-synthetic input path; kept by decision",
    "save_fleet_shards": "trace loader, the only non-synthetic input path; kept by decision",
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


def test_allowlist_is_current(scan):
    defs, used = scan
    stale = sorted(
        name
        for name in ALLOWED_UNREACHED
        if name not in defs or all(name in used[kind] for _, _, kind in defs[name])
    )
    assert not stale, f"allowlist entries that are gone or now reached: {stale}"
