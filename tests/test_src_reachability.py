"""Every def in ``src/repro`` is reached from a non-test path.

A function, class or method that only the tests call is either dead or an
oracle; oracles belong under ``tests/`` (see
``tests/prediction/mlp_oracle.py``).  This guard parses every
``src/repro`` module and fails on any module-level ``def``/``class``, or
public ``def`` in a class body, whose name is never *used* — loaded as a
``Name`` or read as an ``Attribute`` — in ``src/``, ``benchmarks/``,
``atmbench/`` or ``examples/``.  Imports (so ``__init__`` re-exports),
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
    "signature_cache_enabled": "state accessor of the signature-cache runtime switch",
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


def _module_defs() -> Dict[str, List[Tuple[str, int]]]:
    """Map each scanned def name in ``src/repro`` to its locations."""
    defs: Dict[str, List[Tuple[str, int]]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, _DEF_TYPES):
                continue
            scanned = [] if node.name.startswith("__") else [node]
            if isinstance(node, ast.ClassDef):
                scanned += _class_members(node)
            for def_ in scanned:
                where = (str(path.relative_to(ROOT)), def_.lineno)
                defs.setdefault(def_.name, []).append(where)
    return defs


def _owners(body: List[ast.stmt], owner: Dict[int, Set[str]]) -> None:
    """Record, for every node, the names of the defs it sits inside."""
    for node in body:
        if isinstance(node, _DEF_TYPES):
            for sub in ast.walk(node):
                owner.setdefault(id(sub), set()).add(node.name)
            if isinstance(node, ast.ClassDef):
                _owners(node.body, owner)


def _used_names() -> Set[str]:
    """Every identifier used as a ``Name`` or ``Attribute`` outside its own def."""
    used: Set[str] = set()
    for top in USE_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            owner: Dict[int, Set[str]] = {}
            _owners(tree.body, owner)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name not in owner.get(id(node), ()):
                    used.add(name)
    return used


@pytest.fixture(scope="module")
def scan():
    return _module_defs(), _used_names()


def test_every_src_def_is_reached(scan):
    defs, used = scan
    unreached = [
        f"{path}:{line} {name}"
        for name, places in sorted(defs.items())
        if name not in used and name not in ALLOWED_UNREACHED
        for path, line in places
    ]
    assert not unreached, (
        "defs no src/benchmarks/atmbench/examples path uses "
        "(delete them, or move test oracles under tests/):\n" + "\n".join(unreached)
    )


def test_allowlist_is_current(scan):
    defs, used = scan
    stale = sorted(name for name in ALLOWED_UNREACHED if name not in defs or name in used)
    assert not stale, f"allowlist entries that are gone or now reached: {stale}"
