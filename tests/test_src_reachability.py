"""Every module-level def in ``src/repro`` is reached from a non-test path.

A function or class that only the tests call is either dead or an oracle;
oracles belong under ``tests/`` (see ``tests/prediction/mlp_oracle.py``).
This guard parses every ``src/repro`` module and fails on any module-level
``def``/``class`` whose name is never *used* — loaded as a ``Name`` or read
as an ``Attribute`` — in ``src/``, ``benchmarks/``, ``atmbench/`` or
``examples/``.  Imports (so ``__init__`` re-exports), ``__all__`` strings
and uses inside the def's own body do not count.  Names are matched by
identifier, not by module, so the check is a floor: a dead def that shares
its name with a live one slips through.
"""

import ast
from pathlib import Path
from typing import Dict, List, Set, Tuple

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
    "current_attempt": "state accessor of the fault-injection retry attempt",
    "shard_tier_active": "state accessor of the shard tier",
    "silhouette_values": "per-item form of the production silhouette kernel the tests pin",
}

_DEF_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _module_defs() -> Dict[str, List[Tuple[str, int]]]:
    """Map each module-level def name in ``src/repro`` to its locations."""
    defs: Dict[str, List[Tuple[str, int]]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, _DEF_TYPES) and not node.name.startswith("__"):
                where = (str(path.relative_to(ROOT)), node.lineno)
                defs.setdefault(node.name, []).append(where)
    return defs


def _used_names() -> Set[str]:
    """Every identifier used as a ``Name`` or ``Attribute`` outside its own def."""
    used: Set[str] = set()
    for top in USE_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            owner: Dict[int, str] = {}
            for node in tree.body:
                if isinstance(node, _DEF_TYPES):
                    for sub in ast.walk(node):
                        owner[id(sub)] = node.name
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if owner.get(id(node)) != name:
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
        "module-level defs no src/benchmarks/atmbench/examples path uses "
        "(delete them, or move test oracles under tests/):\n" + "\n".join(unreached)
    )


def test_allowlist_is_current(scan):
    defs, used = scan
    stale = sorted(name for name in ALLOWED_UNREACHED if name not in defs or name in used)
    assert not stale, f"allowlist entries that are gone or now reached: {stale}"
