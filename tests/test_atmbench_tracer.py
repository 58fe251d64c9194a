"""The names the benchmark's tracer wraps exist and sit on the fleet paths.

``atmbench/tracer.py`` patches ``repro`` functions by module and name
(its ``BOUNDARIES`` and ``ROOTS``, plus ``resolve_box``,
``FleetExecutor.imap`` and ``_run_chunk``), and its count functions read
the registry fitters' arguments by position or keyword.  A renamed or
re-shaped target makes ``install()`` raise or a count read the wrong
argument, and a fleet driver that stops calling a patched name leaves
its time on no layer; otherwise only a traced benchmark run would show
either.  The tracer module is loaded from its file, read-only; only the
subprocess test installs it, in a process of its own.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER_PATH = ROOT / "atmbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("atmbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets(tracer):
    """Every ``(module, attribute path)`` that ``install()`` patches."""
    targets = [(module, path) for module, path, _ in tracer.BOUNDARIES.values()]
    targets += list(tracer.ROOTS.values())
    targets += [
        ("repro.store.shards", "resolve_box"),
        ("repro.core.executor", "FleetExecutor.imap"),
        ("repro.core.executor", "_run_chunk"),
    ]
    return targets


def test_every_patched_name_resolves(tracer):
    missing = []
    for module_name, path in _targets(tracer):
        module = importlib.import_module(module_name)
        if "." in path:
            # A method is patched through its class's own __dict__.
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name, None)
            found = cls is not None and callable(cls.__dict__.get(attr))
        else:
            found = callable(getattr(module, path, None))
        if not found:
            missing.append(f"{module_name}.{path}")
    assert not missing, f"tracer targets that no longer exist: {missing}"


@pytest.mark.parametrize(
    "name, params",
    [
        ("fit_temporal_fleet_batch", ["name", "history_groups", "period", "states"]),
        ("fit_temporal_batch", ["name", "histories", "period"]),
        ("fit_temporal_batch_warm", ["name", "histories", "period", "warm"]),
    ],
)
def test_registry_fitters_keep_the_arguments_the_counts_read(name, params):
    """The counts read the histories as ``args[1]`` and ``warm`` by keyword."""
    registry = importlib.import_module("repro.prediction.registry")
    signature = inspect.signature(getattr(registry, name)).parameters.values()
    assert [p.name for p in signature] == params
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in signature)


#: Installs the tracer, runs one small fleet through both fleet drivers
#: and prints, per root, the ``models`` count of every ``fit_fused``
#: span under it, plus the fleet's signature count from a direct search.
_BOTH_DRIVERS = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("atmbench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
from repro.core import online, pipeline
from repro.core.config import AtmConfig
from repro.prediction.combined import SpatialTemporalConfig
from repro.prediction.spatial.signatures import search_signature_set
from repro.trace.generator import FleetConfig, generate_fleet

fleet = generate_fleet(FleetConfig(n_boxes=2, days=6, seed=11))
config = AtmConfig(prediction=SpatialTemporalConfig(temporal_model="seasonal_mean"))
signatures = sum(
    len(search_signature_set(
        box.demand_matrix()[:, : config.training_windows], config.prediction.search
    ).signature_indices)
    for box in fleet
)
tracer.install(tracer.Tracer(sys.argv[2], "probe"))
# Through the modules: install() re-binds the roots there, not here.
pipeline.run_fleet_atm(fleet, config, jobs=1)
online.run_online_fleet(fleet, config, jobs=1)

spans = tracer.load_spans(sys.argv[2])
by_id = {span["id"]: span for span in spans}
fused = {}
for span in spans:
    if span["name"] != "prediction.temporal.fit_fused":
        continue
    root = span
    while root["parent"] in by_id:
        root = by_id[root["parent"]]
    fused.setdefault(root["name"], []).append(span["counts"]["models"])
print(json.dumps({"signatures": signatures, "fused": fused}))
"""


def test_each_fleet_driver_fits_on_the_fused_boundary(tmp_path):
    """Both drivers' fit phases land on ``prediction.temporal.fit_fused``.

    Six days leave five to train and one step, so the online run's only
    step searches the offline training slice, and each root fits every
    box's signature series once.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _BOTH_DRIVERS, str(TRACER_PATH), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["signatures"] > 0
    for root in ("root.run_fleet_atm", "root.run_online_fleet"):
        models = report["fused"].get(root, [])
        assert models, f"no fit_fused span under {root}: {report}"
        assert sum(models) == report["signatures"], (root, report)
