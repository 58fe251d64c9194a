"""Unit tests of the content-addressed artifact store and its fingerprints."""

import dataclasses
import enum
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.store import (
    CONTAINER_MAGIC,
    STORE_SCHEMA,
    ArtifactKey,
    ArtifactStore,
    config_fingerprint,
    data_fingerprint,
    default_store,
    get_codec,
    register_codec,
    registered_stages,
)

STAGE = "store_unit_test"


def _encode(value):
    return {"payload": np.asarray(value["payload"], dtype=float)}, value["meta"]


def _decode(arrays, meta):
    return {"payload": np.array(arrays["payload"], dtype=float), "meta": meta}


register_codec(STAGE, _encode, _decode)


def _key(config_fp="cfg", data=None):
    data = np.arange(6.0).reshape(2, 3) if data is None else data
    return ArtifactKey(
        stage=STAGE, data_fp=data_fingerprint(data), config_fp=config_fp
    )


def _value(scale=1.0):
    return {"payload": scale * np.arange(6.0).reshape(2, 3), "meta": {"k": 1}}


# ------------------------------------------------------------- fingerprints
class TestDataFingerprint:
    def test_deterministic(self):
        a = np.random.default_rng(0).normal(size=(4, 9))
        assert data_fingerprint(a) == data_fingerprint(a.copy())

    def test_content_sensitive(self):
        a = np.zeros((3, 3))
        b = a.copy()
        b[1, 1] = 1e-12
        assert data_fingerprint(a) != data_fingerprint(b)

    def test_shape_sensitive(self):
        a = np.arange(12.0)
        assert data_fingerprint(a.reshape(3, 4)) != data_fingerprint(a.reshape(4, 3))


class _Color(enum.Enum):
    RED = "red"
    BLUE = "blue"


class TestConfigFingerprint:
    def test_field_order_stable(self):
        fields_ab = dataclasses.make_dataclass("Cfg", [("a", int), ("b", str)])
        fields_ba = dataclasses.make_dataclass("Cfg", [("b", str), ("a", int)])
        assert config_fingerprint(fields_ab(a=1, b="x")) == config_fingerprint(
            fields_ba(b="x", a=1)
        )

    def test_value_sensitive(self):
        cls = dataclasses.make_dataclass("Cfg", [("a", int)])
        assert config_fingerprint(cls(a=1)) != config_fingerprint(cls(a=2))

    def test_class_name_sensitive(self):
        one = dataclasses.make_dataclass("One", [("a", int)])
        two = dataclasses.make_dataclass("Two", [("a", int)])
        assert config_fingerprint(one(a=1)) != config_fingerprint(two(a=1))

    def test_enum_and_array_and_nan(self):
        a = config_fingerprint({"c": _Color.RED, "m": np.zeros(3), "x": float("nan")})
        b = config_fingerprint({"c": _Color.BLUE, "m": np.zeros(3), "x": float("nan")})
        assert a != b
        assert a == config_fingerprint(
            {"c": _Color.RED, "m": np.zeros(3), "x": float("nan")}
        )

    def test_enum_distinct_from_value(self):
        assert config_fingerprint(_Color.RED) != config_fingerprint("red")

    def test_nested_containers(self):
        assert config_fingerprint([1, (2, 3), {"k": None}]) == config_fingerprint(
            [1, [2, 3], {"k": None}]
        )

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError, match="cannot fingerprint"):
            config_fingerprint(object())


class TestArtifactKey:
    def test_schema_default(self):
        assert _key().schema == STORE_SCHEMA

    def test_digest_sensitive_to_every_component(self):
        base = _key()
        assert base.digest() == _key().digest()
        others = [
            dataclasses.replace(base, stage="other"),
            dataclasses.replace(base, data_fp="other"),
            dataclasses.replace(base, config_fp="other"),
            dataclasses.replace(base, schema="repro.store/v0"),
        ]
        assert len({base.digest(), *[k.digest() for k in others]}) == 5


# -------------------------------------------------------------------- store
class TestDisabledStore:
    def test_get_misses_and_put_is_dropped(self):
        """Without a root nothing is cached, not even in-process."""
        store = ArtifactStore(root=None)
        assert not store.persistent
        key = _key()
        assert store.get(key) is None
        store.put(key, _value())
        assert store.get(key) is None

    def test_nothing_shared_across_instances(self):
        """A put on one root-less store is not seen by another."""
        key = _key()
        ArtifactStore(root=None).put(key, _value())
        assert ArtifactStore(root=None).get(key) is None


class TestDiskTier:
    def test_round_trip_through_disk(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        key = _key()
        value = _value(scale=np.pi)
        store.put(key, value)
        path = store.path_for(key)
        assert path is not None and path.exists()
        obs.reset_metrics()
        out = store.get(key)
        assert out is not None
        np.testing.assert_array_equal(out["payload"], value["payload"])
        assert out["meta"] == value["meta"]
        counters = obs.metrics_snapshot()["counters"]
        assert counters.get(f"store.{STAGE}.hit_disk") == 1

    def test_every_get_reads_the_disk(self, tmp_path):
        """No hit is promoted into process memory: each get decodes a copy,
        and a second store on the same root sees the same artifacts."""
        store = ArtifactStore(root=tmp_path)
        key = _key()
        store.put(key, _value())
        obs.reset_metrics()
        first = store.get(key)
        second = ArtifactStore(root=tmp_path).get(key)
        assert first is not second
        np.testing.assert_array_equal(first["payload"], second["payload"])
        counters = obs.metrics_snapshot()["counters"]
        assert counters.get(f"store.{STAGE}.hit_disk") == 2

    def test_float_payload_bit_identical(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        payload = np.random.default_rng(3).normal(size=(5, 7))
        payload[0, 0] = np.nan
        key = _key()
        store.put(key, {"payload": payload, "meta": {"x": float("nan")}})
        out = store.get(key)
        assert repr(out["payload"].tolist()) == repr(payload.tolist())

    def test_corrupt_file_is_a_miss(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        key = _key()
        store.put(key, _value())
        path = store.path_for(key)
        path.write_bytes(b"this is not an npz file")
        obs.reset_metrics()
        assert store.get(key) is None
        assert obs.metrics_snapshot()["counters"].get(f"store.{STAGE}.corrupt") == 1

    def test_truncated_file_is_a_miss(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        key = _key()
        store.put(key, _value())
        path = store.path_for(key)
        path.write_bytes(path.read_bytes()[: 20])
        assert store.get(key) is None

    def test_header_mismatch_is_stale(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        key = _key(config_fp="cfg-one")
        other = _key(config_fp="cfg-two")
        store.put(key, _value())
        # Masquerade key's artifact as other's: the content-addressed path
        # matches but the embedded header does not.
        other_path = store.path_for(other)
        other_path.parent.mkdir(parents=True, exist_ok=True)
        store.path_for(key).rename(other_path)
        obs.reset_metrics()
        assert store.get(other) is None
        assert obs.metrics_snapshot()["counters"].get(f"store.{STAGE}.stale") == 1

    def test_unregistered_stage_skips_disk(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        key = ArtifactKey(stage="no_such_codec", data_fp="d", config_fp="c")
        store.put(key, {"anything": 1})
        assert store.path_for(key) is not None
        assert not store.path_for(key).exists()
        assert store.get(key) is None

    def test_write_failure_degrades_to_no_op(self, tmp_path):
        store = ArtifactStore(root=tmp_path / "file-not-dir")
        (tmp_path / "file-not-dir").write_text("occupied")
        obs.reset_metrics()
        store.put(_key(), _value())  # must not raise
        counters = obs.metrics_snapshot()["counters"]
        assert counters.get(f"store.{STAGE}.write_errors") == 1


    def test_put_into_fresh_root_round_trips(self, tmp_path):
        store = ArtifactStore(root=tmp_path / "not" / "yet" / "made")
        key = _key()
        store.put(key, _value(scale=2.0))
        np.testing.assert_array_equal(
            store.get(key)["payload"], _value(scale=2.0)["payload"]
        )

    def test_put_after_directory_removed_round_trips(self, tmp_path):
        import shutil

        store = ArtifactStore(root=tmp_path)
        first, second = _key(config_fp="one"), _key(config_fp="two")
        store.put(first, _value())
        shutil.rmtree(tmp_path / STAGE)
        obs.reset_metrics()
        store.put(second, _value(scale=3.0))
        assert obs.metrics_snapshot()["counters"].get(f"store.{STAGE}.writes") == 1
        np.testing.assert_array_equal(
            store.get(second)["payload"], _value(scale=3.0)["payload"]
        )
        assert store.get(first) is None

    def test_existing_directory_is_not_created_again(self, tmp_path, monkeypatch):
        store = ArtifactStore(root=tmp_path)
        key = _key()
        store.put(key, _value())
        calls = []
        real_mkdir = type(tmp_path).mkdir

        def counting_mkdir(path, *args, **kwargs):
            calls.append(path)
            return real_mkdir(path, *args, **kwargs)

        monkeypatch.setattr(type(tmp_path), "mkdir", counting_mkdir)
        store.put(key, _value(scale=5.0))
        assert calls == []
        np.testing.assert_array_equal(
            store.get(key)["payload"], _value(scale=5.0)["payload"]
        )

    def test_headers_read_keys_and_meta_of_readable_files(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        good, torn = _key(config_fp="good"), _key(config_fp="torn")
        store.put(good, _value())
        store.put(torn, _value())
        store.path_for(torn).write_bytes(b"not an npz file")
        found = list(store.headers(STAGE))
        assert [(path, key, meta) for path, key, meta in found] == [
            (store.path_for(good), good, {"k": 1})
        ]
        assert list(store.headers(STAGE, skip={store.path_for(good)})) == []
        assert list(store.headers("no_such_stage")) == []


def _put_many(root, scale, n):
    """Pool target: ``n`` puts of one key (module-level: picklable)."""
    store = ArtifactStore(root=root)
    for _ in range(n):
        store.put(_key(), _value(scale=scale))


class TestWritePath:
    """One in-memory container, one write to a ``.tmp-`` sibling, ``os.replace``."""

    @staticmethod
    def _temps(root):
        return sorted(root.rglob(".tmp-*"))

    def test_no_temp_file_left_after_a_put(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        store.put(_key(), _value())
        store.put(_key(), _value(scale=2.0))  # replaces the first file
        assert self._temps(tmp_path) == []
        assert sorted(tmp_path.rglob("*.npz")) == [store.path_for(_key())]

    @pytest.mark.parametrize("failing", ["replace", "write", "encode"])
    def test_no_temp_file_left_after_a_failed_put(self, tmp_path, monkeypatch, failing):
        from repro.store import artifacts, codecs

        def boom(*args, **kwargs):
            raise OSError("injected")

        if failing == "replace":
            monkeypatch.setattr(artifacts.os, "replace", boom)
        elif failing == "write":
            monkeypatch.setattr(artifacts.os, "write", boom)
        else:
            monkeypatch.setitem(codecs._CODECS, STAGE, codecs.Codec(STAGE, boom, _decode))
        store = ArtifactStore(root=tmp_path)
        obs.reset_metrics()
        store.put(_key(), _value())  # must not raise
        counters = obs.metrics_snapshot()["counters"]
        assert counters.get(f"store.{STAGE}.write_errors") == 1
        assert f"store.{STAGE}.writes" not in counters
        assert self._temps(tmp_path) == []
        assert not store.path_for(_key()).exists()

    def test_new_file_round_trips_through_get_and_headers(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        key = _key()
        value = _value(scale=np.e)
        store.put(key, value)
        out = store.get(key)
        assert out["payload"].tobytes() == value["payload"].tobytes()
        assert out["meta"] == value["meta"]
        assert list(store.headers(STAGE)) == [(store.path_for(key), key, {"k": 1})]
        # The store's own container, not a zip archive: the magic first,
        # the payload's raw bytes on a 64-byte boundary.
        data = store.path_for(key).read_bytes()
        assert data.startswith(CONTAINER_MAGIC)
        assert data.index(value["payload"].tobytes()) % 64 == 0

    def test_two_processes_putting_one_key_leave_one_readable_file(self, tmp_path):
        import multiprocessing

        context = multiprocessing.get_context("fork")
        writers = [
            context.Process(target=_put_many, args=(str(tmp_path), scale, 40))
            for scale in (1.0, 1.0)
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join()
        assert [writer.exitcode for writer in writers] == [0, 0]
        store = ArtifactStore(root=tmp_path)
        assert sorted(tmp_path.rglob("*.npz")) == [store.path_for(_key())]
        assert self._temps(tmp_path) == []
        np.testing.assert_array_equal(store.get(_key())["payload"], _value()["payload"])

    def test_leftover_temp_file_with_a_colliding_name_cannot_fail_a_put(
        self, tmp_path, monkeypatch
    ):
        from repro.store import artifacts

        store = ArtifactStore(root=tmp_path)
        key = _key()
        path = store.path_for(key)
        path.parent.mkdir(parents=True)
        leftover = path.parent / ".tmp-leftover.npz"
        leftover.write_bytes(b"a killed writer's partial file")
        names = iter([leftover.name, leftover.name])
        real = artifacts._temp_name
        monkeypatch.setattr(artifacts, "_temp_name", lambda: next(names, None) or real())
        obs.reset_metrics()
        store.put(key, _value(scale=4.0))
        assert obs.metrics_snapshot()["counters"].get(f"store.{STAGE}.writes") == 1
        np.testing.assert_array_equal(store.get(key)["payload"], _value(scale=4.0)["payload"])
        assert leftover.read_bytes() == b"a killed writer's partial file"
        assert [found for found, _, _ in store.headers(STAGE)] == [path]


CONTAINER_STAGE = "store_container_test"

# Arrays in, arrays out: the container alone decides what comes back.
register_codec(CONTAINER_STAGE, lambda arrays: (arrays, None), lambda arrays, meta: arrays)


def _plant_npz(store, key, arrays, meta):
    """Write ``key``'s file as the npz layout of earlier versions did."""
    path = store.path_for(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "schema": key.schema, "stage": key.stage,
        "data_fp": key.data_fp, "config_fp": key.config_fp, "meta": meta,
    }
    with open(path, "wb") as handle:
        np.savez(
            handle,
            __meta__=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
            **arrays,
        )
    return path


def _damage(data: bytes, how: str) -> bytes:
    if how == "bad magic":
        return b"\x00" + data[1:]
    if how == "header length past end of file":
        return data[:8] + (len(data)).to_bytes(8, "little") + data[16:]
    assert how == "array extent past end of file"
    return data[:-1]


class TestContainer:
    """What the store reads back from its own files, and what it refuses."""

    def test_old_npz_file_is_a_corrupt_miss_that_the_next_put_replaces(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        key = _key()
        path = _plant_npz(store, key, {"payload": _value()["payload"]}, {"k": 1})
        obs.reset_metrics()
        assert store.get(key) is None
        counters = obs.metrics_snapshot()["counters"]
        assert counters.get(f"store.{STAGE}.corrupt") == 1
        assert f"store.{STAGE}.stale" not in counters
        assert list(store.headers(STAGE)) == []
        store.put(key, _value(scale=2.0))
        assert path.read_bytes().startswith(CONTAINER_MAGIC)
        np.testing.assert_array_equal(store.get(key)["payload"], _value(scale=2.0)["payload"])
        assert [found for found, _, _ in store.headers(STAGE)] == [path]

    @pytest.mark.parametrize(
        "how",
        ["bad magic", "header length past end of file", "array extent past end of file"],
    )
    def test_damaged_file_is_a_corrupt_miss(self, tmp_path, how):
        store = ArtifactStore(root=tmp_path)
        key = _key()
        store.put(key, _value())
        path = store.path_for(key)
        path.write_bytes(_damage(path.read_bytes(), how))
        obs.reset_metrics()
        assert store.get(key) is None  # must not raise
        assert obs.metrics_snapshot()["counters"].get(f"store.{STAGE}.corrupt") == 1
        readable = [found for found, _, _ in store.headers(STAGE)]
        # The header of a file whose last array is cut short is whole.
        assert readable == ([path] if how == "array extent past end of file" else [])

    def test_object_dtype_is_refused_at_put(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        key = ArtifactKey(stage=CONTAINER_STAGE, data_fp="d", config_fp="c")
        obs.reset_metrics()
        store.put(key, {"objects": np.array([{"a": 1}, None], dtype=object)})
        counters = obs.metrics_snapshot()["counters"]
        assert counters.get(f"store.{CONTAINER_STAGE}.write_errors") == 1
        assert not store.path_for(key).exists()
        assert list(tmp_path.rglob(".tmp-*")) == []

    def test_decoded_arrays_are_read_only(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        key = ArtifactKey(stage=CONTAINER_STAGE, data_fp="d", config_fp="c")
        store.put(key, {"a": np.arange(4.0), "b": np.zeros((2, 2), dtype=np.int64)})
        out = store.get(key)
        assert sorted(out) == ["a", "b"]
        for array in out.values():
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 1

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_arrays_round_trip_bit_for_bit(self, tmp_path_factory, data):
        from hypothesis.extra import numpy as hnp

        specials = st.sampled_from([np.nan, -0.0, 0.0, np.inf, -np.inf])
        elements = {
            "bool": st.booleans(),
            "int64": st.integers(-(2**63), 2**63 - 1),
            "float64": st.floats(allow_nan=True, allow_infinity=True) | specials,
        }
        arrays = {}
        for i in range(data.draw(st.integers(0, 4), label="n_arrays")):
            dtype = data.draw(st.sampled_from(sorted(elements)), label="dtype")
            array = data.draw(
                hnp.arrays(
                    dtype, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
                    elements=elements[dtype],
                ),
                label="array",
            )
            view = data.draw(st.sampled_from(["as is", "transposed", "strided"]), label="view")
            if view == "transposed":
                array = array.T
            elif view == "strided" and array.ndim:
                array = array[..., ::2]
            arrays[f"a{i}"] = array
        store = ArtifactStore(root=tmp_path_factory.mktemp("container"))
        key = ArtifactKey(stage=CONTAINER_STAGE, data_fp="d", config_fp="c")
        store.put(key, arrays)
        out = store.get(key)
        assert sorted(out) == sorted(arrays)
        for name, array in arrays.items():
            assert out[name].dtype == array.dtype
            assert out[name].shape == array.shape
            assert out[name].tobytes() == array.tobytes()


def test_every_registered_stage_round_trips_equal(tmp_path, monkeypatch):
    """Each production stage's stored artifacts decode to a value whose
    re-encoding equals what the file holds."""
    from repro.core import AtmConfig, run_fleet_atm
    from repro.core.stages import BOX_RESULT_STAGE, FORECAST_STAGE, RESIZE_EVAL_STAGE
    from repro.prediction.spatial.signatures import SPATIAL_STAGE, ClusteringMethod
    from repro.prediction.temporal.neural import MlpConfig
    from repro.prediction.temporal.warm import WARM_STAGE, fit_neural_fleet_warm
    from repro.resizing.evaluate import ResizingAlgorithm, evaluate_fleet_resizing
    from repro.store.artifacts import _unpack
    from repro.tickets.ops import OpsConfig, run_fleet_ops
    from repro.tickets.ops.evidence import EVIDENCE_STAGE
    from repro.tickets.ops.pipeline import TICKET_OPS_STAGE
    from repro.tickets.policy import TicketPolicy
    from repro.trace.generator import FleetConfig, generate_fleet

    production = {
        SPATIAL_STAGE, FORECAST_STAGE, BOX_RESULT_STAGE, RESIZE_EVAL_STAGE,
        TICKET_OPS_STAGE, EVIDENCE_STAGE, WARM_STAGE,
    }
    assert set(registered_stages()) - {STAGE, CONTAINER_STAGE} == production
    monkeypatch.setenv("REPRO_STORE", str(tmp_path))
    fleet = generate_fleet(FleetConfig(n_boxes=2, days=2, seed=13))
    atm = AtmConfig.with_clustering(
        ClusteringMethod.CBC, temporal_model="seasonal_mean",
        training_windows=96, horizon_windows=96,
    )
    run_fleet_atm(fleet, atm)
    run_fleet_ops(fleet, OpsConfig(atm=atm))
    evaluate_fleet_resizing(fleet, TicketPolicy(60.0), (ResizingAlgorithm.ATM,), eval_windows=96)
    history = 50.0 + 10.0 * np.sin(np.arange(60) / 3.0)
    fit_neural_fleet_warm(
        [([history, history[::-1]], None)],
        MlpConfig(hidden_layers=(4,), period=8, max_epochs=3),
    )

    store = default_store()
    for stage in sorted(production):
        found = list(store.headers(stage))
        assert found, f"no {stage} artifact was stored"
        for path, key, meta in found:
            header, arrays = _unpack(path.read_bytes())
            again, again_meta = get_codec(stage).encode(store.get(key))
            # Through JSON: tuples come back as lists, and NaN == NaN.
            assert json.dumps(again_meta, sort_keys=True) == json.dumps(meta, sort_keys=True), stage
            assert sorted(again) == sorted(arrays), stage
            for name, array in again.items():
                array = np.asarray(array)
                assert array.dtype == arrays[name].dtype, (stage, name)
                assert array.shape == arrays[name].shape, (stage, name)
                assert array.tobytes() == arrays[name].tobytes(), (stage, name)


class TestDefaultStore:
    def test_follows_environment(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert not default_store().persistent
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        store = default_store()
        assert store.persistent and store.root == tmp_path
        monkeypatch.delenv("REPRO_STORE")
        assert not default_store().persistent


class TestCodecRegistry:
    def test_registered_stages_include_pipeline_stages(self):
        stages = registered_stages()
        for name in ("spatial", "forecast", "box_result", "resize_eval", STAGE):
            assert name in stages
            assert get_codec(name) is not None

    def test_unknown_stage_has_no_codec(self):
        assert get_codec("definitely-not-registered") is None
