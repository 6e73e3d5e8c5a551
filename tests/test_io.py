import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from wgwalk import io
from wgwalk.polarization import ReconstructionError, TomographyRecord

finite_floats = st.floats(allow_nan=False, allow_infinity=False)
float_arrays = arrays(
    np.float64,
    array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3),
    elements=finite_floats,
)
json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | finite_floats
    | st.text(alphabet=st.characters(), max_size=8)
    | st.sampled_from(['"', "\\", 'a"b\\c', "é中\U0001f600", "\n\t"])
)


def json_documents(leaves):
    """Dicts of nested lists and dicts of the given leaves."""
    return st.dictionaries(
        st.text(max_size=6),
        st.recursive(
            leaves,
            lambda children: st.lists(children, max_size=10)
            | st.dictionaries(st.text(max_size=6), children, max_size=10),
            max_leaves=24,
        ),
        max_size=10,
    )


documents = json_documents(json_leaves | float_arrays)


def plain(value):
    """The payload with every array replaced by its tolist(), for the stdlib."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, list):
        return [plain(v) for v in value]
    return value


class TestWriteJson:
    @settings(max_examples=150, deadline=None)
    @given(payload=documents)
    def test_bytes_equal_stdlib_dumps(self, tmp_path_factory, payload):
        path = tmp_path_factory.getbasetemp() / "doc.json"
        io.write_json(path, payload, digest="ab" * 32)
        document = {"meta": {"config_sha256": "ab" * 32, "tool_version": io.TOOL_VERSION}}
        document.update(plain(payload))
        expected = json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"
        assert path.read_text() == expected

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        values=arrays(np.float64, array_shapes(min_dims=0, max_dims=4, min_side=1, max_side=3)),
        bad=st.sampled_from([float("nan"), float("inf"), float("-inf")]),
        as_array=st.booleans(),
    )
    def test_non_finite_number_anywhere_raises(self, tmp_path_factory, data, values, bad, as_array):
        values[~np.isfinite(values)] = 0.0
        values.flat[data.draw(st.integers(0, values.size - 1))] = bad
        leaf = values if as_array else values.tolist()
        payload = {"a": [1.0, {"b": leaf}]}
        with pytest.raises(ValueError):
            json.dumps(plain(payload), allow_nan=False)
        with pytest.raises(ValueError):
            io.write_json(tmp_path_factory.getbasetemp() / "bad.json", payload)


class TestStreamedArrays:
    """Arrays of more than _BLOCK elements are written a block of rows at a time."""

    @pytest.mark.parametrize(
        "shape",
        [
            (4097,),
            (5000, 3),
            (2, 3000),
            (3, 2, 1500),
            (1, 4097),
            (300, 7, 2),
            (1024,),
            (1025,),
            (2, 512),
            (2, 513),
            (0, 3),
            (3, 0),
        ],
    )
    def test_bytes_equal_stdlib_dumps(self, tmp_path, shape):
        rng = np.random.default_rng(5)
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)
        values.flat[::7] = -0.0
        payload = {"deep": [{"a": values, "b": 1.5}, values[..., ::-1]], "top": values}
        io.write_json(tmp_path / "doc.json", payload)
        document = {"meta": {"tool_version": io.TOOL_VERSION}}
        document.update(plain(payload))
        expected = json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"
        assert (tmp_path / "doc.json").read_text() == expected

    def test_memory_does_not_grow_with_the_array(self, tmp_path):
        # a fan-in profile of 4000 steps for 48 cores; writing the document
        # as one string peaked at 69 MB here
        profile = np.random.default_rng(1).standard_normal((4001, 48, 2))
        payload = {"profile": {"positions_um": profile, "z_mm": profile[:, 0, 0].copy()}}
        tracemalloc.start()
        try:
            io.write_json(tmp_path / "layout.json", payload)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
        written = json.loads((tmp_path / "layout.json").read_text())
        assert written["profile"]["positions_um"] == profile.tolist()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_in_last_row_writes_no_file(self, tmp_path, bad):
        profile = np.zeros((4001, 48, 2))
        profile[-1, -1, -1] = bad
        with pytest.raises(ValueError):
            io.write_json(tmp_path / "layout.json", {"positions_um": profile})
        assert not (tmp_path / "layout.json").exists()


def ellipsoid_payload(n):
    """The shape of ``report``'s ellipsoids.json for an n-port chip."""
    rng = np.random.default_rng(3)

    def pair(out_port, in_port):
        return {
            "output_port": out_port + 1,
            "input_port": in_port + 1,
            "center": rng.standard_normal(3),
            "semi_axes": rng.random(3),
            "orientation": rng.standard_normal((3, 3)),
            "markers": {state: rng.standard_normal(3) for state in "HDR"},
            "average_power": float(rng.random()),
            "degenerate": bool(rng.random() < 0.1),
        }

    return {"ellipsoids": [[pair(o, i) for i in range(n)] for o in range(n)]}


class TestManySmallArrays:
    """A document of many small containers, which no array streaming covers."""

    def test_48_port_ellipsoids_hold_their_text_once(self, tmp_path):
        # the 2.8 MB text, written a row of pairs at a time; joining it at each
        # nesting level traced 8.7 MB here, and holding it once 3.4 MB
        payload = ellipsoid_payload(48)
        tracemalloc.start()
        try:
            io.write_json(tmp_path / "ellipsoids.json", payload, digest="ef" * 32)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1_000_000
        document = {"meta": {"config_sha256": "ef" * 32, "tool_version": io.TOOL_VERSION}}
        document.update(plain(payload))
        expected = json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"
        assert (tmp_path / "ellipsoids.json").read_text() == expected

    def test_non_finite_in_last_pair_writes_no_file(self, tmp_path):
        payload = ellipsoid_payload(48)
        payload["ellipsoids"][-1][-1]["markers"]["R"][-1] = np.nan
        with pytest.raises(ValueError, match="ellipsoids.json"):
            io.write_json(tmp_path / "ellipsoids.json", payload)
        assert not (tmp_path / "ellipsoids.json").exists()


class TestIterators:
    """An iterator is written as the list of its items, an item at a time."""

    def test_bytes_equal_stdlib_dumps_of_the_list(self, tmp_path):
        rows = [[{"a": np.arange(3.0) + k, "b": [k, None]}] * 2 for k in range(20)]
        payload = {
            "rows": iter(rows),
            "empty": iter(()),
            "few": [1.5, map(float, range(3)), {"deep": (x for x in ["s", True])}],
            "profile": np.linspace(0.0, 1.0, 5000),
        }
        io.write_json(tmp_path / "doc.json", payload, digest="ab" * 32)
        document = {"meta": {"config_sha256": "ab" * 32, "tool_version": io.TOOL_VERSION}}
        document.update(
            rows=plain(rows),
            empty=[],
            few=[1.5, [0.0, 1.0, 2.0], {"deep": ["s", True]}],
            profile=payload["profile"].tolist(),
        )
        expected = json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"
        assert (tmp_path / "doc.json").read_text() == expected

    @pytest.mark.parametrize(
        "item",
        [float("nan"), np.array([1.0, float("nan"), 2.0]), np.r_[np.zeros(1999), float("nan")]],
        ids=["float", "small_array", "large_array"],
    )
    def test_non_finite_in_an_item_raises_as_it_is_formatted(self, tmp_path, item):
        # check_finite does not see the items of an iterator
        payload = {"rows": iter([[1.0], {"value": item}])}
        io.check_finite("doc.json", payload)
        with pytest.raises(ValueError, match="not JSON compliant: nan"):
            io.write_json(tmp_path / "doc.json", payload)

    def test_check_neither_reads_nor_consumes_the_items(self):
        # whoever builds the items checks what they are built from
        rows = iter([[1.0], [float("inf")]])
        io.check_finite("doc.json", {"rows": rows})
        assert list(rows) == [[1.0], [float("inf")]]


class TestCheckFinite:
    @pytest.mark.parametrize(
        "content",
        [
            {"a": [1, {"b": np.array([0.0, np.nan])}]},
            {"a": float("inf")},
            np.full((3, 3), -np.inf),
            (["x", "y"], np.array([[1.0, np.nan]])),
            np.pad(np.zeros(5000), (0, 1), constant_values=np.nan),
            TomographyRecord(np.full((1, 6, 1, 6), np.nan)),
        ],
    )
    def test_non_finite_anywhere_names_the_artifact(self, content):
        with pytest.raises(ValueError, match="non-finite value .* in out.csv"):
            io.check_finite("out.csv", content)

    def test_finite_content_passes(self):
        io.check_finite("a.json", {"s": "nan", "n": None, "k": [1, True, 2.5, np.ones((70, 70))]})

    @pytest.mark.parametrize("writer", ["matrix", "table", "record"])
    def test_csv_writers_refuse_non_finite_and_write_nothing(self, tmp_path, writer):
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError):
            if writer == "matrix":
                io.write_table_csv(path, None, np.array([[1.0, np.nan]]))
            elif writer == "table":
                io.write_table_csv(path, ["a", "b"], np.array([[1.0, np.inf]]))
            else:
                io.write_record_csv(path, TomographyRecord(np.full((1, 6, 1, 6), np.nan)))
        assert not path.exists()


class TestCsvWriters:
    def test_rows_use_shortest_roundtrip_floats(self, tmp_path):
        rows = np.array([[0.1, -0.0, 1e-300], [2.0, 1 / 3, 5e22]])
        io.write_table_csv(tmp_path / "t.csv", ["a", "b", "c"], rows)
        io.write_table_csv(tmp_path / "m.csv", None, rows)
        body = ["0.1,-0.0,1e-300", "2.0,0.3333333333333333,5e+22"]
        assert (tmp_path / "t.csv").read_text().splitlines()[1:] == ["a,b,c"] + body
        assert (tmp_path / "m.csv").read_text().splitlines()[1:] == body

    def test_record_round_trips_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(11)
        scales = 10.0 ** rng.integers(-20, 20, (3, 6, 3, 6))
        record = TomographyRecord(rng.random((3, 6, 3, 6)) * scales)
        io.write_record_csv(tmp_path / "r.csv", record, digest="cd" * 32)
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert lines[2] == "input_port,input_state,output_port,analyzer,intensity"
        assert lines[3].startswith("1,H,1,H,") and lines[4].startswith("1,H,1,V,")
        assert lines[3 + 18].startswith("1,V,1,H,") and lines[-1].startswith("3,R,3,R,")
        back = io.read_record_csv(tmp_path / "r.csv")
        np.testing.assert_array_equal(back.intensities, record.intensities)

    def test_48_port_record_reads_in_bounded_memory(self, tmp_path):
        # 82,944 rows, whose np.loadtxt alone traces 2.2 MB with int32 ports and
        # S2 states, and 3.9 MB with int64 ports and U2 states; validating those
        # with per-state masks and separate key arrays traced 8.5 MB here, and
        # without them 4.3 MB
        record = TomographyRecord(np.random.default_rng(13).random((48, 6, 48, 6)))
        io.write_record_csv(tmp_path / "r.csv", record, digest="cd" * 32)
        tracemalloc.start()
        try:
            back = io.read_record_csv(tmp_path / "r.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3_500_000
        np.testing.assert_array_equal(back.intensities, record.intensities)
        assert io.csv_digest(tmp_path / "r.csv") == "cd" * 32


class TestReadTransferMatrix:
    DIGEST = "ab" * 32

    def write(self, path, matrix, digest=DIGEST):
        io.write_json(path, {"matrix_re_im": io.complex_matrix_payload(matrix)}, digest)

    def test_round_trips_bit_for_bit_with_signed_zeros(self, tmp_path):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        m[0, 0] = complex(-0.0, 0.0)
        m[1, 2] = complex(0.0, -0.0)
        m[3, 4] = complex(5e-324, -1.7976931348623157e308)
        self.write(tmp_path / "u.json", m)
        back = io.read_transfer_matrix(tmp_path / "u.json", self.DIGEST, 5)
        assert back.shape == (5, 5) and back.dtype == complex
        assert back.view(np.int64).tobytes() == m.view(np.int64).tobytes()

    @pytest.mark.parametrize(
        "case", ["missing", "other digest", "no digest", "other version", "shape", "nan", "truncated", "not a dict"]
    )
    def test_unusable_file_reads_none(self, tmp_path, case):
        path = tmp_path / "u.json"
        if case != "missing":
            self.write(path, np.eye(4), None if case == "no digest" else self.DIGEST)
        if case == "other version":
            path.write_text(path.read_text().replace(io.TOOL_VERSION, "0.0.0"))
        elif case == "shape":
            self.write(path, np.eye(4)[:3])
        elif case == "nan":
            document = json.loads(path.read_text())
            document["matrix_re_im"][1][2][0] = float("nan")
            path.write_text(json.dumps(document))
        elif case == "truncated":
            path.write_text(path.read_text()[:-40])
        elif case == "not a dict":
            path.write_text("[1, 2]")
        digest = "cd" * 32 if case == "other digest" else self.DIGEST
        assert io.read_transfer_matrix(path, digest, 4) is None


ROOT = Path(__file__).resolve().parents[1]
SHIPPED = sorted((ROOT / "configs").glob("*.json"))


def hashlib_digest(config):
    """hashlib's sha256 of the canonical blob that config_digest hashes."""
    payload = {k: v for k, v in config.items() if k != "out_dir"}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class TestConfigDigest:
    @pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
    def test_shipped_config_digest_equals_hashlib(self, path):
        config = json.loads(path.read_text())
        assert io.config_digest(config) == hashlib_digest(config)

    @settings(max_examples=200, deadline=None)
    @given(config=json_documents(json_leaves))
    def test_digest_equals_hashlib(self, config):
        assert io.config_digest(config) == hashlib_digest(config)

    def test_hashlib_fallback_gives_the_same_digest(self):
        # an interpreter without the built-in SHA-256 modules falls back to hashlib
        probe = (
            "import json, sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
            "import hashlib; from wgwalk import io; "
            "print(io.sha256 is hashlib.sha256); "
            "print(json.dumps([io.config_digest(json.load(open(p))) for p in sys.argv[1:]]))"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        result = subprocess.run(
            [sys.executable, "-c", probe, *map(str, SHIPPED)],
            env=env, capture_output=True, text=True, check=True,
        )
        fallback, digests = result.stdout.splitlines()
        assert fallback == "True"
        assert json.loads(digests) == [hashlib_digest(json.loads(p.read_text())) for p in SHIPPED]


class TestRefusedInput:
    def test_matrix_csv_of_only_comments_has_no_data_rows(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(f"# wgwalk {io.TOOL_VERSION}\n# config sha256 {'ab' * 32}\n\n")
        with pytest.raises(ValueError) as info:
            io.read_matrix_csv(path)
        assert str(info.value) == f"no data rows in {path}"

    @pytest.mark.parametrize(
        "leaf, message",
        [
            (object(), "Object of type object is not JSON serializable"),
            (np.arange(3), "array leaves must be floating point, not int64"),
        ],
        ids=["object", "integer array"],
    )
    def test_write_json_refuses_what_json_cannot_hold(self, tmp_path, leaf, message):
        with pytest.raises(TypeError) as info:
            io.write_json(tmp_path / "doc.json", {"a": [1.0, {"b": leaf}]})
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"a": object()}, "Object of type object is not JSON serializable"),
            ({"a": np.arange(3)}, "array leaves must be floating point, not int64"),
            ({"a": [np.int64(3)]}, "Object of type int64 is not JSON serializable"),
            ({1: 2.0}, "dict key 1 is not a string"),
        ],
        ids=["object", "integer array", "numpy integer", "integer key"],
    )
    def test_write_json_refuses_before_it_opens_the_file(self, tmp_path, payload, message):
        # the formatter would have left '{\n  "a": ', or an empty file, behind
        path = tmp_path / "doc.json"
        with pytest.raises(TypeError) as info:
            io.write_json(path, payload)
        assert str(info.value) == message
        assert info.value.__notes__ == ["in doc.json; no artifact written"]
        assert not path.exists()

    def test_check_finite_does_not_type_check_iterator_items(self):
        io.check_finite("doc.json", {"rows": iter([object(), {1: np.arange(3)}])})

    def _record(self, tmp_path):
        record = TomographyRecord(np.random.default_rng(17).random((2, 6, 2, 6)))
        path = tmp_path / "r.csv"
        io.write_record_csv(path, record, digest="cd" * 32)
        return record, path, path.read_text().splitlines(keepends=True)

    def test_record_without_its_column_header_reads_the_same(self, tmp_path):
        record, path, lines = self._record(tmp_path)
        assert lines[2].startswith("input_port,")
        path.write_text("".join(lines[:2] + lines[3:]))
        back = io.read_record_csv(path)
        np.testing.assert_array_equal(back.intensities, record.intensities)

    def test_valid_record_is_decoded_by_its_parser_alone(self, tmp_path, monkeypatch):
        # the whole-file reads that name an undecodable byte's line run only on failure
        record, path, _ = self._record(tmp_path)

        def refuse(self, *args, **kwargs):
            raise AssertionError(f"{self} read whole")

        monkeypatch.setattr(Path, "read_bytes", refuse)
        monkeypatch.setattr(Path, "read_text", refuse)
        back = io.read_record_csv(path)
        np.testing.assert_array_equal(back.intensities, record.intensities)
        assert io.csv_digest(path) == "cd" * 32

    @pytest.mark.parametrize("keep", [2, 3], ids=["only comments", "no rows"])
    def test_record_without_rows_is_refused(self, tmp_path, keep):
        _, path, lines = self._record(tmp_path)
        path.write_text("".join(lines[:keep]))
        with pytest.raises(ReconstructionError) as info:
            io.read_record_csv(path)
        assert str(info.value) == f"no record rows found in {path}"
        assert issubclass(ReconstructionError, ValueError)  # so main maps it to exit 3
