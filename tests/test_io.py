import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from wgwalk import io
from wgwalk.polarization import TomographyRecord

finite_floats = st.floats(allow_nan=False, allow_infinity=False)
float_arrays = arrays(
    np.float64,
    array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3),
    elements=finite_floats,
)
leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | finite_floats
    | st.text(alphabet=st.characters(), max_size=8)
    | st.sampled_from(['"', "\\", 'a"b\\c', "é中\U0001f600", "\n\t"])
    | float_arrays
)
documents = st.dictionaries(
    st.text(max_size=6),
    st.recursive(
        leaves,
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=6), children, max_size=4),
        max_leaves=16,
    ),
    max_size=5,
)


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


class TestCsvWriters:
    def test_rows_use_shortest_roundtrip_floats(self, tmp_path):
        rows = np.array([[0.1, -0.0, 1e-300], [2.0, 1 / 3, 5e22]])
        io.write_table_csv(tmp_path / "t.csv", ["a", "b", "c"], rows)
        io.write_matrix_csv(tmp_path / "m.csv", rows)
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
