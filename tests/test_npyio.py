import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomshot.errors import FormatError, InvalidKeypoints
from geomshot.npyio import load_keypoints, write_keypoints


def test_reads_float64_file(tmp_path):
    arr = np.random.default_rng(0).normal(size=(21, 3))
    p = tmp_path / "h.npy"
    np.save(p, arr)
    assert np.array_equal(load_keypoints(p), arr)


def test_reads_float32_promoted(tmp_path):
    arr = np.random.default_rng(1).normal(size=(21, 3)).astype(np.float32)
    p = tmp_path / "h.npy"
    np.save(p, arr)
    out = load_keypoints(p)
    assert out.dtype == np.float64
    assert np.array_equal(out, arr.astype(np.float64))


def test_wrong_shape_names_field(tmp_path):
    p = tmp_path / "h.npy"
    np.save(p, np.zeros((20, 3)))
    with pytest.raises(FormatError) as info:
        load_keypoints(p)
    assert info.value.field == "shape"


def test_wrong_dtype_names_field(tmp_path):
    p = tmp_path / "h.npy"
    np.save(p, np.zeros((21, 3), dtype=np.int64))
    with pytest.raises(FormatError) as info:
        load_keypoints(p)
    assert info.value.field == "dtype"


def test_fortran_order_rejected(tmp_path):
    p = tmp_path / "h.npy"
    np.save(p, np.asfortranarray(np.random.default_rng(2).normal(size=(21, 3))))
    with pytest.raises(FormatError) as info:
        load_keypoints(p)
    assert info.value.field == "order"


def test_bad_magic(tmp_path):
    p = tmp_path / "h.npy"
    p.write_bytes(b"NOTNPY" + b"\x00" * 64)
    with pytest.raises(FormatError) as info:
        load_keypoints(p)
    assert info.value.field == "magic"


def test_truncated_payload(tmp_path):
    arr = np.random.default_rng(3).normal(size=(21, 3))
    p = tmp_path / "h.npy"
    np.save(p, arr)
    data = p.read_bytes()
    p.write_bytes(data[:-8])
    with pytest.raises(FormatError) as info:
        load_keypoints(p)
    assert info.value.field == "payload"


def test_version_2_header(tmp_path):
    arr = np.random.default_rng(4).normal(size=(21, 3))
    p = tmp_path / "h.npy"
    with open(p, "wb") as f:
        np.lib.format.write_array(f, arr, version=(2, 0))
    assert np.array_equal(load_keypoints(p), arr)


def test_roundtrip_byte_identical(tmp_path):
    # oracle: byte comparison against the original file
    arr = np.random.default_rng(5).normal(size=(21, 3))
    src = tmp_path / "src.npy"
    np.save(src, arr)
    original = src.read_bytes()
    dst = tmp_path / "dst.npy"
    write_keypoints(dst, load_keypoints(src))
    assert dst.read_bytes() == original


def test_written_file_loads_with_numpy(tmp_path):
    arr = np.random.default_rng(6).normal(size=(21, 3))
    p = tmp_path / "h.npy"
    write_keypoints(p, arr)
    assert np.array_equal(np.load(p), arr)


_VALID = np.random.default_rng(7).normal(size=(21, 3))
_HEADER_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.floats(), st.text(max_size=8),
    st.sampled_from(["<f8", "<f4", ">f8", "|u1", "<i8", "O"]),
    st.lists(st.integers(-3, 64), max_size=4).map(tuple),
    st.lists(st.one_of(st.none(), st.integers(0, 30), st.text(max_size=2)), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def _npy_bytes(header: str, payload: bytes, version=(1, 0)) -> bytes:
    body = header.encode("latin1", "replace")
    length = len(body).to_bytes(2 if version[0] == 1 else 4, "little")
    return b"\x93NUMPY" + bytes(version) + length + body + payload


@st.composite
def mutated_npy(draw):
    """A keypoint file with one kind of damage: truncation, a changed byte,
    a rewritten header field, or non-finite payload values."""
    header = {"descr": "<f8", "fortran_order": False, "shape": (21, 3)}
    payload = _VALID.tobytes()
    kind = draw(st.sampled_from(["truncate", "byte", "field", "header_text", "non_finite"]))
    if kind == "field":
        key = draw(st.sampled_from(["descr", "fortran_order", "shape"]))
        if draw(st.booleans()):
            header[key] = draw(_HEADER_VALUES)
        else:
            del header[key]
    if kind == "non_finite":
        values = _VALID.copy()
        values.flat[draw(st.integers(0, 62))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        payload = values.tobytes()
    text = draw(st.text(max_size=40)) if kind == "header_text" else repr(header)
    data = _npy_bytes(text, payload, draw(st.sampled_from([(1, 0), (2, 0)])))
    if kind == "truncate":
        data = data[: draw(st.integers(0, len(data) - 1))]
    if kind == "byte":
        i = draw(st.integers(0, len(data) - 1))
        data = data[:i] + bytes([draw(st.integers(0, 255))]) + data[i + 1 :]
    return data


@settings(max_examples=300)
@given(data=mutated_npy())
def test_damaged_file_raises_only_format_or_keypoint_errors(tmp_path_factory, data):
    p = tmp_path_factory.mktemp("fuzz") / "h.npy"
    p.write_bytes(data)
    try:
        out = load_keypoints(p)
    except (FormatError, InvalidKeypoints):
        return
    assert out.shape == (21, 3) and np.all(np.isfinite(out))
