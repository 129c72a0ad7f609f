import io
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomshot import npyio
from geomshot.errors import FormatError, InvalidKeypoints
from geomshot.npyio import load_keypoints, write_keypoints
from conftest import traced_peak


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


_ROUTE_ARR = np.random.default_rng(8).normal(size=(21, 3))


def _file_bytes(kind: str) -> bytes:
    """One keypoint file of each kind the two header routes must agree on."""
    arr = _ROUTE_ARR.copy()
    buf = io.BytesIO()
    if kind == "float32":
        np.save(buf, arr.astype(np.float32))
        return buf.getvalue()
    if kind == "v2":
        np.lib.format.write_array(buf, arr, version=(2, 0))
        return buf.getvalue()
    if kind == "padding":  # a valid v1.0 header with its own padding
        header = "{'descr': '<f8', 'fortran_order': False, 'shape': (21, 3)}" + " " * 7 + "\n"
        return _npy_bytes(header, arr.tobytes())
    if kind == "nan":
        arr[4, 1] = np.nan
    np.save(buf, arr)  # the bytes write_keypoints writes (see the round-trip test)
    data = buf.getvalue()
    if kind == "truncated":
        return data[:-8]
    if kind == "trailing":
        return data + b"trailing bytes"
    return data


def _outcome(path):
    try:
        out = load_keypoints(path)
    except (FormatError, InvalidKeypoints) as e:
        return type(e), getattr(e, "field", None)
    return out.dtype, out.tobytes()


_LOADED = (np.float64, _ROUTE_ARR.tobytes())
_LOADED_F32 = (np.float64, _ROUTE_ARR.astype(np.float32).astype(np.float64).tobytes())


@pytest.mark.parametrize(
    "kind, expected",
    [("float64", _LOADED), ("float32", _LOADED_F32), ("v2", _LOADED), ("padding", _LOADED),
     ("trailing", _LOADED), ("truncated", (FormatError, "payload")), ("nan", (InvalidKeypoints, None))],
)
def test_canonical_and_general_header_routes_agree(tmp_path, monkeypatch, kind, expected):
    p = tmp_path / "h.npy"
    if kind == "float64":
        write_keypoints(p, _ROUTE_ARR)
    else:
        p.write_bytes(_file_bytes(kind))
    fast = _outcome(p)
    monkeypatch.setattr(npyio, "_CANONICAL", {})  # every file takes the general route
    assert _outcome(p) == fast == expected


def test_canonical_files_skip_header_parsing(tmp_path, monkeypatch):
    write_keypoints(tmp_path / "w.npy", _ROUTE_ARR)
    (tmp_path / "f4.npy").write_bytes(_file_bytes("float32"))
    (tmp_path / "v2.npy").write_bytes(_file_bytes("v2"))

    def no_parse(f, path):
        raise AssertionError("a header was parsed")

    monkeypatch.setattr(npyio, "_read_header", no_parse)
    assert np.array_equal(load_keypoints(tmp_path / "w.npy"), _ROUTE_ARR)
    assert np.array_equal(load_keypoints(tmp_path / "f4.npy"), _ROUTE_ARR.astype(np.float32))
    with pytest.raises(AssertionError, match="parsed"):
        load_keypoints(tmp_path / "v2.npy")


def _padded_header(length: int) -> str:
    """A valid (21, 3) ``<f8`` header dict, space-padded to ``length`` bytes with its newline."""
    header = "{'descr': '<f8', 'fortran_order': False, 'shape': (21, 3), }"
    return header + " " * (length - len(header) - 1) + "\n"


@pytest.mark.parametrize("version", [(1, 0), (2, 0)], ids=["v1.0", "v2.0"])
def test_header_over_numpys_limit_is_refused_as_numpy_refuses_it(tmp_path, version):
    p = tmp_path / "h.npy"
    p.write_bytes(_npy_bytes(_padded_header(npyio.MAX_HEADER_BYTES), _ROUTE_ARR.tobytes(), version))
    assert np.array_equal(load_keypoints(p), _ROUTE_ARR)
    assert np.array_equal(np.load(p), _ROUTE_ARR)
    p.write_bytes(_npy_bytes(_padded_header(npyio.MAX_HEADER_BYTES + 1), _ROUTE_ARR.tobytes(), version))
    with pytest.raises(FormatError) as info:
        load_keypoints(p)
    assert info.value.field == "header"
    with pytest.raises(ValueError, match="max_header_size"):
        np.load(p)


def test_short_reads_are_continued_up_to_the_read_limit(tmp_path, monkeypatch):
    p = tmp_path / "h.npy"
    write_keypoints(p, _ROUTE_ARR)
    p.write_bytes(p.read_bytes() + b"\x00" * (npyio.READ_LIMIT + 100))
    real_read, returned = os.read, []
    monkeypatch.setattr(os, "read", lambda fd, n: returned.append(real_read(fd, min(n, 50))) or returned[-1])
    assert np.array_equal(load_keypoints(p), _ROUTE_ARR)
    assert sum(map(len, returned)) == npyio.READ_LIMIT


def test_large_wrong_shape_file_is_refused_without_reading_it(tmp_path):
    p = tmp_path / "big.npy"
    np.save(p, np.zeros((20_000, 21, 3)))
    assert p.stat().st_size >= 10_000_000

    def refusal():
        with pytest.raises(FormatError) as info:
            load_keypoints(p)
        return info.value.field

    field, peak = traced_peak(refusal)
    assert field == "shape" and peak < 64 * 1024


@pytest.mark.parametrize("name", [None, "missing.npy"], ids=["directory", "missing"])
def test_unreadable_path_raises_what_a_buffered_open_raises(tmp_path, name):
    path = tmp_path if name is None else tmp_path / name
    with pytest.raises(OSError) as buffered:
        with open(path, "rb") as f:
            f.read()
    with pytest.raises(OSError) as info:
        load_keypoints(path)
    assert type(info.value) is buffered.type
    assert buffered.type in (IsADirectoryError, FileNotFoundError)


def test_short_writes_are_continued(tmp_path, monkeypatch):
    real_write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, bytes(data[:50])))
    write_keypoints(tmp_path / "h.npy", _ROUTE_ARR)
    monkeypatch.undo()
    expected = io.BytesIO()
    np.save(expected, _ROUTE_ARR)
    assert (tmp_path / "h.npy").read_bytes() == expected.getvalue()
