import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import named_state_arrays, traced_peak

from geomshot.errors import BatchTooSmall, CacheError, CorruptCheckpoint, ShapeError
from geomshot.features import FeaturePool
from geomshot.nnet import EncoderConfig, MLPEncoder, load_checkpoint, save_checkpoint
from geomshot.nnet.encoder import tensor_table
from geomshot.pipeline import AdaptConfig, TrainConfig, adapt
from geomshot.rng import make_rng


@pytest.mark.parametrize(
    "input_dim,expected",
    [(20, 105_088), (63, 116_096), (83, 121_216)],
)
def test_parameter_counts_match_published_totals(input_dim, expected):
    cfg = EncoderConfig(input_dim=input_dim)
    assert cfg.param_count() == expected
    assert MLPEncoder(cfg, seed=0).param_count() == expected


def test_eval_forward_deterministic():
    enc = MLPEncoder(EncoderConfig(input_dim=20), seed=1)
    x = np.random.default_rng(0).normal(size=(7, 20))
    a = enc.forward(x, train=False)
    b = enc.forward(x, train=False)
    assert np.array_equal(a, b)


def test_zero_weights_give_zero_embeddings():
    enc = MLPEncoder(EncoderConfig(input_dim=20), seed=2)
    for p in enc.parameters():
        p.values[...] = 0.0
    x = np.random.default_rng(1).normal(size=(4, 20))
    assert np.array_equal(enc.forward(x, train=False), np.zeros((4, 128)))


def test_same_seed_same_init():
    cfg = EncoderConfig(input_dim=20)
    a, b = MLPEncoder(cfg, seed=3), MLPEncoder(cfg, seed=3)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa.values, pb.values)
    c = MLPEncoder(cfg, seed=4)
    assert any(
        not np.array_equal(pa.values, pc.values)
        for pa, pc in zip(a.parameters(), c.parameters())
    )


def test_train_forward_needs_two_rows():
    enc = MLPEncoder(EncoderConfig(input_dim=20), seed=5)
    with pytest.raises(BatchTooSmall):
        enc.forward(np.zeros((1, 20)), train=True, rng=make_rng(0))


def test_wrong_input_dim_rejected():
    enc = MLPEncoder(EncoderConfig(input_dim=20), seed=6)
    with pytest.raises(ShapeError):
        enc.forward(np.zeros((4, 63)), train=False)


def test_backward_requires_train_forward():
    enc = MLPEncoder(EncoderConfig(input_dim=20), seed=7)
    enc.zero_grad()
    enc.flat.grad[...] = np.random.default_rng(1).normal(size=enc.flat.grad.shape)
    bound = enc.flat.grad.copy()
    x = np.random.default_rng(2).normal(size=(4, 20))
    enc.forward(x, train=True, rng=make_rng(3))
    enc.forward(x, train=False)
    with pytest.raises(CacheError, match="^Linear.backward without train-mode forward$"):
        enc.backward(np.ones((4, 128)))
    assert enc.flat.grad.tobytes() == bound.tobytes()


def test_backward_with_no_gradient_bound_is_refused_before_any_gradient_is_written():
    # backward binds no gradient: AdamW or zero_grad does, so each tensor's has one owner.
    enc = MLPEncoder(EncoderConfig(input_dim=20), seed=7)
    enc.forward(np.random.default_rng(2).normal(size=(4, 20)), train=True, rng=make_rng(3))
    with pytest.raises(CacheError, match=r"^Linear\.backward with no gradient bound to its parameters$"):
        enc.backward(np.ones((4, 128)))
    assert enc.flat.grad is None and all(p.grad is None for p in enc.parameters())


def test_backward_with_only_the_head_gradient_bound_is_refused_before_the_head_writes_it():
    enc = MLPEncoder(EncoderConfig(input_dim=20), seed=7)
    head = enc.head_parameters()
    head.bind_grad().fill(7.0)
    enc.forward(np.random.default_rng(2).normal(size=(6, 20)), train=True, rng=make_rng(3))
    with pytest.raises(CacheError, match=r"^Linear\.backward with no gradient bound to its parameters$"):
        enc.backward(np.ones((6, 128)))
    assert head.grad.tobytes() == np.full(head.grad.shape, 7.0).tobytes()


def test_backward_after_a_backbone_forward_is_refused_before_any_gradient_is_written():
    enc = MLPEncoder(EncoderConfig(input_dim=20), seed=7)
    enc.zero_grad()
    enc.flat.grad.fill(7.0)
    x = np.random.default_rng(2).normal(size=(4, 20))
    enc.forward(x, train=True, rng=make_rng(3))
    enc.backbone_forward(x)
    with pytest.raises(CacheError, match="^Linear.backward without train-mode forward$"):
        enc.backward(np.ones((4, 128)))
    assert enc.flat.grad.tobytes() == np.full(enc.flat.grad.shape, 7.0).tobytes()


@pytest.mark.parametrize("head_only", [False, True])
def test_skipping_the_input_gradient_keeps_parameter_gradients_bitwise(head_only):
    x = np.random.default_rng(3).normal(size=(12, 20))
    g = np.random.default_rng(4).normal(size=(12, 128))
    grads = []
    for input_grad in (True, False):
        enc = MLPEncoder(EncoderConfig(input_dim=20), seed=10)
        model = enc.head if head_only else enc
        inputs = enc.backbone_forward(x) if head_only else x
        enc.zero_grad()
        model.forward(inputs, train=True, rng=make_rng(5))
        dx = model.backward(g, input_grad=input_grad)
        assert (dx is None) == (not input_grad)
        grads.append(enc.flat.grad.copy())
    assert np.array_equal(grads[0], grads[1])
    assert np.any(grads[1] != 0.0)


@pytest.mark.parametrize("head_only", [False, True])
def test_one_backward_writes_every_gradient_the_optimizer_reads(head_only):
    # The training step takes no zero_grad: backward writes, not adds, every gradient.
    enc = MLPEncoder(EncoderConfig(input_dim=20), seed=14)
    x = np.random.default_rng(8).normal(size=(12, 20))
    model = enc.head if head_only else enc
    buffer = enc.head_parameters() if head_only else enc.flat
    inputs = enc.backbone_forward(x) if head_only else x
    buffer.bind_grad().fill(np.nan)
    model.forward(inputs, train=True, rng=make_rng(9))
    model.backward(np.random.default_rng(10).normal(size=(12, 128)), input_grad=False)
    assert np.isfinite(buffer.grad).all()


def test_backward_into_a_loaded_encoder_needs_a_bound_gradient(tmp_path):
    # Without a gradient to write into, matmul(..., out=None) would compute one and drop it.
    path = tmp_path / "enc.ckpt"
    checkpoint_encoder(path, MLPEncoder(EncoderConfig(input_dim=20), seed=17))
    loaded, _ = load_checkpoint(path)
    assert loaded.flat.grad is None
    feats = loaded.backbone_forward(np.random.default_rng(11).normal(size=(6, 20)))
    loaded.head.forward(feats, train=True)
    with pytest.raises(CacheError, match=r"^Linear\.backward with no gradient bound to its parameters$"):
        loaded.head.backward(np.ones((6, 128)))
    loaded.head_parameters().bind_grad()
    assert loaded.head.backward(np.ones((6, 128))).shape == (6, 256)  # the train-mode cache was kept
    assert np.array_equal(loaded.head.bias.grad, np.full(128, 6.0)) and loaded.flat.grad is None


def test_train_forward_deterministic_given_rng():
    enc = MLPEncoder(EncoderConfig(input_dim=20), seed=8)
    x = np.random.default_rng(2).normal(size=(6, 20))
    a = enc.forward(x, train=True, rng=make_rng(77))
    b = enc.forward(x, train=True, rng=make_rng(77))
    assert np.array_equal(a, b)


def test_backbone_forward_matches_eval_path():
    enc = MLPEncoder(EncoderConfig(input_dim=20), seed=9)
    x = np.random.default_rng(3).normal(size=(5, 20))
    feats = enc.backbone_forward(x)
    manual = feats @ enc.head.weight.values + enc.head.bias.values
    assert np.allclose(manual, enc.forward(x, train=False), atol=1e-12)


def test_eval_forward_rows_independent_of_batch():
    # evaluation and the training monitor embed the union of their episodes'
    # rows once, so a row's eval embedding must not depend on its batch
    enc = MLPEncoder(EncoderConfig(input_dim=20), seed=13)
    enc.forward(np.random.default_rng(5).normal(size=(16, 20)), train=True, rng=make_rng(6))
    x = np.random.default_rng(6).normal(size=(600, 20))
    full = enc.forward(x, train=False)
    feats = enc.backbone_forward(x)
    rng = np.random.default_rng(7)
    for size in (2, 3, 5, 16, 75, 100, 240, 599):
        rows = rng.choice(len(x), size=size, replace=False)
        assert np.array_equal(enc.forward(x[rows], train=False), full[rows]), size
        assert np.array_equal(enc.backbone_forward(x[rows]), feats[rows]), size
        assert np.array_equal(enc.head.forward(feats[rows], train=False), full[rows]), size


def checkpoint_encoder(path, enc: MLPEncoder, meta: dict | None = None) -> None:
    save_checkpoint(path, enc.config, enc.state(), meta or {})


class TestCheckpoint:
    def test_roundtrip_bit_identical(self, tmp_path):
        enc = MLPEncoder(EncoderConfig(input_dim=20), seed=10)
        # make running stats nontrivial
        enc.forward(np.random.default_rng(4).normal(size=(16, 20)), train=True, rng=make_rng(5))
        path = tmp_path / "enc.ckpt"
        checkpoint_encoder(path, enc, {"note": "test"})
        loaded, meta = load_checkpoint(path)
        assert meta == {"note": "test", "encoder": asdict(enc.config)}
        assert loaded.config == enc.config
        assert np.array_equal(loaded.state_array, enc.state_array)

    def test_truncated_blob_rejected(self, tmp_path):
        enc = MLPEncoder(EncoderConfig(input_dim=20), seed=11)
        path = tmp_path / "enc.ckpt"
        checkpoint_encoder(path, enc)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)

    def test_extra_trailing_byte_rejected(self, tmp_path):
        enc = MLPEncoder(EncoderConfig(input_dim=20), seed=11)
        path = tmp_path / "enc.ckpt"
        checkpoint_encoder(path, enc)
        payload = path.stat().st_size - len(path.read_bytes().split(b"\n", 1)[0]) - 1
        with open(path, "ab") as f:
            f.write(b"\x00")
        with pytest.raises(CorruptCheckpoint, match=f"payload has {payload + 1} bytes, header accounts for {payload}"):
            load_checkpoint(path)

    def test_load_holds_one_copy_of_the_payload(self, tmp_path):
        enc = MLPEncoder(EncoderConfig(input_dim=83), seed=15)  # raw_angle's width
        path = tmp_path / "enc.ckpt"
        checkpoint_encoder(path, enc)
        (loaded, _), peak = traced_peak(lambda: load_checkpoint(path))
        assert np.array_equal(loaded.state_array, enc.state_array)
        # The payload, read into the array the encoder keeps; an encoder that does not train holds no gradient.
        assert loaded.state_array.nbytes == 977_920  # 0.933 MiB
        assert peak <= loaded.state_array.nbytes + 64 * 1024  # 0.946 MiB measured
        assert loaded.flat.grad is None and all(p.grad is None for p in loaded.parameters())
        # Head-only adaptation binds a gradient for the head's 32,896 values alone.
        rng = np.random.default_rng(0)
        pool = FeaturePool(rng.normal(size=(60, 83)), np.repeat(np.arange(5), 12), "raw_angle", True)
        cfg = TrainConfig(n_way=5, k_shot=2, q_query=2, episodes_per_epoch=2, monitor_episodes=2)
        adapt(loaded, pool, AdaptConfig(mode="target_supervised", max_epochs=1), cfg)
        head, backbone = loaded.parameters()[-2:], loaded.parameters()[:-2]
        assert sum(p.grad.size for p in head) == 32_896 and all(p.grad is None for p in backbone)
        assert loaded.flat.grad is None

    def test_header_line_over_the_limit_is_refused_after_reading_about_the_limit(self, tmp_path):
        path = tmp_path / "enc.ckpt"
        path.write_bytes(b"x" * (8 << 20))  # no newline

        def refuse():
            with pytest.raises(CorruptCheckpoint, match=r"enc\.ckpt: header line longer than 1048576 bytes$"):
                load_checkpoint(path)

        _, peak = traced_peak(refuse)
        assert peak < 3 << 20  # 2.03 MiB measured; the whole line would be 8 MiB

    def test_garbage_header_rejected(self, tmp_path):
        path = tmp_path / "enc.ckpt"
        for header in (b"\x00\x01\x02 not json", b"[" * 100_000):  # the second nests too deep
            path.write_bytes(header + b"\n" + b"\x00" * 64)
            with pytest.raises(CorruptCheckpoint):
                load_checkpoint(path)

    def test_table_fault_names_the_entry_and_the_configs_own(self, tmp_path):
        cfg = EncoderConfig(input_dim=5, hidden_dim=8, embed_dim=4)
        path = tmp_path / "enc.ckpt"
        checkpoint_encoder(path, MLPEncoder(cfg, seed=0))
        header_line, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        header["tensors"][0]["byte_offset"] = False  # equal to 0 in Python, not in JSON
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        want = json.dumps(tensor_table(cfg)[0], sort_keys=True)
        got = want.replace('"byte_offset": 0', '"byte_offset": false')
        with pytest.raises(CorruptCheckpoint) as refused:
            load_checkpoint(path)
        assert str(refused.value) == f"{path}: tensor 0 is {got} where the encoder config has {want}"

    def test_header_lists_params_and_running_stats(self, tmp_path):
        # oracle: independent enumeration from the configuration
        cfg = EncoderConfig(input_dim=20)
        path = tmp_path / "enc.ckpt"
        checkpoint_encoder(path, MLPEncoder(cfg, seed=12))
        tensors = json.loads(path.read_bytes().split(b"\n", 1)[0])["tensors"]
        expected = set()
        for i in (1, 2):
            expected |= {f"fc{i}.weight", f"fc{i}.bias", f"bn{i}.gamma", f"bn{i}.beta",
                         f"bn{i}.running_mean", f"bn{i}.running_var"}
        expected |= {"head.weight", "head.bias"}
        assert {t["name"] for t in tensors} == expected
        assert tensors == tensor_table(cfg)


def test_every_tensor_is_a_view_of_the_state_array_in_payload_order(tmp_path):
    enc = MLPEncoder(EncoderConfig(input_dim=20, hidden_dim=32, embed_dim=16), seed=16)
    enc.state_array[...] = np.arange(enc.state_array.size)
    state = enc.state()
    assert np.array_equal(state, enc.state_array) and not np.shares_memory(state, enc.state_array)
    start, arrays = enc.state_array.__array_interface__["data"][0], named_state_arrays(enc)
    for entry in tensor_table(enc.config):  # each layer's array sits where the table puts it
        arr = arrays[entry["name"]]
        assert np.shares_memory(arr, enc.state_array) and list(arr.shape) == entry["shape"], entry
        assert arr.__array_interface__["data"][0] - start == entry["byte_offset"], entry
    path = tmp_path / "enc.ckpt"
    checkpoint_encoder(path, enc)
    loaded, _ = load_checkpoint(path)
    assert np.array_equal(loaded.state_array, enc.state_array)
    for arr in named_state_arrays(loaded).values():
        assert np.shares_memory(arr, loaded.state_array)


@settings(max_examples=40)
@given(input_dim=st.integers(1, 6), hidden_dim=st.integers(1, 6), num_hidden=st.integers(1, 3),
       embed_dim=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_checkpoint_roundtrip_keeps_every_state_bit(tmp_path_factory, input_dim, hidden_dim, num_hidden,
                                                     embed_dim, seed):
    cfg = EncoderConfig(input_dim=input_dim, hidden_dim=hidden_dim, num_hidden=num_hidden, embed_dim=embed_dim)
    # Random 64-bit patterns, subnormals and signed zeros among them; the loader refuses non-finite values
    # and negative running variances, so an all-ones exponent loses its top bit and each variance its sign.
    bits = np.random.default_rng(seed).integers(0, 2**64, cfg.state_size(), dtype=np.uint64)
    bits[(bits >> np.uint64(52)) & np.uint64(0x7FF) == 0x7FF] ^= np.uint64(1 << 62)
    bits[cfg.param_count():].reshape(num_hidden, 2, hidden_dim)[:, 1] &= np.uint64(2**63 - 1)
    state = bits.view(np.float64)
    path = tmp_path_factory.mktemp("roundtrip") / "enc.ckpt"
    save_checkpoint(path, cfg, state, {})
    loaded, meta = load_checkpoint(path)
    assert loaded.config == cfg and meta == {"encoder": asdict(cfg)}
    assert np.array_equal(loaded.state_array.view(np.uint64), state.view(np.uint64))
    assert json.loads(path.read_bytes().split(b"\n", 1)[0])["tensors"] == tensor_table(cfg)


def test_init_load_and_save_hold_no_second_copy_of_the_state(tmp_path):
    cfg = EncoderConfig(input_dim=83)
    enc, init_peak = traced_peak(lambda: MLPEncoder(cfg, seed=0))
    # Each layer's init is drawn into its views of the state array, and no gradient is allocated.
    assert enc.flat.grad is None and all(p.grad is None for p in enc.parameters())
    bound = enc.state_array.nbytes + 64 * 1024
    state = enc.state()
    path = tmp_path / "enc.ckpt"
    _, save_peak = traced_peak(lambda: save_checkpoint(path, cfg, state, {}))
    _, load_peak = traced_peak(lambda: load_checkpoint(path))
    assert init_peak <= bound  # 0.941 MiB measured
    assert load_peak <= bound  # 0.946 MiB measured
    assert save_peak <= 64 * 1024


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    """(a path to write mutations to, the bytes of a saved 5-D encoder checkpoint)."""
    directory = tmp_path_factory.mktemp("fuzz")
    encoder = MLPEncoder(EncoderConfig(input_dim=5, hidden_dim=8, embed_dim=4), seed=0)
    checkpoint_encoder(directory / "ok.ckpt", encoder)
    return directory / "mutated.ckpt", (directory / "ok.ckpt").read_bytes()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def mutated_checkpoints(draw, data: bytes) -> bytes:
    """A truncation, a one-byte change, or one header field replaced or deleted."""
    kind = draw(st.sampled_from(["truncate", "byte", "tensor", "encoder", "top"]))
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if kind == "byte":
        at = draw(st.integers(0, len(data) - 1))
        return data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]
    header_line, payload = data.split(b"\n", 1)
    header = json.loads(header_line)
    if kind == "tensor":
        target = header["tensors"][draw(st.integers(0, len(header["tensors"]) - 1))]
        key = draw(st.sampled_from(["name", "dtype", "shape", "byte_offset"]))
    elif kind == "encoder":
        target = header["meta"]["encoder"]
        key = draw(st.sampled_from(sorted(target)))
    else:
        target = header
        key = draw(st.sampled_from(["format", "version", "meta", "tensors"]))
    if draw(st.booleans()):
        del target[key]
    else:
        target[key] = draw(JSON_VALUES)
    return json.dumps(header).encode() + b"\n" + payload


@settings(max_examples=300)
@given(st.data())
def test_mutated_checkpoint_raises_only_corrupt_checkpoint(small_checkpoint, data):
    path, original = small_checkpoint
    path.write_bytes(data.draw(mutated_checkpoints(original)))
    try:
        load_checkpoint(path)
    except CorruptCheckpoint:
        pass


def test_state_snapshot_roundtrip():
    enc = MLPEncoder(EncoderConfig(input_dim=20), seed=13)
    x = np.random.default_rng(6).normal(size=(8, 20))
    enc.forward(x, train=True, rng=make_rng(7))
    snapshot = enc.state()
    out_before = enc.forward(x, train=False)
    enc.forward(x, train=True, rng=make_rng(8))  # drift running stats
    for p in enc.parameters():
        p.values += 0.01
    enc.set_state(snapshot)
    assert np.array_equal(enc.forward(x, train=False), out_before)
