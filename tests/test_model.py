"""Configuration, registry, forward wiring, optimizer, and training loop."""

import contextlib
import hashlib
import json
import re

import numpy as np
import pytest

import sumnet.model as M
from sumnet import scan
from sumnet import tensor as T
from sumnet.data import Sample, load_checkpoint, save_checkpoint
from sumnet.model import (
    Adam,
    ConfigError,
    Model,
    NumericAbort,
    SumConfig,
    batch_loss,
    evaluate,
    train,
)
from sumnet.objective import composite_loss
from sumnet.rng import SplitMix64, uniform_array

import oracles as ops


def micro_cfg(**kw):
    base = dict(input_size=32, base_channels=4, state_size=2,
                encoder_depths=(1, 1, 1, 1), decoder_depths=(1, 1, 1, 1),
                token_dim=16, seed=3)
    base.update(kw)
    return SumConfig(**base)


def micro_samples(n=4, size=32, seed=1):
    rng = SplitMix64(seed)
    out = []
    for i in range(n):
        img = rng.uniforms(size * size * 3).reshape(size, size, 3)
        smap = np.zeros((size, size))
        cy, cx = 4 + rng.next_below(size - 8), 4 + rng.next_below(size - 8)
        yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
        smap = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / 4.0)
        smap[smap < smap.max() / 16] = 0.0
        smap /= smap.max()
        fmap = np.zeros((size, size))
        fmap[cy, cx] = fmap[cy, min(cx + 1, size - 1)] = 1.0
        out.append(Sample(f"s{i}", img, smap, fmap, i % 4))
    return out


# ---------------------------------------------------------------------------
# configuration


def test_config_validation_messages():
    with pytest.raises(ConfigError, match="input_size"):
        micro_cfg(input_size=60)
    with pytest.raises(ConfigError, match="base_channels"):
        micro_cfg(base_channels=6)
    with pytest.raises(ConfigError, match="placement"):
        micro_cfg(placement="everywhere")
    with pytest.raises(ConfigError, match="conditioning"):
        micro_cfg(conditioning="Prompt")
    with pytest.raises(ConfigError, match="loss_weights"):
        micro_cfg(loss_weights=(1.0, 2.0))
    with pytest.raises(ConfigError, match="lr"):
        micro_cfg(lr=0.0)
    with pytest.raises(ConfigError, match="decay_factor"):
        micro_cfg(decay_factor=0.0)
    with pytest.raises(ConfigError, match="encoder_depths"):
        micro_cfg(encoder_depths=(2, 2, 2))
    with pytest.raises(ConfigError, match="token_dim"):
        micro_cfg(token_dim=2)


def test_config_bool_fields_accept_only_true_or_false():
    # "no" is truthy: kept as it is, it would build a shared-scan model
    for field, value in (("share_scan_params", "no"), ("kl_literal", 0),
                         ("share_scan_params", 1), ("kl_literal", None)):
        with pytest.raises(ConfigError, match=re.escape(f"{field} must be true or false, "
                                                        f"got {value!r}")):
            SumConfig.from_dict({field: value})
    cfg = SumConfig.from_dict({"share_scan_params": True, "kl_literal": False})
    assert cfg.share_scan_params is True and cfg.kl_literal is False


def test_config_int_fields_reject_non_integral_values():
    # 64.5 must not truncate to 64
    for field, value, wanted in (("input_size", 64.5, "an integer"),
                                 ("epochs", 2.000001, "an integer"),
                                 ("seed", float("inf"), "an integer"),
                                 ("encoder_depths", [2, 1.5, 2, 2], "a list of integers")):
        with pytest.raises(ConfigError, match=re.escape(f"{field} must be {wanted}, "
                                                        f"got {value!r}")):
            SumConfig.from_dict({field: value})
    cfg = SumConfig.from_dict({"input_size": 64.0, "encoder_depths": [2.0, 2, 2, 2]})
    assert type(cfg.input_size) is int and cfg.input_size == 64
    assert cfg.encoder_depths == (2, 2, 2, 2)


@pytest.mark.parametrize("field, values, wanted", [
    ("epochs", (True, "2"), "an integer"),
    ("lr", (True, "0.001"), "a number"),
    ("encoder_depths", ([True, 2, 2, 2], ["2", 2, 2, 2], "2222"), "a list of integers"),
    ("loss_weights", ([True, 1, 1, 1, 1], [1, "2", 1, 1, 1]), "a list of numbers"),
], ids=["integer", "number", "integer-list", "number-list"])
def test_config_numeric_fields_reject_bools_and_strings(field, values, wanted):
    # int(True) and float("0.001") would pass: a config means what it says or fails
    for value in values:
        with pytest.raises(ConfigError, match=re.escape(f"{field} must be {wanted}, "
                                                        f"got {value!r}")):
            SumConfig.from_dict({field: value})


def test_config_dict_round_trip_rejects_unknown_keys():
    cfg = micro_cfg(placement="bottleneck", conditioning="one-hot", lr=0.25)
    back = SumConfig.from_dict(cfg.to_dict())
    assert back == cfg
    with pytest.raises(ConfigError, match="learning_rate"):
        SumConfig.from_dict({"learning_rate": 1e-3})


def test_config_array_round_trip():
    cfg = micro_cfg(placement="all-blocks", conditioning="none", lr=0.25,
                    share_scan_params=True, kl_literal=True,
                    loss_weights=(1.0, -2.0, 0.5, -0.25, 4.0))
    back = Model.from_state(Model(cfg).state_arrays())
    assert back.cfg == cfg


def test_config_survives_checkpoint_float32(tmp_path):
    cfg = micro_cfg(lr=1e-4, seed=12345)
    p = tmp_path / "c.ckpt"
    save_checkpoint(p, Model(cfg).state_arrays())
    back = Model.from_state(load_checkpoint(p)).cfg
    assert back == cfg and back.lr == 1e-4  # float32 payloads, exact record


def test_config_round_trips_exactly_through_checkpoint(tmp_path):
    # each field here was rounded by a float32 encoding of the config:
    # 2**24 + 1 is not a float32, nor are 0.1 and 0.3
    cfg = micro_cfg(seed=2 ** 24 + 1, lr=0.1, decay_factor=0.3,
                    loss_weights=(1.0, 0.1, -2.0, -1.0, -1.0), share_scan_params=True,
                    kl_literal=True, placement="bottleneck", conditioning="one-hot")
    p = tmp_path / "exact.ckpt"
    save_checkpoint(p, Model(cfg).state_arrays())
    back = Model.from_state(load_checkpoint(p)).cfg
    assert back == cfg
    assert back.to_dict() == cfg.to_dict()


def test_from_state_names_each_bad_record():
    arrays = Model(micro_cfg()).state_arrays()
    record = arrays["config"]
    text = bytes(record.astype(np.uint8)).decode("utf-8")

    def as_record(raw: bytes):
        return np.frombuffer(raw, dtype=np.uint8).astype(np.float64)

    def rejects(value, match):
        bad = dict(arrays)
        if value is None:
            del bad["config"]
        else:
            bad["config"] = value
        with pytest.raises(ConfigError, match=match):
            Model.from_state(bad)

    rejects(None, "lacks its config record")
    rejects(record.reshape(1, -1), "not 1-D")
    for value in (256.0, -1.0, 65.5, np.nan):
        rejects(np.append(record, value), f"element {record.size} is .* not a byte")
    rejects(as_record(b"\xff\xfe"), "not UTF-8")
    rejects(record[:-1], "not JSON")
    rejects(as_record(b"[1, 2]"), "not a JSON object")
    rejects(as_record(text.replace('"decoder"', '"sideways"').encode()), "placement 'sideways'")
    rejects(as_record(text.replace('"seed"', '"sed"').encode()), "unknown config keys: sed")


# ---------------------------------------------------------------------------
# registry and parameter counts


def test_registry_names_and_coverage():
    m = Model(micro_cfg())
    names = m.params()
    for expected in ("embed.proj.weight", "enc0.b0.ln1.gamma", "down1.proj.weight",
                     "dec0.b0.ssm.a_log", "dec3.b0.outproj.bias",
                     "up2.proj.weight", "skip0.weight", "head.expand.proj.weight",
                     "head.out.bias", "cond.tokens", "cond.l3.weight"):
        assert expected in names, expected
    assert m.num_parameters() == sum(t.size for t in names.values())

    sample = micro_samples(1)[0]
    with T.Tape() as tape:
        loss = batch_loss(m, [sample], [0])
        grads = T.backward(tape, loss)
    registered = {id(t) for t in names.values()}
    assert {id(t) for t in grads} == registered


def test_conditioning_mode_parameter_counts():
    prompt = Model(micro_cfg()).num_parameters()
    one_hot = Model(micro_cfg(conditioning="one-hot")).num_parameters()
    none = Model(micro_cfg(conditioning="none")).num_parameters()
    cfg = micro_cfg()
    assert prompt - one_hot == cfg.num_domains * cfg.token_dim  # prompt table only
    assert none < one_hot < prompt
    shared = Model(micro_cfg(share_scan_params=True)).num_parameters()
    assert shared < prompt


def test_one_hot_tokens_are_a_fixed_table_no_parameter_store_holds():
    cfg = micro_cfg(conditioning="one-hot")
    m = Model(cfg)
    tokens = m.cond.tokens
    eye = np.eye(cfg.num_domains, cfg.token_dim)
    assert np.array_equal(tokens.data, eye) and not tokens.requires_grad
    assert all(t is not tokens for t in m.params().values())
    assert not any(name.startswith("cond.tokens") for name in m.state_arrays())
    opt = Adam(m.params(), 1e-2)
    assert opt.flat.size == m.num_parameters()
    assert not np.shares_memory(tokens.data, opt.flat)
    with T.Tape() as tape:
        loss = batch_loss(m, micro_samples(2), [0, 1])
        grads = T.backward(tape, loss)
        (cond,) = [node for node in tape.nodes if node.kind == "conditioner"]
    assert cond.grad_fn(np.ones((2, 5)))[0] is None  # the table's gradient is not formed
    assert all(t is not tokens for t in grads)
    opt.step(grads)
    assert np.array_equal(tokens.data, eye)
    loaded = Model.from_state(m.state_arrays())
    assert np.array_equal(loaded.cond.tokens.data, eye) and not loaded.cond.tokens.requires_grad


def test_forward_refuses_a_label_that_is_not_an_integer():
    m = Model(micro_cfg())
    img = micro_samples(1)[0].image[None]
    with pytest.raises(T.ShapeError, match="domain label 0.7 is not an integer"):
        m.predict(img, [0.7])
    with pytest.raises(T.ShapeError, match="domain label True is not an integer"):
        m.predict(img, [True])
    assert np.array_equal(m.predict(img, [2.0]), m.predict(img, [2]))


def test_registry_stacks_each_scan_parameter_on_the_direction_axis():
    # the step-micro config (C=4, S=32, default depths): 15 blocks with 7
    # scan tensors each; stacking sets the names, never the parameter count
    for kw, names, size in ((dict(), 324, 82323),
                            (dict(conditioning="one-hot"), 323, 81811),
                            (dict(conditioning="none"), 317, 56718),
                            (dict(share_scan_params=True), 324, 59811)):
        m = Model(SumConfig(input_size=32, base_channels=4, **kw))
        assert (len(m.params()), m.num_parameters()) == (names, size), kw
        sets = 1 if kw.get("share_scan_params") else 4
        scan = {n: t.shape for n, t in m.params().items() if ".ssm." in n}
        assert len(scan) == 15 * 7, kw
        assert scan["enc0.b0.ssm.a_log"] == (sets, 4, 8), kw
        assert scan["dec0.b0.ssm.v_delta"] == (sets, 4, 32), kw


def _params_digest(model) -> str:
    h = hashlib.sha256()
    for name, t in sorted(model.params().items()):
        h.update(name.encode())
        h.update(t.data.tobytes())
    return h.hexdigest()


def test_initial_parameters_are_pinned_across_commits():
    # SHA-256 over the sorted (name, bytes) pairs: any change to the stream
    # derivation, the splitmix64 pipeline or an init's draw order shows here
    assert _params_digest(Model(SumConfig(input_size=32, base_channels=4, dtype="float64"))) == (
        "921ad29d9bd560f77dbb6c81fc08eac437c77484d3ca3d61f8e0b42abe6d937f")
    assert _params_digest(Model(SumConfig(share_scan_params=True, dtype="float64"))) == (
        "2d1b690bef3888a699cc6fef405b45091651567bfc4a6a0d4831ef4e5939889a")
    draws = uniform_array((3, 5), -1.0, 1.0, 2**64 - 1)
    assert hashlib.sha256(draws.tobytes()).hexdigest() == (
        "365f239269c6d8b30bc03dd76c4b7f17e213caaf7018113c8780943f00d52e9a")


def test_same_name_same_seed_same_init():
    a = Model(micro_cfg())
    b = Model(micro_cfg(conditioning="none"))
    for name, t in b.params().items():
        assert np.array_equal(t.data, a.params()[name].data), name
    # shared and unshared scans: the same names, and the same values
    # wherever the shapes agree too (everything but the scan parameters)
    shared = Model(micro_cfg(share_scan_params=True)).params()
    assert list(shared) == list(a.params())
    for name, t in shared.items():
        u = a.params()[name]
        assert (t.shape != u.shape) == (".ssm." in name), name
        if t.shape == u.shape:
            assert np.array_equal(t.data, u.data), name
    c = Model(micro_cfg(seed=4))
    assert not np.array_equal(c.params()["embed.proj.weight"].data,
                              a.params()["embed.proj.weight"].data)


# ---------------------------------------------------------------------------
# forward


def test_forward_shapes_and_range():
    m = Model(micro_cfg())
    rng = SplitMix64(8)
    imgs = rng.uniforms(2 * 32 * 32 * 3).reshape(2, 32, 32, 3)
    out = m.forward(imgs, [0, 3])
    assert out.shape == (2, 32, 32)
    assert out.data.min() > 0.0 and out.data.max() < 1.0  # sigmoid range
    single = m.forward(imgs[0], [0])
    assert single.shape == (1, 32, 32)
    assert np.allclose(single.data[0], out.data[0], atol=1e-9)


def test_forward_validation():
    m = Model(micro_cfg())
    rng = SplitMix64(8)
    imgs = rng.uniforms(32 * 32 * 3).reshape(1, 32, 32, 3)
    with pytest.raises(T.ShapeError):
        m.forward(imgs[:, :16])
    with pytest.raises(ConfigError, match="labels"):
        m.forward(imgs)
    with pytest.raises(T.ShapeError, match="labels"):
        m.forward(imgs, [0, 1])
    ok = Model(micro_cfg(conditioning="none"))
    assert ok.forward(imgs).shape == (1, 32, 32)  # labels optional here


def test_prompt_zero_init_equals_none_bit_exact():
    rng = SplitMix64(2)
    imgs = rng.uniforms(2 * 32 * 32 * 3).reshape(2, 32, 32, 3)
    for placement in ("bottleneck", "decoder", "all-blocks"):
        p = Model(micro_cfg(placement=placement))
        n = Model(micro_cfg(conditioning="none"))
        assert np.array_equal(p.forward(imgs, [1, 2]).data, n.forward(imgs).data)


def test_placement_controls_which_blocks_feel_the_knobs():
    rng = SplitMix64(9)
    imgs = rng.uniforms(32 * 32 * 3).reshape(1, 32, 32, 3)
    outputs = {}
    for placement in ("bottleneck", "decoder", "all-blocks"):
        m = Model(micro_cfg(placement=placement))
        # push the knob head away from identity
        m.params()["cond.l3.bias"].data = np.array([0.5, 0.3, -0.4, 0.2, 0.6])
        outputs[placement] = m.forward(imgs, [0]).data
    base = Model(micro_cfg(conditioning="none")).forward(imgs).data
    for placement, out in outputs.items():
        assert not np.array_equal(out, base), placement
    assert not np.array_equal(outputs["bottleneck"], outputs["decoder"])
    assert not np.array_equal(outputs["decoder"], outputs["all-blocks"])


def test_conditioned_stage_sets():
    assert Model(micro_cfg(placement="bottleneck"))._conditioned == {"dec0"}
    assert Model(micro_cfg(placement="decoder"))._conditioned == {
        "dec0", "dec1", "dec2", "dec3"}
    assert Model(micro_cfg(placement="all-blocks"))._conditioned == {
        f"enc{i}" for i in range(4)} | {f"dec{j}" for j in range(4)}
    assert Model(micro_cfg(conditioning="none"))._conditioned == set()


def test_domains_change_prediction_once_knobs_are_live():
    m = Model(micro_cfg())
    m.params()["cond.l3.weight"].data = SplitMix64(5).uniforms(
        m.params()["cond.l3.weight"].size).reshape(
        m.params()["cond.l3.weight"].shape) * 0.4
    rng = SplitMix64(6)
    img = rng.uniforms(32 * 32 * 3).reshape(1, 32, 32, 3)
    a = m.predict(img, [0])
    b = m.predict(img, [2])
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# checkpoint integration


def test_state_round_trip_through_checkpoint(tmp_path):
    m = Model(micro_cfg())
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, m.state_arrays())
    m2 = Model.from_state(load_checkpoint(p))
    rng = SplitMix64(4)
    img = rng.uniforms(32 * 32 * 3).reshape(1, 32, 32, 3)
    a = m.predict(img, [1])
    b = m2.predict(img, [1])
    assert np.max(np.abs(a - b)) < 1e-5  # float32 storage rounding only


def test_a_float32_model_round_trips_exactly_through_checkpoint(tmp_path):
    m = _perturbed(micro_cfg())
    assert m.cfg.dtype == "float32" and m.dtype == np.float32  # the default
    p = tmp_path / "f32.ckpt"
    save_checkpoint(p, m.state_arrays())
    back = Model.from_state(load_checkpoint(p))
    assert back.cfg == m.cfg and back.dtype == np.float32
    for name, t in m.params().items():
        assert back.params()[name].data.tobytes() == t.data.tobytes(), name
    img = SplitMix64(4).uniforms(2 * 32 * 32 * 3).reshape(2, 32, 32, 3)
    assert back.predict(img, [1, 3]).tobytes() == m.predict(img, [1, 3]).tobytes()
    save_checkpoint(tmp_path / "again.ckpt", back.state_arrays())
    assert (tmp_path / "again.ckpt").read_bytes() == p.read_bytes()


def test_a_config_record_without_a_dtype_loads_as_float64(tmp_path):
    arrays = _perturbed(micro_cfg(dtype="float64")).state_arrays()
    doc = json.loads(bytes(arrays["config"].astype(np.uint8)))
    del doc["dtype"]
    record = json.dumps(doc, sort_keys=True).encode("utf-8")
    arrays["config"] = np.frombuffer(record, dtype=np.uint8).astype(np.float64)
    p = tmp_path / "undated.ckpt"
    save_checkpoint(p, arrays)
    back = Model.from_state(load_checkpoint(p))
    assert back.cfg.dtype == "float64" and back.dtype == np.float64
    assert all(t.data.dtype == np.float64 for t in back.params().values())
    # a config document without one is the default, float32; any other is refused
    assert SumConfig.from_dict(doc).dtype == "float32"
    with pytest.raises(ConfigError, match="dtype 'float16' not in"):
        SumConfig.from_dict({**doc, "dtype": "float16"})


def test_load_state_refuses_a_value_past_the_models_dtype_range():
    state = Model(micro_cfg(dtype="float64")).state_arrays()
    state["dec1.b0.gate.weight"][0, 2] = 1e39  # a float64, not a float32
    assert Model.from_state(state).params()["dec1.b0.gate.weight"].data[0, 2] == 1e39
    with pytest.raises(ConfigError, match=re.escape(
            "dec1.b0.gate.weight is 1e+39 at index (0, 2), not finite in float32")):
        Model.loaded(micro_cfg(), state)


def test_load_state_rejects_mismatches():
    m = Model(micro_cfg())
    good = m.state_arrays()
    bad = dict(good)
    bad["embed.proj.weight"] = np.zeros((7, 7))
    with pytest.raises(ConfigError, match="shape mismatch"):
        m.load_state(bad)
    del good["embed.proj.weight"]
    with pytest.raises(ConfigError, match="lacks"):
        m.load_state(good)


def test_load_state_rejects_a_non_finite_value_before_writing():
    m = Model(micro_cfg())
    opt = Adam(m.params(), lr=1e-3)
    kept = opt.flat.copy()
    bad = m.state_arrays()
    bad["enc1.b0.gate.weight"] = bad["enc1.b0.gate.weight"].copy()
    bad["enc1.b0.gate.weight"][2, 1] = np.nan
    bad["head.out.weight"] = np.full(m.params()["head.out.weight"].shape, np.inf)
    # registry order: enc1.b0 comes before head.out, so its NaN is the first bad value
    with pytest.raises(ConfigError, match=re.escape(
            "checkpoint parameter enc1.b0.gate.weight is nan at index (2, 1), not finite")):
        m.load_state(bad)
    assert np.array_equal(opt.flat, kept)
    with pytest.raises(ConfigError, match="enc1.b0.gate.weight is nan"):
        Model.from_state(bad)


def _perturbed(cfg):
    """Model(cfg) with every parameter moved off its init (the zero-init knob
    head too), so a load that kept any init value would show."""
    m = Model(cfg)
    rng = SplitMix64(11)
    for t in m.params().values():
        t.data += rng.uniforms(t.size, -0.05, 0.05).reshape(t.shape)
    return m


LOAD_CFGS = [dict(), dict(share_scan_params=True),
             dict(conditioning="one-hot", placement="all-blocks"), dict(conditioning="none")]


@pytest.mark.parametrize("kw", LOAD_CFGS)
def test_from_state_is_bit_identical_to_its_source(kw):
    m = _perturbed(micro_cfg(**kw))
    loaded = Model.from_state(m.state_arrays())
    assert list(loaded.params()) == list(m.params())
    for name, t in m.params().items():
        assert np.array_equal(loaded.params()[name].data, t.data), name
    img = SplitMix64(5).uniforms(2 * 32 * 32 * 3).reshape(2, 32, 32, 3)
    labels = None if kw.get("conditioning") == "none" else [1, 3]
    assert loaded.predict(img, labels).tobytes() == m.predict(img, labels).tobytes()


def test_from_state_draws_no_initial_values(monkeypatch):
    from sumnet import blocks, rng, scan

    state = _perturbed(micro_cfg()).state_arrays()

    def boom(*args, **kw):
        raise AssertionError("from_state drew an initial value")

    for mod in (rng, T, blocks, scan):
        for name in ("derive", "uniform_stack", "uniform_array", "uniform"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, boom)
    for loaded in (Model.from_state(state), Model.loaded(micro_cfg(), state)):
        assert all(np.array_equal(loaded.params()[n].data, a)
                   for n, a in state.items() if n != "config")
    with pytest.raises(AssertionError, match="drew"):
        Model(micro_cfg())  # the patch does reach a plain build


def test_adam_over_a_loaded_model_steps_like_one_over_a_built_model():
    state = _perturbed(micro_cfg()).state_arrays()
    built = Model(micro_cfg())
    built.load_state(state)
    loaded = Model.from_state(state)
    samples = micro_samples(4)
    flats = []
    for m in (built, loaded):
        opt = Adam(m.params(), lr=1e-3)
        for step in range(2):
            with T.Tape() as tape:
                loss = batch_loss(m, samples, [step, step + 2])
                grads = T.backward(tape, loss)
            opt.step(grads)
        flats.append(opt.flat)
    assert flats[0].tobytes() == flats[1].tobytes()


def test_skip_draws_is_restored_after_an_exception(monkeypatch):
    passes = []
    real = T.uniform_stack
    monkeypatch.setattr(T, "uniform_stack", lambda *a: passes.append(1) or real(*a))
    with pytest.raises(ConfigError, match="mid-build"):
        with T.skip_draws():
            Model(micro_cfg())
            raise ConfigError("mid-build failure")
    assert not passes
    Model(micro_cfg())
    assert passes


# ---------------------------------------------------------------------------
# optimizer


def test_adam_first_step_magnitude_and_direction():
    t = T.Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    opt = Adam({"w": t}, lr=0.01)
    g = np.array([0.3, -0.7, 0.0])
    opt.step({t: g})
    # bias-corrected first step is lr * sign(g) for nonzero entries
    assert np.allclose(t.data[:2], [1.0 - 0.01, -2.0 + 0.01], atol=1e-6)
    assert t.data[2] == 3.0  # zero gradient: no movement on step one


def test_adam_missing_grad_is_zero():
    t = T.Tensor(np.ones(2), requires_grad=True)
    u = T.Tensor(np.ones(2), requires_grad=True)
    opt = Adam({"a": t, "b": u}, lr=0.1)
    opt.step({t: np.ones(2)})
    assert np.array_equal(u.data, np.ones(2))
    assert not np.array_equal(t.data, np.ones(2))


def test_adam_is_deterministic():
    def run():
        t = T.Tensor(np.array([0.5, -0.5]), requires_grad=True)
        opt = Adam({"w": t}, lr=0.05)
        for k in range(5):
            opt.step({t: np.array([1.0, -1.0]) * (k + 1)})
        return t.data.copy()

    assert np.array_equal(run(), run())


class _reference_adam:
    """Decoupled-state Adam over a named parameter registry.

    Updates walk names in sorted order so the arithmetic sequence (and thus
    the result bytes) never depends on dict construction order.
    """

    def __init__(self, params: dict, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.names = sorted(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self.m = {n: np.zeros_like(params[n].data) for n in self.names}
        self.v = {n: np.zeros_like(params[n].data) for n in self.names}

    def step(self, grads: dict) -> None:
        """Apply one update from {tensor: gradient} as returned by backward."""
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for n in self.names:
            p = self.params[n]
            g = grads.get(p)
            if g is None:
                g = np.zeros_like(p.data)
            self.m[n] = self.beta1 * self.m[n] + (1.0 - self.beta1) * g
            self.v[n] = self.beta2 * self.v[n] + (1.0 - self.beta2) * g * g
            m_hat = self.m[n] / b1t
            v_hat = self.v[n] / b2t
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _assert_same_state(flat, ref):
    for n in ref.names:
        assert np.array_equal(flat.params[n].data, ref.params[n].data), n
    packed = np.concatenate([ref.params[n].data.ravel() for n in ref.names])
    assert np.array_equal(flat.flat, packed)
    assert np.array_equal(flat.m, np.concatenate([ref.m[n].ravel() for n in ref.names]))
    assert np.array_equal(flat.v, np.concatenate([ref.v[n].ravel() for n in ref.names]))


def test_flat_adam_matches_reference_bit_for_bit():
    # in sorted order: a, then big (over 2**15 elements) alone, then c, d
    # and e sharing one block
    shapes = {"a": (3, 5), "big": (190, 180), "c": (7,), "d": (2, 2, 2), "e": (40, 20)}
    rng = SplitMix64(11)

    def tensors():
        return {n: T.Tensor(SplitMix64(i).uniforms(int(np.prod(s))).reshape(s),
                            requires_grad=True) for i, (n, s) in enumerate(shapes.items())}

    ours, theirs = tensors(), tensors()
    flat, ref = Adam(ours, lr=0.01), _reference_adam(theirs, lr=0.01)
    name_of = {t: n for n, t in ours.items()}
    assert [[name_of[t] for t, _ in b[0]] for b in flat._blocks] == [
        ["a"], ["big"], ["c", "d", "e"]]
    for k in range(6):
        if k == 3:
            flat.lr = ref.lr = 0.002  # train's per-epoch decay
        draws = {n: rng.uniforms(int(np.prod(s))).reshape(s) - 0.5 for n, s in shapes.items()}
        # "c" has a gradient on even steps only: its slot must read zero, not
        # the last step's gradient; "big" gets none on step 4
        absent = {"c"} if k % 2 else set()
        if k == 4:
            absent.add("big")
        flat.step({ours[n]: g for n, g in draws.items() if n not in absent})
        ref.step({theirs[n]: g for n, g in draws.items() if n not in absent})
        _assert_same_state(flat, ref)


def test_flat_adam_matches_reference_on_shared_scan_model():
    for dtype in ("float64", "float32"):  # the flat vector, m and v in the model's dtype
        cfg = micro_cfg(share_scan_params=True, dtype=dtype)
        ours, theirs = Model(cfg), Model(cfg)
        flat, ref = Adam(ours.params(), lr=1e-3), _reference_adam(theirs.params(), lr=1e-3)
        assert flat.flat.dtype == flat.m.dtype == flat.v.dtype == dtype
        samples = micro_samples(2)
        for k in range(4):
            if k == 2:
                flat.lr = ref.lr = 1e-4
            for model, opt in ((ours, flat), (theirs, ref)):
                with T.Tape() as tape:
                    grads = T.backward(tape, batch_loss(model, samples, [0, 1]))
                if k == 3:
                    del grads[model.params()["enc0.b0.ssm.a_log"]]
                opt.step(grads)
            _assert_same_state(flat, ref)


# ---------------------------------------------------------------------------
# loss plumbing and training


def _reference_batch_loss(model, samples, idxs):
    imgs, labels = M._stack_batch(samples, idxs)
    pred = model.forward(imgs, labels)
    total = None
    for row, i in enumerate(idxs):
        s = samples[i]
        term = composite_loss(s.smap, s.fmap, ops.index(pred, row),
                              weights=model.cfg.loss_weights,
                              kl_literal=model.cfg.kl_literal)
        total = term if total is None else ops.add(total, term)
    return ops.mul(total, 1.0 / len(idxs))


@pytest.mark.parametrize("kl_literal", [False, True])
def test_batch_loss_matches_per_sample_loop(kl_literal):
    m = Model(micro_cfg(kl_literal=kl_literal, dtype="float64"))
    samples = micro_samples(3)

    def run(loss_fn):
        with T.Tape() as tape:
            loss = loss_fn(m, samples, [2, 0, 1])
            grads = T.backward(tape, loss)
        return float(loss.data), {n: grads[t] for n, t in m.params().items()}

    value, grads = run(batch_loss)
    want, want_grads = run(_reference_batch_loss)
    assert abs(value - want) <= 1e-12 * abs(want)
    for name, g in grads.items():
        w = want_grads[name]
        assert np.abs(g - w).max() <= 1e-12 * max(np.abs(w).max(), 1e-300), name


def test_batch_loss_matches_manual_mean():
    m = Model(micro_cfg(dtype="float64"))
    samples = micro_samples(3)
    loss = batch_loss(m, samples, [0, 1, 2])
    pred = m.forward(np.stack([s.image for s in samples]),
                     [s.label for s in samples])
    manual = np.mean([
        float(composite_loss(s.smap, s.fmap, T.Tensor(pred.data[i])).data)
        for i, s in enumerate(samples)
    ])
    assert abs(float(loss.data) - manual) < 1e-9


def test_train_produces_consistent_report():
    m = Model(micro_cfg(epochs=2, batch_size=2, lr=1e-3))
    samples = micro_samples(4)
    report = train(m, samples[:3], samples[3:])
    assert len(report.rows) == 2
    assert len(report.f_scores) == 2
    assert 0 <= report.best_epoch < 2
    assert report.num_parameters == m.num_parameters()
    assert report.config["epochs"] == 2
    assert not report.stopped_early
    # decayed lr schedule is recorded per row
    assert report.rows[0].lr == pytest.approx(1e-3)
    text = report.to_json()
    assert "timestamp" not in text and '"rows"' in text


def test_train_is_deterministic():
    def run():
        m = Model(micro_cfg(epochs=2, batch_size=2, lr=1e-3))
        samples = micro_samples(4)
        report = train(m, samples[:3], samples[3:])
        return report.to_json(), {n: t.data.copy() for n, t in m.params().items()}

    r1, p1 = run()
    r2, p2 = run()
    assert r1 == r2
    for name in p1:
        assert np.array_equal(p1[name], p2[name]), name


def test_lr_decay_schedule():
    m = Model(micro_cfg(epochs=5, batch_size=4, lr=1e-3, decay_every=2,
                        decay_factor=0.1, patience=10))
    samples = micro_samples(4)
    report = train(m, samples[:3], samples[3:])
    lrs = [row.lr for row in report.rows]
    assert lrs == pytest.approx([1e-3, 1e-3, 1e-4, 1e-4, 1e-5])


def test_early_stopping_uses_reranked_argmax(monkeypatch):
    calls = []

    def fake_f_scores(runs):
        calls.append(len(runs))
        # epoch 0 always ranks best -> training must stop after `patience`
        from sumnet.metrics import RunScore
        return [RunScore(name, 0.5, 0.5, 0.5, 0.5, 3.0 - i)
                for i, (name, _) in enumerate(runs)]

    monkeypatch.setattr(M, "f_scores", fake_f_scores)
    m = Model(micro_cfg(epochs=10, batch_size=4, lr=1e-4, patience=2))
    samples = micro_samples(4)
    report = train(m, samples[:3], samples[3:])
    assert report.stopped_early
    assert report.best_epoch == 0
    assert len(report.rows) == 3  # epochs 0..2, then 2 - 0 >= patience
    assert calls == [1, 2, 3]


def test_best_epoch_parameters_are_restored(monkeypatch):
    def fake_f_scores(runs):
        from sumnet.metrics import RunScore
        return [RunScore(name, 0.5, 0.5, 0.5, 0.5, 3.0 - i)
                for i, (name, _) in enumerate(runs)]

    monkeypatch.setattr(M, "f_scores", fake_f_scores)
    m = Model(micro_cfg(epochs=3, batch_size=4, lr=1e-3, patience=5))
    samples = micro_samples(4)
    snapshots = []
    orig_step = Adam.step

    def spy_step(self, grads):
        orig_step(self, grads)
        snapshots.append(self.params["head.out.weight"].data.copy())

    monkeypatch.setattr(Adam, "step", spy_step)
    train(m, samples[:3], samples[3:])
    # best epoch is 0 (one batch per epoch); restored weight equals the
    # value right after epoch 0's only step, not the last step
    assert np.array_equal(m.params()["head.out.weight"].data, snapshots[0])
    assert not np.array_equal(snapshots[0], snapshots[-1])


def test_parameters_stay_views_of_the_flat_vector(monkeypatch):
    def fake_f_scores(runs):
        from sumnet.metrics import RunScore
        return [RunScore(name, 0.5, 0.5, 0.5, 0.5, 3.0 - i)
                for i, (name, _) in enumerate(runs)]

    made = []

    class RecordingAdam(Adam):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(M, "f_scores", fake_f_scores)
    monkeypatch.setattr(M, "Adam", RecordingAdam)
    m = Model(micro_cfg(epochs=2, batch_size=4, lr=1e-3, patience=5))
    samples = micro_samples(4)
    before = m.state_arrays()
    train(m, samples[:3], samples[3:])
    (opt,) = made

    def assert_packed():
        for name, t in m.params().items():
            assert np.shares_memory(t.data, opt.flat), name

    # epoch 0 ranks best, so train ended by restoring it in place
    assert_packed()
    restored = opt.flat.copy()
    m.load_state(before)
    assert_packed()
    assert not np.array_equal(opt.flat, restored)
    assert np.array_equal(m.params()["head.out.weight"].data, before["head.out.weight"])

    victim = m.params()["enc1.b0.gate.weight"]
    victim.data = victim.data.copy()
    t_before = opt.t
    with pytest.raises(RuntimeError, match="enc1.b0.gate.weight"):
        opt.step({})
    assert opt.t == t_before


def test_load_state_rejects_before_writing():
    m = Model(micro_cfg())
    opt = Adam(m.params(), lr=1e-3)
    kept = opt.flat.copy()
    bad = {n: np.zeros(t.shape) for n, t in m.params().items()}
    bad["skip0.weight"] = np.zeros((3, 3))
    with pytest.raises(ConfigError, match="skip0.weight"):
        m.load_state(bad)
    assert np.array_equal(opt.flat, kept)


def test_numeric_abort_names_the_parameter(monkeypatch):
    m = Model(micro_cfg(epochs=1, batch_size=2))
    samples = micro_samples(4)
    victim = m.params()["enc2.b0.ssm.a_log"]
    calls = []
    real_backward = T.backward

    def poisoned_backward(tape, loss):
        grads = real_backward(tape, loss)
        calls.append(1)
        if len(calls) == 2:
            grads[victim] = np.full_like(grads[victim], np.nan)
        return grads

    monkeypatch.setattr(T, "backward", poisoned_backward)
    with pytest.raises(NumericAbort) as exc:
        train(m, samples[:3], samples[3:])
    assert str(exc.value) == ("non-finite gradient in enc2.b0.ssm.a_log "
                              "(epoch 0, batch 1)")
    assert (exc.value.epoch, exc.value.batch) == (0, 1)


def test_numeric_abort_names_location():
    m = Model(micro_cfg(epochs=1, batch_size=2, lr=1e30))
    samples = micro_samples(4)
    with pytest.raises(NumericAbort) as exc:
        train(m, samples[:3], samples[3:])
    assert exc.value.epoch == 0
    assert exc.value.batch >= 0
    assert "epoch 0" in str(exc.value)


def test_numeric_abort_message_is_pinned():
    # the lr=1e30 step leaves a_log so large that exp(a_log) overflows; the
    # forward squashes it (abar = 0), so only the gradient boundary trips,
    # and its checked replay names the op (in float32 the gate linear's
    # product overflows first; test_precision.py has float32's own edges)
    m = Model(micro_cfg(epochs=1, batch_size=2, lr=1e30, dtype="float64"))
    samples = micro_samples(4)
    with pytest.raises(NumericAbort) as exc:
        train(m, samples[:3], samples[3:])
    assert str(exc.value) == ("selective_scan exp(a_log): produced a non-finite value "
                              "(epoch 0, batch 1)")


def _with_nan_gate(model):
    model.params()["enc1.b0.gate.weight"].data[1, 2] = np.nan
    return model


def test_boundary_replay_names_the_op():
    samples = micro_samples(3)
    imgs = np.stack([s.image for s in samples])
    labels = [s.label for s in samples]
    with pytest.raises(T.NumericError, match="gated_block gate linear"):
        _with_nan_gate(Model(micro_cfg())).predict(imgs, labels)
    with T.Tape() as clean:
        batch_loss(Model(micro_cfg()), samples, [0, 1, 2])
    with T.Tape() as tape:
        with pytest.raises(T.NumericError, match="gated_block gate linear"):
            batch_loss(_with_nan_gate(Model(micro_cfg())), samples, [0, 1, 2])
    # the first, unchecked run's nodes and no replay node
    assert [n.kind for n in tape.nodes] == [n.kind for n in clean.nodes]


def test_non_finite_input_image_names_its_batch_index():
    m = Model(micro_cfg())
    samples = micro_samples(3)
    samples[2].image[5, 7, 1] = np.inf
    imgs = np.stack([s.image for s in samples])
    with pytest.raises(T.NumericError, match="input image 2 has a non-finite pixel"):
        m.predict(imgs, [0, 1, 2])
    with pytest.raises(T.NumericError, match="input image 1 has a non-finite pixel"):
        batch_loss(m, samples, [0, 2])
    with T._op_checks(False), np.errstate(invalid="ignore"):  # every boundary's check too
        assert not np.isfinite(m.predict(imgs, [0, 1, 2])[2]).all()


def test_boundary_checks_change_no_value():
    # the same model under per-op checks, as every op ran before boundaries
    m = Model(micro_cfg())
    samples = micro_samples(3)
    imgs = np.stack([s.image for s in samples])
    want = T.replay_checked(m.predict, imgs, [0, 1, 2])
    assert m.predict(imgs, [0, 1, 2]).tobytes() == want.tobytes()
    grads = []
    for scope in (T._op_checks(True), T._op_checks(False), contextlib.nullcontext()):
        with scope, T.Tape() as tape:
            loss = batch_loss(m, samples, [0, 1, 2])
            g = T.backward(tape, loss)
        grads.append([loss.data.tobytes()] + [g[t].tobytes() for t in m.params().values()])
    assert grads[0] == grads[1] == grads[2]


def test_a_squashed_intermediate_is_not_an_error():
    # exp(a_log) overflows to inf, so A = -inf and abar = 0: the map is finite
    m = Model(micro_cfg())
    m.params()["enc1.b0.ssm.a_log"].data[...] = 1000.0
    img = micro_samples(1)[0].image[None]
    assert np.isfinite(m.predict(img, [0])).all()
    with pytest.raises(T.NumericError, match=r"selective_scan exp\(a_log\)"):
        T.replay_checked(m.predict, img, [0])  # a per-op check still sees it


def test_predict_records_nothing_under_an_active_tape(monkeypatch):
    m = Model(micro_cfg())
    imgs = np.stack([s.image for s in micro_samples(2)])
    untaped = m.predict(imgs, [0, 3])
    keeps = []
    real = scan._scan_forward
    monkeypatch.setattr(scan, "_scan_forward",
                        lambda *a, keep=True: keeps.append(keep) or real(*a, keep=keep))
    with T.Tape() as tape:
        taped = m.predict(imgs, [0, 3])
        assert len(tape.nodes) == 0
    assert keeps and not any(keeps)  # the scan kept no full-size state
    assert taped.tobytes() == untaped.tobytes()


def test_a_predict_runs_at_most_three_finiteness_tests(monkeypatch):
    m = Model(SumConfig(input_size=32, base_channels=4))  # step-micro's model, at B=1
    img = micro_samples(1)[0].image[None]
    calls = []
    real = T.np.isfinite
    monkeypatch.setattr(T.np, "isfinite", lambda *a, **k: calls.append(1) or real(*a, **k))
    m.predict(img, [0])
    assert 0 < len(calls) <= 3


def test_train_input_validation():
    m = Model(micro_cfg())
    with pytest.raises(ConfigError):
        train(m, [], micro_samples(1))
    with pytest.raises(ConfigError):
        train(m, micro_samples(1), [])


def test_evaluate_counts_and_keys():
    m = Model(micro_cfg())
    samples = micro_samples(5)
    reports, summary = evaluate(m, samples, batch_size=2)
    assert len(reports) == 5
    assert summary["count"] == 5
    assert {r.sample_id for r in reports} == {f"s{i}" for i in range(5)}
    for key in ("cc", "kld", "auc", "sim", "nss"):
        assert "mean" in summary[key] and "excluded" in summary[key]
