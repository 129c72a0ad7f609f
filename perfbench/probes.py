"""Where the traced pass wraps geomshot, and the per-layer metrics it yields.

Every layer boundary below becomes a span name; each reported name gets
``<name>.calls`` and ``<name>.self_s``. ``cli`` is the span the benchmark
opens around ``geomshot.cli.main``; config parsing, run directories and
JSON/CSV writing fall into its self time.
"""

from __future__ import annotations

from collections import defaultdict

from tracing import Tracer, self_times

SPAN_NAMES = (
    "cli",
    "synth.generate_corpus",
    "synth.sample_hand",
    "npyio.write_keypoints",
    "npyio.load_keypoints",
    "dataio.build_catalog",
    "dataio.load_split",
    "dataio.stratified_split",
    "features.build_feature_pool",
    "geometry.featurize.raw",
    "geometry.featurize.angle",
    "geometry.featurize.raw_angle",
    "episodes.sample_episode",
    "fewshot.protonet_loss_and_grads",
    "fewshot.supcon_loss_and_grad",
    "fewshot.compute_prototypes",
    "fewshot.classify",
    "pipeline.train",
    "nnet.encoder.forward_train",
    "nnet.encoder.forward_eval",
    "nnet.encoder.backbone_forward",
    "nnet.encoder.backward",
    "nnet.linear.forward",
    "nnet.linear.backward",
    "nnet.batchnorm.forward",
    "nnet.batchnorm.backward",
    "nnet.relu.forward",
    "nnet.relu.backward",
    "nnet.dropout.forward",
    "nnet.dropout.backward",
    "nnet.optim.step",
    "nnet.checkpoint.save",
    "nnet.checkpoint.load",
    "evaluation.protocol",
    "evaluation.fit_softmax_regression",
    "evaluation.full_data_linear",
)


def _arg(args, kwargs, index: int, key: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(key, default)


def _rows(args, kwargs):
    return {"rows": len(_arg(args, kwargs, 1, "x"))}


def _pool_rows(args, kwargs):
    encoder, fp = _arg(args, kwargs, 0, "encoder"), _arg(args, kwargs, 1, "fp")
    return {"pool_rows": fp.X.shape[0] if encoder is not None else 0}


def _encoder_forward_name(args, kwargs):
    train = _arg(args, kwargs, 2, "train")
    return "nnet.encoder.forward_train" if train else "nnet.encoder.forward_eval"


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of geomshot, at every name that binds it."""
    import geomshot.cli  # noqa: F401  (binds the names the CLI calls)
    from geomshot import dataio, episodes, evaluation, features, fewshot, geometry, npyio, pipeline, synth
    from geomshot.nnet import checkpoint, encoder, layers, optim

    functions = [
        (synth, "generate_corpus", "synth.generate_corpus", None),
        (synth, "sample_hand", "synth.sample_hand", None),
        (npyio, "write_keypoints", "npyio.write_keypoints", None),
        (npyio, "load_keypoints", "npyio.load_keypoints", lambda a, k: {"path": str(_arg(a, k, 0, "path"))}),
        (dataio, "build_catalog", "dataio.build_catalog", None),
        (dataio, "load_split", "dataio.load_split", None),
        (dataio, "stratified_split", "dataio.stratified_split", None),
        (features, "build_feature_pool", "features.build_feature_pool", None),
        (geometry, "featurize", lambda a, k: "geometry.featurize." + _arg(a, k, 1, "kind"), None),
        (episodes, "sample_episode", "episodes.sample_episode", None),
        (fewshot, "protonet_loss_and_grads", "fewshot.protonet_loss_and_grads", None),
        (fewshot, "supcon_loss_and_grad", "fewshot.supcon_loss_and_grad", None),
        (fewshot, "compute_prototypes", "fewshot.compute_prototypes", None),
        (fewshot, "classify", "fewshot.classify", None),
        (pipeline, "train_encoder", "pipeline.train", None),
        (pipeline, "pretrain_source", "pipeline.train", None),
        (pipeline, "adapt", "pipeline.train", None),
        (checkpoint, "save_checkpoint", "nnet.checkpoint.save", None),
        (checkpoint, "load_checkpoint", "nnet.checkpoint.load", None),
        (evaluation, "evaluate", "evaluation.protocol", _pool_rows),
        (evaluation, "episode_linear_baseline", "evaluation.protocol", _pool_rows),
        (evaluation, "input_space_baseline", "evaluation.protocol", None),
        (evaluation, "multi_seed", "evaluation.protocol", None),
        (evaluation, "ablation_normalization", "evaluation.protocol", None),
        (evaluation, "fit_softmax_regression", "evaluation.fit_softmax_regression", None),
        (evaluation, "full_data_linear", "evaluation.full_data_linear", None),
    ]
    for module, attr, name, attrs in functions:
        tracer.wrap_function(module, attr, name, attrs)

    methods = [
        (encoder.MLPEncoder, "forward", _encoder_forward_name, _rows),
        (encoder.MLPEncoder, "backbone_forward", "nnet.encoder.backbone_forward", None),
        (encoder.MLPEncoder, "backward", "nnet.encoder.backward", None),
        (optim.AdamW, "step", "nnet.optim.step", lambda a, k: {"tensors": len(a[0].params)}),
    ]
    for cls, layer in ((layers.Linear, "linear"), (layers.BatchNorm1d, "batchnorm"),
                       (layers.ReLU, "relu"), (layers.Dropout, "dropout")):
        methods.append((cls, "forward", f"nnet.{layer}.forward", None))
        methods.append((cls, "backward", f"nnet.{layer}.backward", None))
    for cls, attr, name, attrs in methods:
        tracer.wrap_method(cls, attr, name, attrs)


def per_layer_metrics(spans, traced_wall_s: float) -> dict[str, float]:
    """Calls and self time per span name, plus the derived counts.

    ``trace.coverage`` is the share of the traced wall time spent inside
    named layers below the CLI span: the CLI spans' durations minus their
    self time, over the wall time of the traced section.
    """
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for s in spans:
        totals[s.name][0] += 1
        totals[s.name][1] += own[s.id]

    def under(span, name: str) -> bool:
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name == name:
                return True
        return False

    def named(name):
        return [s for s in spans if s.name == name]

    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        calls, own_s = totals.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = own_s

    evals = named("nnet.encoder.forward_eval")
    steps = named("nnet.optim.step")
    loads = named("npyio.load_keypoints")
    pool_rows = sum(s.attrs.get("pool_rows", 0) for s in named("evaluation.protocol"))
    protocol_rows = sum(s.attrs["rows"] for s in evals if under(s, "evaluation.protocol"))
    out["nnet.encoder.train_rows"] = sum(s.attrs["rows"] for s in named("nnet.encoder.forward_train"))
    out["nnet.encoder.eval_rows"] = sum(s.attrs["rows"] for s in evals)
    out["nnet.optim.tensors_per_step"] = (
        sum(s.attrs["tensors"] for s in steps) / len(steps) if steps else 0.0
    )
    out["pipeline.monitor_eval_rows"] = sum(s.attrs["rows"] for s in evals if under(s, "pipeline.train"))
    out["evaluation.embed_rows_per_pool_row"] = protocol_rows / pool_rows if pool_rows else 0.0
    out["npyio.decodes_per_file"] = (
        len(loads) / len({s.attrs["path"] for s in loads}) if loads else 0.0
    )
    inside = sum((s.end - s.start) - own[s.id] for s in named("cli"))
    out["trace.coverage"] = inside / traced_wall_s if traced_wall_s > 0 else 0.0
    return out
