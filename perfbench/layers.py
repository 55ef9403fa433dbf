"""Span tracing of inkstone's public functions, from outside the package.

``Tracer.install`` replaces every public function of the layer modules
with a wrapper that records a span (function, start, end, parent span)
and, for a few functions, exact counts computed from the call's
arguments and result. The wrapper is bound under every ``inkstone.*``
module attribute that refers to the original function object, so a call
made through ``from .model import encoder_forward`` is traced exactly
like one made through ``T.matmul``: moving a call site cannot drop its
span.

Spans are kept in flat arrays in memory and written out by
``Tracer.save`` at the end of the run. Self time is the span's duration
minus the durations of its direct children.

``tensor.backward`` is one opaque span: the per-op backward closures it
calls are not module attributes.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("tensor", "model", "optim", "pretrain", "finetune", "decode",
          "evaluate", "vocab", "corpus")

# Helpers that every op calls or that only build state. A span per call
# would cost more than the work it measures.
UNTRACED = frozenset({
    "tensor.as_tensor", "tensor.parameter", "tensor.no_grad",
    "tensor.is_grad_enabled", "tensor.grad_check",
})


def _count_matmul(tr, idx, args, kwargs, result):
    # forward FLOPs: 2 * output elements * contracted dimension
    tr.add("tensor.matmul_flop", 2.0 * result.data.size * args[0].shape[-1])


def _count_decoder(tr, idx, args, kwargs, result):
    ids = np.asarray(args[1] if len(args) > 1 else kwargs["target_ids"])
    tr.add("model.decoder_positions", ids.size)
    if tr.under("decode.greedy_from_step", "decode.beam_from_step"):
        tr.add("decode.decoder_calls", 1)
        tr.add("decode.decoder_positions", ids.size)


def _count_mlm_head(tr, idx, args, kwargs, result):
    hidden = args[1] if len(args) > 1 else kwargs["hidden"]
    tr.add("model.mlm_head_rows", int(np.prod(hidden.shape[:-1])))


def _count_mask(tr, idx, args, kwargs, result):
    tr.add("pretrain.labels", result.num_labels)


def _count_adam(tr, idx, args, kwargs, result):
    grads = args[1] if len(args) > 1 else kwargs["grads"]
    tr.add("optim.param_elements", sum(int(g.size) for g in grads.values()))
    tr.add("optim.steps", 1)


def _count_greedy(tr, idx, args, kwargs, result):
    ckpt = args[0]
    cap = args[3] if len(args) > 3 else kwargs.get("max_decode_len", 64)
    tr.decodes.append(("greedy", min(cap, ckpt.config.max_positions - 1), len(result), idx))


def _count_beam(tr, idx, args, kwargs, result):
    ckpt, cfg = args[0], (args[3] if len(args) > 3 else kwargs["cfg"])
    cap = min(cfg.max_decode_len, ckpt.config.max_positions - 1)
    tr.decodes.append(("beam", cap, len(result[0]), idx))


COUNTERS = {
    "tensor.matmul": _count_matmul,
    "model.decoder_forward": _count_decoder,
    "model.mlm_head": _count_mlm_head,
    "pretrain.apply_mlm_mask": _count_mask,
    "optim.adam_step": _count_adam,
    "decode.greedy_decode": _count_greedy,
    "decode.beam_search": _count_beam,
}


class TraceError(RuntimeError):
    """The program no longer has a function the per-layer metrics depend on."""


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        # (strategy, cap, generated tokens, span index) per decoded source
        self.decodes: list[tuple[str, int, int, int]] = []
        self.patched: list[tuple[object, str, object]] = []
        self.wall = 0.0

    # ---------------------------------------------------------- recording

    def add(self, key: str, value: float) -> None:
        self.counts[key] += value

    def under(self, *names: str) -> bool:
        """True when a span of one of these functions encloses the current call."""
        ids = {self.name_ids[n] for n in names}
        return any(self.span_name[i] in ids for i in self.stack[1:])

    def _wrap(self, qualname: str, fn):
        name_id = self.name_ids.setdefault(qualname, len(self.names))
        if name_id == len(self.names):
            self.names.append(qualname)
        counter = COUNTERS.get(qualname)
        clock = time.perf_counter
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                counter(self, idx, args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------ install

    def install(self, required: set[str]) -> None:
        """Wrap every public layer function under every module attribute bound to it.

        ``required`` names functions the derived metrics depend on; one that
        no longer exists is a TraceError.
        """
        import importlib

        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"inkstone.{layer}")
            for attr, obj in vars(mod).items():
                qualname = f"{layer}.{attr}"
                if (attr.startswith("_") or qualname in UNTRACED
                        or not inspect.isfunction(obj) or obj.__module__ != mod.__name__):
                    continue
                wrappers[id(obj)] = self._wrap(qualname, obj)
        missing = sorted(n for n in required | set(COUNTERS) if n not in self.name_ids)
        if missing:
            raise TraceError(f"traced functions missing from inkstone: {missing}")
        for modname, mod in list(sys.modules.items()):
            if modname != "inkstone" and not modname.startswith("inkstone."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self.patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self.patched):
            setattr(mod, attr, obj)
        self.patched.clear()

    def start(self) -> None:
        self._t0 = time.perf_counter()

    def stop(self) -> None:
        self.wall += time.perf_counter() - self._t0

    # ----------------------------------------------------------- analysis

    def arrays(self) -> dict[str, np.ndarray]:
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {"name": name, "parent": parent, "start": start, "end": end,
                "dur": dur, "self": dur - child}

    def seen(self) -> dict[str, int]:
        counts = np.bincount(np.frombuffer(self.span_name, dtype=np.int32),
                             minlength=len(self.names))
        return {n: int(c) for n, c in zip(self.names, counts)}

    def save(self, path) -> None:
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=a["name"],
                            parent=a["parent"], start=a["start"], end=a["end"])


# ------------------------------------------------------- per-layer metrics

SHAPE_OPS = ("tensor.reshape", "tensor.transpose", "tensor.scale")
NAMED_TENSOR_OPS = {
    "tensor.matmul_s": "tensor.matmul", "tensor.add_s": "tensor.add",
    "tensor.softmax_s": "tensor.softmax", "tensor.layer_norm_s": "tensor.layer_norm",
    "tensor.gelu_s": "tensor.gelu", "tensor.dropout_s": "tensor.dropout",
    "tensor.embedding_s": "tensor.embedding",
    "tensor.cross_entropy_s": "tensor.cross_entropy_masked",
}
INCLUSIVE = {
    "model.mlm_head_s": ("model.mlm_head",),
    "model.encoder_forward_s": ("model.encoder_forward",),
    "model.decoder_forward_s": ("model.decoder_forward",),
    "model.save_checkpoint_s": ("model.save_checkpoint",),
    "model.load_checkpoint_s": ("model.load_checkpoint",),
    "optim.adam_step_s": ("optim.adam_step",),
    "pretrain.mask_s": ("pretrain.apply_mlm_mask",),
    "finetune.dev_bleu_s": ("finetune.dev_bleu",),
    "evaluate.bleu_s": ("evaluate.bleu",),
    "corpus.load_s": ("corpus.load_documents", "corpus.load_parallel_tsv"),
}
SEARCH = ("decode.greedy_decode", "decode.beam_search",
          "decode.greedy_from_step", "decode.beam_from_step")
DECODE_ROOTS = ("decode.greedy_decode", "decode.beam_search")
MODEL_FORWARD = ("model.encoder_forward", "model.decoder_forward")

REQUIRED = (set(NAMED_TENSOR_OPS.values()) | set(SHAPE_OPS) | set(SEARCH)
            | {n for names in INCLUSIVE.values() for n in names}
            | {"tensor.backward", "finetune.finetune_seq2seq", "vocab.encode", "vocab.tokenize"})

UNITS = {name: "s" for name in (
    *NAMED_TENSOR_OPS, "tensor.backward_s", "tensor.shape_ops_s", "tensor.other_s",
    *INCLUSIVE, "finetune.train_s", "decode.model_s", "decode.search_s",
    "vocab.encode_s", "vocab.tokenize_s")}
UNITS.update({
    "tensor.op_calls_per_step": "count", "tensor.matmul_gflop_per_step": "GFLOP",
    "tensor.matmul_gflop_per_s": "GFLOP/s", "model.mlm_head_rows_per_step": "count",
    "model.mlm_head_useful_ratio": "ratio", "optim.param_elements": "count",
    "optim.bytes_per_step": "B", "pretrain.labels_per_step": "count",
    "model.decoder_positions_per_token": "count", "decode.decoder_calls_per_token": "count",
    "decode.ms_per_token_16": "ms", "decode.ms_per_token_128": "ms",
    "decode.beam_ms_per_token": "ms", "decode.eos_early_share": "ratio",
    "trace.coverage": "ratio", "trace.overhead_share": "ratio",
})


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tr: Tracer, units: float, untraced_unit_s: float, traced_unit_s: float) -> dict:
    """Per-layer metrics from the spans of one traced loop.

    Times are seconds per workload unit (training step, epoch or prompt):
    self time for tensor ops, search and tokenizer functions, inclusive
    time for model, optimizer and pipeline functions, whose work is done
    by the tensor ops they call.
    """
    a = tr.arrays()
    ids = {n: i for i, n in enumerate(tr.names)}
    self_s = np.bincount(a["name"], weights=a["self"], minlength=len(tr.names))
    incl_s = np.bincount(a["name"], weights=a["dur"], minlength=len(tr.names))
    calls = np.bincount(a["name"], minlength=len(tr.names))

    def total(values, names) -> float:
        return float(sum(values[ids[n]] for n in names))

    m = {k: total(self_s, (fn,)) / units for k, fn in NAMED_TENSOR_OPS.items()}
    tensor_ops = [n for n in tr.names if n.startswith("tensor.") and n != "tensor.backward"]
    m["tensor.backward_s"] = total(incl_s, ("tensor.backward",)) / units
    m["tensor.shape_ops_s"] = total(self_s, SHAPE_OPS) / units
    named = set(NAMED_TENSOR_OPS.values()) | set(SHAPE_OPS)
    m["tensor.other_s"] = total(self_s, [n for n in tensor_ops if n not in named]) / units
    m["tensor.op_calls_per_step"] = total(calls, tensor_ops) / units
    flop = tr.counts["tensor.matmul_flop"]
    m["tensor.matmul_gflop_per_step"] = flop / 1e9 / units
    m["tensor.matmul_gflop_per_s"] = _ratio(flop / 1e9, total(self_s, ("tensor.matmul",)))

    m.update({k: total(incl_s, fns) / units for k, fns in INCLUSIVE.items()})
    rows = tr.counts["model.mlm_head_rows"]
    m["model.mlm_head_rows_per_step"] = rows / units
    m["model.mlm_head_useful_ratio"] = _ratio(tr.counts["pretrain.labels"], rows)
    elements = _ratio(tr.counts["optim.param_elements"], tr.counts["optim.steps"])
    m["optim.param_elements"] = elements
    # float32 Adam reads param, grad, m, v and writes param, m, v
    m["optim.bytes_per_step"] = elements * 4 * 7
    m["pretrain.labels_per_step"] = tr.counts["pretrain.labels"] / units
    m["finetune.train_s"] = (total(incl_s, ("finetune.finetune_seq2seq",)) / units
                             - m["finetune.dev_bleu_s"])

    # spans with a decoding call among their ancestors; a parent precedes its children
    in_decode = np.isin(a["name"], [ids[n] for n in DECODE_ROOTS])
    parent = a["parent"]
    while True:
        grown = in_decode | (parent >= 0) & in_decode[np.maximum(parent, 0)]
        if (grown == in_decode).all():
            break
        in_decode = grown
    forward = np.isin(a["name"], [ids[n] for n in MODEL_FORWARD])
    m["decode.model_s"] = float(a["dur"][forward & in_decode].sum()) / units
    m["decode.search_s"] = total(self_s, SEARCH) / units
    produced = sum(d[2] for d in tr.decodes)
    m["model.decoder_positions_per_token"] = _ratio(tr.counts["decode.decoder_positions"], produced)
    m["decode.decoder_calls_per_token"] = _ratio(tr.counts["decode.decoder_calls"], produced)

    def ms_per_token(strategy, cap=None) -> float:
        picked = [d for d in tr.decodes if d[0] == strategy and cap in (None, d[1])]
        return 1e3 * _ratio(float(sum(a["dur"][d[3]] for d in picked)),
                            sum(d[2] for d in picked))

    m["decode.ms_per_token_16"] = ms_per_token("greedy", 16)
    m["decode.ms_per_token_128"] = ms_per_token("greedy", 128)
    m["decode.beam_ms_per_token"] = ms_per_token("beam")
    m["decode.eos_early_share"] = _ratio(sum(d[2] < d[1] for d in tr.decodes), len(tr.decodes))
    m["vocab.encode_s"] = total(self_s, ("vocab.encode",)) / units
    m["vocab.tokenize_s"] = total(self_s, ("vocab.tokenize",)) / units

    m["trace.coverage"] = float(a["dur"][parent < 0].sum()) / tr.wall
    m["trace.overhead_share"] = traced_unit_s / untraced_unit_s - 1.0
    return m
