"""Full network assembly: embed, encode, attend, re-encode, predict.

One embedding encoder runs over both context and question with shared
parameters. The attention output feeds a single model-encoder stack applied
three times in sequence (again shared), producing M0, M1, M2; the span head
reads [M0; M1] for starts and [M0; M2] for ends.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .attention import CqAttentionParams, cq_attention_forward, init_cq_attention
from .data import Batch, QaExample, Vocabulary, build_batch
from .embedding import EmbeddingParams, embed, init_embedding_params
from .encoder import EncoderBlockConfig, EncoderBlockParams, encoder_stack_forward, init_encoder_stack
from .span import (
    SpanHeadParams, SpanLogits, SpanPrediction, dp_span_inference,
    init_span_head, span_distributions, span_logits, span_loss,
)
from .tensor import Tensor, no_grad


@dataclass
class ModelConfig:
    hidden_dim: int = 128
    num_heads: int = 8
    word_dim: int = 300
    char_dim: int = 200
    char_limit: int = 16
    char_kernel: int = 5
    emb_enc_blocks: int = 1
    emb_enc_convs: int = 4
    emb_enc_kernel: int = 7
    model_enc_blocks: int = 7
    model_enc_convs: int = 2
    model_enc_kernel: int = 5
    dropout: float = 0.1
    word_dropout: float = 0.1
    char_dropout: float = 0.05
    survival_end: float = 0.9
    max_context_len: int = 400
    max_answer_len: int = 30

    def __post_init__(self):
        for key in ("dropout", "word_dropout", "char_dropout"):
            if not 0.0 <= getattr(self, key) < 1.0:
                raise ValueError(f"{key} must lie in [0, 1), got {getattr(self, key)}")
        if not 0.0 < self.survival_end <= 1.0:
            raise ValueError(f"survival_end must lie in (0, 1], got {self.survival_end}")
        # Int fields are sizes of at least 1; block and conv counts may be 0.
        for key in (f.name for f in dataclasses.fields(self) if f.type == "int"):
            low = 0 if key.endswith(("_blocks", "_convs")) else 1
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be at least {low}, got {getattr(self, key)}")
        for key in ("char_kernel", "emb_enc_kernel", "model_enc_kernel"):
            if getattr(self, key) % 2 == 0:
                raise ValueError(f"{key} must be odd, got {getattr(self, key)}")
        if self.hidden_dim % 2:
            raise ValueError(f"hidden_dim must be even, got {self.hidden_dim}")
        if self.hidden_dim % self.num_heads:
            raise ValueError(f"hidden_dim must be divisible by num_heads "
                             f"{self.num_heads}, got {self.hidden_dim}")

    def embedding_encoder(self) -> EncoderBlockConfig:
        return EncoderBlockConfig(
            num_blocks=self.emb_enc_blocks, num_conv_layers=self.emb_enc_convs,
            kernel_size=self.emb_enc_kernel, hidden_dim=self.hidden_dim,
            num_heads=self.num_heads, dropout=self.dropout,
            survival_end=self.survival_end)

    def model_encoder(self) -> EncoderBlockConfig:
        return EncoderBlockConfig(
            num_blocks=self.model_enc_blocks, num_conv_layers=self.model_enc_convs,
            kernel_size=self.model_enc_kernel, hidden_dim=self.hidden_dim,
            num_heads=self.num_heads, dropout=self.dropout,
            survival_end=self.survival_end)


@dataclass
class ModelParams:
    embedding: EmbeddingParams
    emb_encoder: list[EncoderBlockParams]
    cq: CqAttentionParams
    model_encoder: list[EncoderBlockParams]
    span: SpanHeadParams


def init_model_params(config: ModelConfig, word_matrix: np.ndarray,
                      char_vocab_size: int, rng) -> ModelParams:
    if word_matrix.shape[1] != config.word_dim:
        raise ValueError(
            f"word vectors are {word_matrix.shape[1]}-dim, config says {config.word_dim}")
    return ModelParams(
        embedding=init_embedding_params(
            word_matrix, char_vocab_size, config.char_dim, config.char_kernel,
            config.hidden_dim, rng),
        emb_encoder=init_encoder_stack(config.embedding_encoder(), rng),
        cq=init_cq_attention(config.hidden_dim, rng),
        model_encoder=init_encoder_stack(config.model_encoder(), rng),
        span=init_span_head(config.hidden_dim, rng))


def _tensor_leaves(prefix: str, node):
    """(dotted name, tensor) for every tensor under ``node``, field order; a
    generator, so walking a model leaves no reference cycle holding it."""
    if isinstance(node, Tensor):
        yield prefix, node
    elif dataclasses.is_dataclass(node):
        for f in dataclasses.fields(node):
            yield from _tensor_leaves(f"{prefix}.{f.name}" if prefix else f.name,
                                      getattr(node, f.name))
    elif isinstance(node, (list, tuple)):
        for i, item in enumerate(node):
            yield from _tensor_leaves(f"{prefix}.{i}", item)


def named_tensors(params) -> list[tuple[str, Tensor]]:
    """Flatten a params tree into (dotted name, tensor) pairs, field order."""
    return list(_tensor_leaves("", params))


def named_parameters(params: ModelParams) -> list[tuple[str, Tensor]]:
    """Trainable tensors only; the frozen word table never appears."""
    return [(name, t) for name, t in _tensor_leaves("", params)
            if t.requires_grad]


def model_forward(params: ModelParams, config: ModelConfig, batch: Batch,
                  rng=None) -> SpanLogits:
    """Span logits; ``rng`` None is eval mode, a generator draws every dropout and skip."""
    emb_cfg = config.embedding_encoder()
    model_cfg = config.model_encoder()

    def side(word_ids, char_ids, mask):
        x = embed(params.embedding, word_ids, char_ids,
                  word_dropout=config.word_dropout,
                  char_dropout=config.char_dropout, rng=rng)
        return encoder_stack_forward(x, emb_cfg, params.emb_encoder, mask, rng)

    context = side(batch.context_ids, batch.context_chars, batch.context_mask)
    question = side(batch.question_ids, batch.question_chars, batch.question_mask)
    x = cq_attention_forward(context, question, params.cq,
                             batch.context_mask, batch.question_mask)
    stacked = [x]
    for _ in range(3):
        stacked.append(encoder_stack_forward(
            stacked[-1], model_cfg, params.model_encoder, batch.context_mask, rng))
    M0, M1, M2 = stacked[1], stacked[2], stacked[3]
    return span_logits(M0, M1, M2, params.span.w1, params.span.w2,
                       batch.context_mask)


def model_loss(params: ModelParams, config: ModelConfig, batch: Batch,
               train_mode: bool = False, rng=None) -> tuple[Tensor, SpanLogits]:
    """Mean span loss and the logits; ``train_mode`` must equal ``rng is not None``."""
    if train_mode != (rng is not None):
        raise ValueError(f"model_loss: train_mode={train_mode} needs "
                         f"{'an rng' if train_mode else 'rng=None'}, got {rng!r}")
    logits = model_forward(params, config, batch, rng)
    return span_loss(logits, batch.spans[:, 0], batch.spans[:, 1]), logits


def predict_spans(params: ModelParams, config: ModelConfig,
                  batch: Batch) -> list[SpanPrediction]:
    """Evaluation-mode argmax spans, one per row, each row run alone unpadded."""
    out = []
    for i in range(batch.size):
        with no_grad():
            p1, p2 = span_distributions(model_forward(params, config, batch.row(i)))
        out.append(dp_span_inference(p1.data[0], p2.data[0], max_len=config.max_answer_len))
    return out


def span_text(example: QaExample, start: int, end: int) -> str:
    """Recover the answer string for a token span from stored offsets."""
    lo = example.char_offsets[start][0]
    hi = example.char_offsets[end][1]
    return example.context_text[lo:hi]


def predict_all(params: ModelParams, config: ModelConfig, examples,
                vocab: Vocabulary) -> dict[str, str]:
    """Predicted answer text for every example, keyed by example id."""
    out = {}
    for ex in examples:
        batch = build_batch([ex], vocab, char_limit=config.char_limit)
        (pred,) = predict_spans(params, config, batch)
        out[ex.id] = span_text(ex, pred.start, pred.end)
    return out
