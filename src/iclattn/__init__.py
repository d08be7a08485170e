"""Block-structured encoder attention for in-context learning, with the
dense/FiD/ensemble fusion baselines and a scaling benchmark."""

from .attention import full_attention, score_storage, structured_attention
from .model import EncoderDecoder, ModelConfig
from .segments import (RelativeBiasTable, SegmentLayout, bias_for_layout,
                       build_full_mask, build_structured_mask,
                       permute_segments, relative_bucket)
from .tensor import Tensor, backward, contract, softmax_last

__all__ = [
    "EncoderDecoder", "ModelConfig", "RelativeBiasTable", "SegmentLayout",
    "Tensor", "backward", "bias_for_layout", "build_full_mask",
    "build_structured_mask", "contract", "full_attention",
    "permute_segments", "relative_bucket", "score_storage", "softmax_last",
    "structured_attention",
]

__version__ = "0.1.0"
