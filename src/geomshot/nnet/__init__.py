from .layers import BatchNorm1d, Dropout, Linear, ParamBuffer, ParamTensor, ReLU
from .encoder import EncoderConfig, MLPEncoder
from .optim import AdamW, cosine_lr
from .checkpoint import load_checkpoint, save_checkpoint
from .gradcheck import GradCheckReport, finite_difference_check

__all__ = [
    "AdamW",
    "BatchNorm1d",
    "Dropout",
    "EncoderConfig",
    "GradCheckReport",
    "Linear",
    "MLPEncoder",
    "ParamBuffer",
    "ParamTensor",
    "ReLU",
    "cosine_lr",
    "finite_difference_check",
    "load_checkpoint",
    "save_checkpoint",
]
