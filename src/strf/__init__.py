"""Factorized spatio-temporal attention for video re-identification.

numpy-backed reference implementation: a small reverse-mode tape, 3-D
convolution and pooling kernels, the four-branch factorized attention unit,
residual video backbones, metric losses, a retrieval protocol, and a
synthetic benchmark generator, all reachable from the ``strf`` CLI.
"""
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    DomainError,
    EvaluationError,
    NumericError,
    ShapeError,
    StrfError,
)
from .tensor import Tensor, no_grad
from .gradcheck import grad_check
from .kernels import conv3d, strided_max_pool3d
from .factorize import (
    StrfConfig,
    ffm_branch,
    init_strf_params,
    strf_forward,
    strf_param_count,
)
from .backbone import (
    Network,
    NetworkSpec,
    attention_export,
    count_params,
    forward_features,
    resnet50_spec,
)
from .losses import batch_hard_triplet, cross_entropy, total_loss
from .evaluation import RetrievalResult, Tracklet, evaluate
from .synthdata import SynthSpec, generate, load_manifest, load_tracklets, make_batch
from .config import RunConfig, parse_config, parse_config_text
from .checkpoint import load_checkpoint, save_checkpoint
from .tensorio import read_tensor, write_tensor
from .optim import Adam, decayed_lr
from .train import params_report, run_retrieval, run_training

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "ConfigError",
    "ContractError",
    "DataError",
    "DomainError",
    "EvaluationError",
    "Network",
    "NetworkSpec",
    "NumericError",
    "RetrievalResult",
    "RunConfig",
    "ShapeError",
    "StrfConfig",
    "StrfError",
    "SynthSpec",
    "Tensor",
    "Tracklet",
    "attention_export",
    "batch_hard_triplet",
    "conv3d",
    "count_params",
    "cross_entropy",
    "decayed_lr",
    "evaluate",
    "ffm_branch",
    "forward_features",
    "generate",
    "grad_check",
    "init_strf_params",
    "load_checkpoint",
    "load_manifest",
    "load_tracklets",
    "make_batch",
    "no_grad",
    "params_report",
    "parse_config",
    "parse_config_text",
    "read_tensor",
    "resnet50_spec",
    "run_retrieval",
    "run_training",
    "save_checkpoint",
    "strf_forward",
    "strf_param_count",
    "strided_max_pool3d",
    "total_loss",
    "write_tensor",
]
