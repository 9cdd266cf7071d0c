"""NumPy deep-learning substrate with reverse-mode autograd.

This package replaces the GPU deep-learning framework the paper used with
a self-contained implementation of exactly the layer types that appear in
the paper's Fig.-3 CNN (Conv2D, ReLU, MaxPooling2D, Flatten, Dense) plus
the training machinery a deployment reaches: the losses and optimizers a
JobSpec can name, accuracy tracking and checkpoint serialization.  There
is no train/eval mode: no layer behaves differently at inference, where
``no_grad`` alone selects the fused inference kernels.
"""

from . import dtype, functional, init, losses, metrics, optim, serialization
from .dtype import default_dtype, get_default_dtype, set_default_dtype
from .layers import (
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    Module,
    Parameter,
    ReLU,
    Sequential,
)
from .losses import CrossEntropyLoss, Loss, MSELoss, NLLLoss, get_loss
from .optim import SGD, Adam, AdamW, Optimizer, RMSProp, get_optimizer
from .tensor import Tensor, no_grad

__all__ = [
    "Tensor",
    "no_grad",
    "dtype",
    "default_dtype",
    "get_default_dtype",
    "set_default_dtype",
    "functional",
    "init",
    "losses",
    "metrics",
    "optim",
    "serialization",
    # layers
    "Module",
    "Parameter",
    "Sequential",
    "Dense",
    "Conv2D",
    "MaxPool2D",
    "ReLU",
    "Flatten",
    # losses
    "Loss",
    "CrossEntropyLoss",
    "NLLLoss",
    "MSELoss",
    "get_loss",
    # optim
    "Optimizer",
    "SGD",
    "Adam",
    "AdamW",
    "RMSProp",
    "get_optimizer",
]
