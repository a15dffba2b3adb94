"""Minimal reverse-mode autodiff engine (substrate for eLUT-NN calibration)."""

from . import functional, init, optim
from .functional import (
    accuracy,
    cross_entropy,
    dropout,
    gelu,
    l2_reconstruction,
    log_softmax,
    mse,
    relu,
    sigmoid,
    softmax,
    ste_hard_assign,
)
from .optim import SGD, Adam, Optimizer
from .tensor import (Tensor, concatenate, is_grad_enabled, maximum, minimum,
                     no_grad, ones, stack, tensor, unbroadcast, where, zeros)

__all__ = [
    "Tensor",
    "tensor",
    "zeros",
    "ones",
    "concatenate",
    "stack",
    "where",
    "maximum",
    "minimum",
    "unbroadcast",
    "no_grad",
    "is_grad_enabled",
    "softmax",
    "log_softmax",
    "gelu",
    "relu",
    "sigmoid",
    "cross_entropy",
    "mse",
    "l2_reconstruction",
    "dropout",
    "ste_hard_assign",
    "accuracy",
    "Optimizer",
    "SGD",
    "Adam",
    "functional",
    "optim",
    "init",
]
