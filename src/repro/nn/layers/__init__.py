"""Neural-network layers for the NumPy substrate."""

from .activations import ReLU
from .base import Module, Parameter
from .container import Sequential
from .conv import Conv2D
from .dense import Dense
from .pooling import MaxPool2D
from .reshape import Flatten

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "Dense",
    "Conv2D",
    "MaxPool2D",
    "ReLU",
    "Flatten",
]
