"""Layer implementations."""

from repro.nn.layers.activations import FlattenLayer, ReLULayer
from repro.nn.layers.base import Layer
from repro.nn.layers.conv import ConvLayer
from repro.nn.layers.dense import DenseLayer
from repro.nn.layers.pool import MaxPoolLayer

__all__ = [
    "Layer",
    "ConvLayer",
    "MaxPoolLayer",
    "ReLULayer",
    "FlattenLayer",
    "DenseLayer",
]
