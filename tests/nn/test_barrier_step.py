"""Threads change wall-clock, never bits: a whole training step on the
barrier path.

Every zoo network, built with ``threads > 1``, runs its conv layers'
FP/BP through a :class:`repro.runtime.parallel.ParallelExecutor` on each
backend.  The step's output, input error and every gradient must equal
the unthreaded network's bit for bit -- including when the worker count
does not divide the batch, exceeds it, or the backend is switched
between steps.
"""

import numpy as np
import pytest

from repro.nn import zoo

NETS = ["mnist_net", "cifar10_net", "alexnet_small", "imagenet100_net"]
BATCH = 5


def build(name, **kwargs):
    return getattr(zoo, name)(scale=0.25, rng=np.random.default_rng(3),
                              **kwargs)


def close_network(network):
    for layer in network.conv_layers():
        layer.close()


def step(network, x, err):
    """One FP + BP, returning everything the step computed."""
    network.zero_grads()
    out = network.forward(x, training=True)
    in_err = network.backward(err)
    grads = [np.array(g) for _, _, g in network.parameters()]
    return out, in_err, grads


def assert_same_step(got, want):
    out, in_err, grads = got
    np.testing.assert_array_equal(out, want[0])
    np.testing.assert_array_equal(in_err, want[1])
    assert len(grads) == len(want[2])
    for g, w in zip(grads, want[2]):
        np.testing.assert_array_equal(g, w)


@pytest.fixture(scope="module")
def reference():
    """Per network: (x, err, unthreaded step result).

    The output shape is probed on a throwaway network so every measured
    network enters its step with the same RNG state (dropout draws once
    per forward pass).
    """
    refs = {}
    for name in NETS:
        probe = build(name)
        x = np.random.default_rng(10).standard_normal(
            (BATCH, *probe.input_shape))
        out_shape = probe.forward(x, training=True).shape
        close_network(probe)
        err = np.random.default_rng(11).standard_normal(out_shape)
        network = build(name)
        refs[name] = (x, err, step(network, x, err))
        close_network(network)
    return refs


@pytest.mark.parametrize("name", NETS)
class TestThreadedStepBitIdentity:
    @pytest.mark.parametrize("threads", [2, 3, 8])
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_in_process_backends_match_unthreaded(
        self, name, backend, threads, reference
    ):
        x, err, want = reference[name]
        network = build(name, threads=threads, backend=backend)
        try:
            assert all(layer._pool is not None
                       for layer in network.conv_layers())
            assert_same_step(step(network, x, err), want)
        finally:
            close_network(network)

    def test_process_backend_matches_unthreaded(self, name, reference):
        x, err, want = reference[name]
        network = build(name, threads=2, backend="process")
        try:
            assert_same_step(step(network, x, err), want)
        finally:
            close_network(network)

    def test_repeated_steps_reuse_scratch_without_drift(self, name,
                                                        reference):
        # Engines keep workspaces between calls; a second step on the
        # same weights must not see anything left over from the first.
        x, err, want = reference[name]
        network = build(name, threads=3, backend="thread")
        try:
            first = step(network, x, err)
            network_ref = build(name)
            step(network_ref, x, err)  # advance dropout RNG in lockstep
            second_want = step(network_ref, x, err)
            close_network(network_ref)
            assert_same_step(first, want)
            assert_same_step(step(network, x, err), second_want)
        finally:
            close_network(network)

    def test_backend_switch_between_steps_keeps_bits(self, name, reference):
        x, err, want = reference[name]
        threaded = build(name, threads=2, backend="thread")
        unthreaded = build(name)
        try:
            assert_same_step(step(threaded, x, err), want)
            step(unthreaded, x, err)
            for layer in threaded.conv_layers():
                layer.set_backend("serial")
                assert layer.backend == "serial"
            assert_same_step(step(threaded, x, err),
                             step(unthreaded, x, err))
        finally:
            close_network(threaded)
            close_network(unthreaded)
