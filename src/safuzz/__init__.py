"""Soft-assertion guided fuzzing for numerical instability.

The package unit-tests numerically unstable kernels against failure oracles,
trains a decision-forest "soft assertion" per kernel that judges whether the
values at a call site can trigger instability, and uses the assertion's
increase/decrease signals, propagated through reverse-mode autodiff, to steer
a fuzzer over computation-graph programs.
"""

__version__ = "0.1.0"

from safuzz.tensor import Tensor

__all__ = ["Tensor", "__version__"]
