"""Exception types shared across the package."""

import numpy as np


class ConfigurationError(ValueError):
    """Raised when a config file, preset, or parameter set is inconsistent."""


class NumericalError(RuntimeError):
    """Raised when a numerical routine fails (e.g. SVD non-convergence).

    Carries the seed needed to reproduce the offending realization, when
    one is known, and the index of the failing matrix within a stack,
    when the failure is one matrix of a stack.
    """

    def __init__(self, message, seed=None, index=None):
        if isinstance(seed, np.random.SeedSequence):
            # its repr spans several lines
            message = (f"{message} (reproduce with seed=SeedSequence("
                       f"entropy={seed.entropy}, spawn_key={seed.spawn_key}))")
        elif seed is not None:
            message = f"{message} (reproduce with seed={seed})"
        super().__init__(message)
        self.seed = seed
        self.index = index
