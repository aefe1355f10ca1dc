"""Exception types shared across the package."""


class CycleformerError(Exception):
    """Base class so callers can catch everything package-specific at once."""


class ShapeError(CycleformerError, ValueError):
    """Operand shapes or dtypes are incompatible with the requested op."""


class ConfigError(CycleformerError, ValueError):
    """A run or model configuration is malformed or inconsistent."""


class DataError(CycleformerError, ValueError):
    """Corpus or batch construction cannot proceed (too short, bad ids)."""


class UsageError(CycleformerError, RuntimeError):
    """An API was called out of contract (e.g. backward on an off-tape value)."""


class CheckpointError(CycleformerError, ValueError):
    """Checkpoint container is unreadable."""


class CheckpointMagicError(CheckpointError):
    """File does not start with the expected magic bytes."""


class CheckpointVersionError(CheckpointError):
    """Container version is not one this reader understands."""


class TrainingDiverged(CycleformerError, RuntimeError):
    """Loss or a parameter gradient became non-finite during training.

    `param` names the parameter whose gradient was non-finite; None means
    the loss itself was.
    """

    def __init__(self, step: int, loss: float, param: str | None = None):
        if param is None:
            message = f"non-finite loss {loss!r} at step {step}"
        else:
            message = f"non-finite gradient for parameter {param!r} at step {step} (loss {loss!r})"
        super().__init__(message)
        self.step = step
        self.loss = loss
        self.param = param
