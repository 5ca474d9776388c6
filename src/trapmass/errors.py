"""Exception and warning types shared across the package."""


class TrapMassError(Exception):
    """Base class for all package errors."""


# --- parameter / model construction ---

class MissingField(TrapMassError):
    def __init__(self, field):
        self.field = field
        super().__init__(f"required field missing: {field!r}")


class NonPositiveMass(TrapMassError):
    def __init__(self, field, value):
        self.field = field
        super().__init__(f"{field} must be positive, got {value!r}")


class NonMonotoneLevels(TrapMassError):
    def __init__(self, levels):
        super().__init__(
            f"internal levels must start at 0 and be strictly increasing, got {levels!r}"
        )


class LevelOutOfRange(TrapMassError):
    def __init__(self, index, n_levels):
        super().__init__(f"level index {index} out of range for {n_levels} levels")


# --- Fock-space numerics ---

class DimensionTooSmall(TrapMassError):
    pass


class DimensionMismatch(TrapMassError):
    pass


class ParamMismatch(TrapMassError):
    pass


class ConvergenceFailure(TrapMassError):
    pass


class TruncationInsufficient(TrapMassError):
    pass


# --- traces / fits / optimization ---

class NotNormalized(TrapMassError):
    pass


class NonGaussianProfile(TrapMassError):
    pass


# --- clock module ---

class ZeroGravity(TrapMassError):
    pass


class DegenerateLevels(TrapMassError):
    pass


class InvalidDistribution(TrapMassError):
    pass


# --- warnings ---

class RegimeWarning(UserWarning):
    """Inputs are outside the small-parameter regime a formula assumes."""
