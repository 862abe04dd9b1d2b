"""Exception types shared across the package."""


class RlabError(Exception):
    """Base class for all package-specific errors."""


class BlowupError(RlabError):
    """The time stepper detected an unphysical jump of the L2 mass."""

    def __init__(self, t, step, mass_before, mass_after):
        self.t = t
        self.step = step
        self.mass_before = mass_before
        self.mass_after = mass_after
        super().__init__(
            f"L2 mass moved {mass_before:.6e} -> {mass_after:.6e} in one step "
            f"(step {step}, t = {t:.6g}); aborting"
        )


class ConfigError(RlabError):
    """An experiment configuration is missing keys or has invalid values."""
