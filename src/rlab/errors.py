"""Exception types shared across the package."""


class RlabError(Exception):
    """Base class for all package-specific errors."""


class SingularSymbolError(RlabError):
    """A Fourier multiplier is non-finite at a mode the field actually uses."""

    def __init__(self, label, mode, xi):
        self.label = label
        self.mode = tuple(int(m) for m in mode)
        self.xi = tuple(float(v) for v in xi)
        super().__init__(
            f"symbol {label!r} is non-finite at active mode {self.mode} "
            f"(xi = {self.xi})"
        )


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
