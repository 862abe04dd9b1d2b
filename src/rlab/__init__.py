"""rlab: a pseudo-spectral laboratory for the 3D quadratic Schroedinger
equation with small electromagnetic potentials.

Periodic-box spectral engine, base-1.1 frequency-band calculus, the
controlling norms (H^s, mixed space-time, the profile norm X, the potential
norm Y), Strang-split linear/quadratic/Hamiltonian flows, the
iterated Duhamel (Born) series with its wave-operator limit, and an
empirical harness for the smoothing, Strichartz and dispersive
inequalities the scattering argument runs on.
"""

__version__ = "0.1.0"
