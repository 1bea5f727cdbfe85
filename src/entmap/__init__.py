"""entmap: simulate and characterize anisotropic two-qubit Heisenberg couplings.

The pipeline runs prepare -> evolve -> measure -> estimate concurrence ->
extract oscillation frequencies -> invert couplings -> budget gate errors.
"""

__version__ = "0.1.0"
