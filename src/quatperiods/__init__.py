"""Quaternionic period sums for Yoshida lifts, with exact arithmetic.

Submodules:
  lattice    exact lattices and short vector enumeration
  quatalg    definite quaternion algebras over Q
  orders     Eichler orders, ideal class sets, essential parts
  harmonics  harmonic polynomial spaces, kernels, trilinear forms
  brandt     Brandt matrices, eigenforms, theta lifts
  yoshida    degree-2 Yoshida lift Fourier coefficients
  periods    Atkin-Lehner gates, period sums, the quadruple pipeline
  diffop     holomorphic differential operators on Siegel expansions
  lseries    newform data, Euler factors, numerical central values
  cli        thin command line layer over the modules above
"""

__version__ = "0.1.0"
