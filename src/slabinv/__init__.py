"""Numerical toolkit for partial-data inverse boundary value problems in a slab.

Modules
-------
geometry : slab parameters, grids, boundary patch bookkeeping
fields   : grid fields, potentials, reflections/extensions, Fourier transform
boundary : plate boundary fields on bounding squares, sine spectra
forward  : finite-difference Helmholtz solves and admissibility checks
dnmap    : partial Dirichlet-to-Neumann matrices and the star operator norm
cgo      : complex-geometrical-optics probes with plate reflection
recovery : the recovery pipeline `recover`: estimates, continuation, bounds
harness  : measurement drivers (weighted inequality, decay, noise sweeps)
"""

__version__ = "0.1.0"
