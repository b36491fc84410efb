"""Exact Schur-polynomial expansions of random-matrix kernels.

Modules:

* ``scalars``    -- exact rationals, Laurent rational functions in u = q^(1/2),
                    high-precision reals, polynomials, determinants
* ``partitions`` -- partition combinatorics
* ``symfun``     -- Schur / complete-homogeneous evaluation, q-dimensions
* ``ensembles``  -- moments, orthogonal polynomials, Schur averages + oracle
* ``kernels``    -- kernel representations and their mutual-equality checks
* ``painleve``   -- Laguerre-Wronskian series and the fermion identity
* ``toeplitz_fh``-- Fisher-Hartwig Toeplitz inverses (Duduchava-Roch)
* ``heat_kernel``-- Chebyshev heat kernel
* ``verify``     -- the verification suites behind ``schurkernels verify``
"""

__version__ = "0.1.0"
