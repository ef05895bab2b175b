"""ECM-friendliness toolkit: CM point counting, Dickman rho, L-function
constants, friability census.

ecsmooth never calls BLAS, but numpy's OpenBLAS starts a worker thread at
import, which costs CPU in every process and leaves a thread behind when the
census pool forks.  This module runs before any submodule imports numpy,
whichever submodule is imported first, so it asks for one BLAS thread here;
a value already set in the environment is kept.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
