"""Continuous-time quantum walks of one and two photons in coupled waveguide arrays.

Submodules: ``geometry`` (layouts and fan-in trajectories), ``coupling``
(evanescent coupling matrices), ``propagation`` (spectral propagators,
amplitude traces and the z-ordered product), ``twophoton`` (correlation
matrices, HOM scans, fidelity), ``polarization`` (vectorial chip model and
Mueller tomography), ``config`` and ``cli`` (run configuration and
command-line surface).

Importing the package sets ``OPENBLAS_NUM_THREADS=1`` unless
``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` is
already set: no matrix here is wider than 2N, where a second BLAS thread
costs CPU and saves no time. It takes effect only if numpy is not yet
imported, and child processes inherit it.
"""

import os

if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .io import TOOL_VERSION as __version__  # noqa: E402, F401

from . import (  # noqa: E402, F401
    config,
    coupling,
    geometry,
    io,
    polarization,
    propagation,
    twophoton,
)
