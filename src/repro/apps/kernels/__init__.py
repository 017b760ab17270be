"""Real runnable mini-kernels for the three elastic applications.

The analytical layer treats applications as demand functions; these
kernels are actual NumPy computations with measurable output quality, so
the package demonstrates elasticity end-to-end on real code:

* :mod:`~repro.apps.kernels.nbody` — O(n²) leapfrog n-body integrator;
  accuracy = energy conservation, improving with more (smaller) steps.
* :mod:`~repro.apps.kernels.encoder` — 8×8 DCT + quantization image
  encoder; quality = PSNR, trading off against compression factor.
* :mod:`~repro.apps.kernels.align` — k-mer candidate filter + banded
  alignment; quality = recall of true overlaps at threshold ``t``.

Each kernel also reports an *operation count* so the instruction-counting
harness (:mod:`repro.measurement.perf`) can attach real, measured
demand-vs-parameter curves to the reproduction (small scales only).
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "repro.apps.kernels.nbody": [
        "NBodySystem", "simulate_nbody", "NBodyResult",
    ],
    "repro.apps.kernels.barneshut": [
        "BarnesHutResult", "barnes_hut_accelerations",
    ],
    "repro.apps.kernels.encoder": [
        "encode_image", "encode_frame_pair", "EncodeResult",
        "MotionEncodeResult", "synthetic_frames",
    ],
    "repro.apps.kernels.align": [
        "AlignmentResult", "assemble_candidates", "synthetic_reads",
    ],
})
