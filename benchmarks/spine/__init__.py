"""The measurement spine: one end-to-end + per-layer benchmark.

Matrix in -> answer out, measured from outside the program by timing
calls into each module's public functions.  ``python -m benchmarks.spine``
runs the four workloads of ``BENCHMARK.json`` (cold / steady x2 /
served); ``--trace`` re-runs a workload with a span around every layer
call and reports the per-layer metrics.  See ``README.md`` next to this
file for the metric glossary and the reasons behind each workload.
"""

#: One caller thread, one BLAS thread: the spine measures the program's
#: scheduling, not BLAS-internal parallelism.  The entry point sets these
#: to 1 before numpy loads.
BLAS_PIN = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
