"""BlockMaestro core: the paper's primary contribution.

Subpackages/modules:

* :mod:`repro.core.dependency_graph` — bipartite thread-block dependency
  graphs between consecutive kernels (paper Fig. 1) and their builder.
* :mod:`repro.core.patterns` — Table I dependency-pattern detection.
* :mod:`repro.core.encoding` — pattern-aware graph encodings and their
  storage costs (Tables I and III).
* :mod:`repro.core.hardware` — Dependency List Buffer / Parent Counter
  Buffer model (Fig. 7) with memory-request accounting (Fig. 13).
* :mod:`repro.core.reorder` — programmer-transparent command-queue
  reordering (Fig. 5).
* :mod:`repro.core.policy` — thread-block scheduling policies.
* :mod:`repro.core.runtime` — the launch-time pipeline tying analysis,
  graph construction and encoding together for an API trace.
"""
