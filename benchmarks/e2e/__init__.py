"""Absolute, layered end-to-end benchmark of the BlockGNN reproduction.

Four workloads (``offline_full``, ``serve_cold``, ``serve_warm_zipf``,
``serve_openloop_process``), five end-to-end metrics on each, and a traced
run that splits every workload into per-layer numbers.  The program is
measured from outside only: the files here time calls into public functions
of ``repro`` and read counters it already exposes.  See ``README.md``.
"""
