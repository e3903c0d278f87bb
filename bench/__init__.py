"""End-to-end benchmark of the profiling pipeline.

``python -m bench run`` times cold, record and warm profiling
operations on each workload and checks their outputs;
``python -m bench trace`` splits one operation of each kind into the
public calls it makes and reports per-layer numbers;
``python -m bench compare A.json B.json`` compares two result files.
See ``bench/README.md``.
"""
