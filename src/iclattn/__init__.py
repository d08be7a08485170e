"""Block-structured encoder attention for in-context learning, with the
dense/FiD/ensemble fusion baselines and a scaling benchmark. Import its
modules, e.g. `from iclattn import model`; this file re-exports nothing."""
