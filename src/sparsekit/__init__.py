"""Inner-product-search data structures and the solvers built on them."""

__version__ = "0.1.0"
