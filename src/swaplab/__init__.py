"""swaplab: pointer-measurement simulation and outcome-swap symmetry certification.

The package exports only ``__version__``; import the submodules for the rest.
"""

__version__ = "0.1.0"
