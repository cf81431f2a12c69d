"""Jellyfish motion-capture analysis and reservoir-computing prediction toolkit."""

__version__ = "0.1.0"

from .errors import MedusaError  # noqa: F401
