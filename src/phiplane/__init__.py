"""Exact golden-mean plane exchanges and their coding combinatorics."""

from .exchange import (PieceExchange, Point, build_base_exchange,
                       build_translation_exchange, exchange_tower,
                       projection_witness, renormalize)
from .field import PHI, QPhi, phi_power
from .geometry import QuadBound, Region, Strip
from .refine import complexity_table
from .words import FIBONACCI, Language, Substitution, fibonacci_word

__all__ = [
    "FIBONACCI",
    "Language",
    "PHI",
    "PieceExchange",
    "Point",
    "QPhi",
    "QuadBound",
    "Region",
    "Strip",
    "Substitution",
    "build_base_exchange",
    "build_translation_exchange",
    "complexity_table",
    "exchange_tower",
    "fibonacci_word",
    "phi_power",
    "projection_witness",
    "renormalize",
]
