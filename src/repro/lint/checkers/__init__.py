"""Checker registry."""

from __future__ import annotations

from typing import List

from repro.lint.base import Checker
from repro.lint.checkers.locks import LockChecker
from repro.lint.checkers.ordering import OrderingChecker
from repro.lint.checkers.reductions import ReductionChecker
from repro.lint.checkers.rng import RngChecker
from repro.lint.checkers.sanitize import SanitizeFactoryChecker
from repro.lint.checkers.wall_clock import WallClockChecker

ALL_CHECKERS: List[Checker] = [
    WallClockChecker(),
    RngChecker(),
    OrderingChecker(),
    ReductionChecker(),
    LockChecker(),
    SanitizeFactoryChecker(),
]


__all__ = [
    "ALL_CHECKERS",
    "LockChecker",
    "OrderingChecker",
    "ReductionChecker",
    "RngChecker",
    "SanitizeFactoryChecker",
    "WallClockChecker",
]
