"""Projective Schur Q-functions, BKP hypergeometric tau functions, and
their Pfaffian representations, all over exact rational arithmetic."""

from .gseries import BiSeries, OddSeries
from .partitions import Partition, StrictPartition, double, enumerate_strict
from .qschur import XPoint, q_lambda, schur_s
from .rspec import (
    Cutoff,
    Ones,
    Product,
    RationalPS,
    SymmetricRational,
    Table,
    TParam,
    hook_star,
    parse_rspec,
)
from .tau import TauReport, tau_bkp, tau_kp

__all__ = [
    "BiSeries",
    "OddSeries",
    "Partition",
    "StrictPartition",
    "double",
    "enumerate_strict",
    "XPoint",
    "q_lambda",
    "schur_s",
    "Cutoff",
    "Ones",
    "Product",
    "RationalPS",
    "SymmetricRational",
    "Table",
    "TParam",
    "hook_star",
    "parse_rspec",
    "TauReport",
    "tau_bkp",
    "tau_kp",
]
