"""Preconditioners.

The paper's preconditioned experiments use block-Jacobi with page-sized
(512 x 512) diagonal blocks, chosen because its factorised diagonal
blocks double as the factors needed by the recovery interpolation
(Section 5.1).
"""
