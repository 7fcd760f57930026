"""Kernel-launch-time static analysis (paper Section III-B).

Implements BlockMaestro's value-range analysis: a backward def-use walk
from every global memory instruction (Algorithm 1) to detect non-static
(indirect) addressing, plus a forward abstract interpretation over an
affine domain that — given the concrete launch configuration and kernel
arguments available at launch time — produces the byte-exact read and
write sets of every thread block.
"""
