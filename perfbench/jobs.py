"""Seeded inputs: kernel order for the paper runs, job chain for the sweep.

Every seed covers the same work in a different order.  The paper runs
collect all roster kernels, and the sweep's job chain visits every
kernel twice, so run-to-run differences come from ordering and the host,
not from one seed drawing cheaper kernels than another.
"""

import random

#: I-cache grid of every sweep job, per kernel: 3 ISAs x 4 sizes x
#: 4 associativities x 3 block sizes.  It holds the paper's four points
#: (ARM/FITS at 8 and 16 KiB, 32-way, 32-byte blocks, 350 nm, 32-bit
#: fetch).
GRID = {
    "isas": ("arm", "thumb", "fits"),
    "sizes": (4096, 8192, 16384, 32768),
    "assocs": (1, 2, 4, 32),
    "blocks": (16, 32, 64),
}


def kernel_order(kernels, seed):
    """The roster in a seeded order."""
    order = list(kernels)
    random.Random(seed).shuffle(order)
    return order


def job_chain(kernels, seed):
    """Sweep jobs as kernel pairs; consecutive jobs share one kernel.

    The chain closes on itself, so each kernel appears in exactly two
    jobs: the first to reach it computes its points and the second is
    served from the global cache (or coalesced onto the computation
    still in flight).
    """
    order = kernel_order(kernels, seed)
    return [(order[i], order[(i + 1) % len(order)])
            for i in range(len(order))]
