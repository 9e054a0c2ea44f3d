"""Same-named methods of two classes: only the first of each pair is bad."""

import numpy as np

from repro.kernels import kernel
from repro.runtime.executor import spmd_run

TOTALS = []


class Racy:
    @staticmethod
    def step(ctx):
        TOTALS.append(ctx.rank)  # SPMD001: module-level list, every rank


class Confined:
    @staticmethod
    def step(ctx):
        ctx.state["rank"] = ctx.rank


def run_racy():
    return spmd_run(2, [Racy.step])


class Impure:
    @staticmethod
    def scale(x):
        print("scaling", x)  # KERN001: I/O reached from a kernel
        return x * 2.0


class Pure:
    @staticmethod
    def scale(x):
        return x * 2.0


@kernel
def doubled(x: np.ndarray) -> np.ndarray:
    return Impure.scale(x)
