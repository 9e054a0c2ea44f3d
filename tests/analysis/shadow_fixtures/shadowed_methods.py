"""Same-named methods of two classes: only the first of the pair is bad."""

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
