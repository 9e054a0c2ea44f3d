"""The bench spine: the repo's one benchmark (see ``README.md`` here).

``run.py`` measures one workload per invocation (the command recorded
in the root ``BENCHMARK.json``); ``python -m benchmarks.spine run``
drives every workload, untraced then traced, and ``compare`` gates two
sets of results on the bounds ``BENCHMARK.json`` declares.
"""
