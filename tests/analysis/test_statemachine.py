"""State-machine verifier (SM001) against the real job table.

The call-site tests append ``.transition(...)`` calls to a rendered
copy of ``repro.service.queue._TRANSITIONS``.  The hypothesis property
closes the loop: every transition sequence the verifier would accept
statically is accepted at runtime by ``Job.transition``.
"""

import textwrap

from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.engine import LintEngine, Project, build_file_context
from repro.service.queue import _TERMINAL, _TRANSITIONS, Job


def _render_table(transitions, terminal):
    lines = ["_TRANSITIONS = {"]
    for state, dests in transitions.items():
        lines.append(f"    {state!r}: {tuple(dests)!r},")
    lines.append("}")
    lines.append(f"_TERMINAL = {tuple(terminal)!r}")
    return "\n".join(lines) + "\n"


def _analyze(source, module="repro.service.jobs"):
    return LintEngine(select=["SM001"]).lint_source(
        textwrap.dedent(source), module=module, path=f"{module}.py"
    )


class TestRealTable:
    def test_shipped_queue_module_verifies_clean(self):
        diags = LintEngine(select=["SM001"]).lint_paths(
            ["src/repro/service"]
        )
        assert diags == []

    def test_rendered_copy_verifies_clean(self):
        assert _analyze(_render_table(_TRANSITIONS, _TERMINAL)) == []


class TestCallSites:
    TABLE = _render_table(_TRANSITIONS, _TERMINAL)

    def test_legal_sequence_is_clean(self):
        diags = _analyze(
            self.TABLE
            + textwrap.dedent(
                """
                def drive(job):
                    job.transition("running")
                    job.transition("done")
                """
            )
        )
        assert diags == []

    def test_unknown_state_is_flagged(self):
        diags = _analyze(
            self.TABLE
            + "\ndef drive(job):\n    job.transition('paused')\n"
        )
        assert [d.code for d in diags] == ["SM001"]
        assert "'paused'" in diags[0].message

    def test_illegal_consecutive_pair_is_flagged(self):
        diags = _analyze(
            self.TABLE
            + textwrap.dedent(
                """
                def drive(job):
                    job.transition("cancelled")
                    job.transition("done")
                """
            )
        )
        assert [d.code for d in diags] == ["SM001"]
        assert "'cancelled' -> 'done'" in diags[0].message

    def test_table_found_across_modules(self):
        table_mod = build_file_context(
            self.TABLE, module="repro.service.jobs",
            path="repro/service/jobs.py",
        )
        caller = build_file_context(
            "from repro.service import jobs\n\n"
            "def drive(job):\n    job.transition('paused')\n",
            module="repro.service.driver",
            path="repro/service/driver.py",
        )
        diags = LintEngine(select=["SM001"]).lint_project(
            Project([table_mod, caller])
        )
        assert [d.code for d in diags] == ["SM001"]
        assert diags[0].path == "repro/service/driver.py"


@st.composite
def transition_walks(draw):
    """A path through the real table, starting at the initial state."""
    state = "queued"
    path = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        dests = _TRANSITIONS[state]
        if not dests:
            break
        state = draw(st.sampled_from(sorted(dests)))
        path.append(state)
    return path


class TestRuntimeConformance:
    @given(transition_walks())
    def test_statically_legal_walks_are_accepted_at_runtime(self, path):
        job = Job(id="j", request={"kind": "noop"}, submitted_s=0.0)
        for state in path:
            job.transition(state)
        assert job.state == (path[-1] if path else "queued")
        assert job.terminal == (job.state in _TERMINAL)
