"""Trust-boundary taint pass (TRUST001) unit tests."""

import textwrap

from repro.analysis.engine import LintEngine, Project, build_file_context


def _analyze(source, module="repro.service.handlers"):
    return LintEngine(select=["TRUST001"]).lint_source(
        textwrap.dedent(source), module=module, path=f"{module}.py"
    )


class TestDirectFlows:
    def test_request_field_to_np_load(self):
        diags = _analyze(
            """
            import json
            import numpy as np

            def handle(body):
                doc = json.loads(body)
                return np.load(doc["path"])
            """
        )
        assert [d.code for d in diags] == ["TRUST001"]
        assert "np.load" in diags[0].message

    def test_request_field_to_subprocess(self):
        diags = _analyze(
            """
            import json
            import subprocess

            def handle(body):
                doc = json.loads(body)
                subprocess.run(["tool", doc["path"]])
            """
        )
        assert [d.code for d in diags] == ["TRUST001"]
        assert "subprocess" in diags[0].message

    def test_tainted_pathlib_receiver(self):
        diags = _analyze(
            """
            import json
            from pathlib import Path

            def handle(body):
                doc = json.loads(body)
                target = Path(doc["path"])
                return target.read_bytes()
            """
        )
        assert [d.code for d in diags] == ["TRUST001"]

    def test_validated_document_is_clean(self):
        diags = _analyze(
            """
            import json
            import numpy as np

            from repro.service.schemas import validate_job_request

            def handle(body):
                request = validate_job_request(json.loads(body))
                return np.load(request["source"]["path"])
            """
        )
        assert diags == []

    def test_untainted_constant_path_is_clean(self):
        diags = _analyze(
            """
            import json
            import numpy as np

            def handle(body):
                doc = json.loads(body)
                count = len(doc)
                return np.load("fixed.npy"), count
            """
        )
        assert diags == []

    def test_strong_update_clears_taint(self):
        diags = _analyze(
            """
            import json

            def handle(body):
                doc = json.loads(body)
                doc = {"path": "fixed.npy"}
                with open(doc["path"], "rb") as fh:
                    return fh.read()
            """
        )
        assert diags == []


class TestInterprocedural:
    def test_taint_follows_positional_argument(self):
        diags = _analyze(
            """
            import json

            def handle(body):
                doc = json.loads(body)
                _probe(doc["source"])

            def _probe(source):
                with open(source["path"], "rb"):
                    pass
            """
        )
        assert [d.code for d in diags] == ["TRUST001"]
        assert "_probe" in diags[0].message or "open" in diags[0].message

    def test_taint_follows_keyword_argument(self):
        diags = _analyze(
            """
            import json

            def handle(body):
                doc = json.loads(body)
                _probe(source=doc["source"])

            def _probe(source=None):
                with open(source["path"], "rb"):
                    pass
            """
        )
        assert [d.code for d in diags] == ["TRUST001"]

    def test_taint_follows_method_call(self):
        diags = _analyze(
            """
            import json
            import numpy as np

            class Handler:
                def handle(self, body):
                    doc = json.loads(body)
                    return self.load(doc["path"])

                def load(self, path):
                    return np.load(path)
            """
        )
        assert [d.code for d in diags] == ["TRUST001"]

    def test_untainted_call_does_not_follow(self):
        diags = _analyze(
            """
            import json

            def handle(body):
                json.loads(body)
                _probe("fixed.cfg")

            def _probe(source):
                with open(source, "rb"):
                    pass
            """
        )
        assert diags == []

    def test_loop_carried_taint_reaches_sink(self):
        diags = _analyze(
            """
            import json
            import numpy as np

            def handle(bodies):
                path = "fixed.npy"
                for body in bodies:
                    np.load(path)
                    path = json.loads(body)["path"]
            """
        )
        assert [d.code for d in diags] == ["TRUST001"]


class TestScope:
    def test_non_service_modules_are_out_of_scope(self):
        diags = _analyze(
            """
            import json
            import numpy as np

            def handle(body):
                doc = json.loads(body)
                return np.load(doc["path"])
            """,
            module="repro.mesh.loader",
        )
        assert diags == []

    def test_finding_survives_cross_module_flow(self):
        handler = build_file_context(
            textwrap.dedent(
                """
                import json

                from repro.service.worker import execute

                def handle(body):
                    execute(json.loads(body))
                """
            ),
            module="repro.service.http",
            path="repro/service/http.py",
        )
        worker = build_file_context(
            textwrap.dedent(
                """
                import numpy as np

                def execute(request):
                    return np.load(request["path"])
                """
            ),
            module="repro.service.worker",
            path="repro/service/worker.py",
        )
        diags = LintEngine(select=["TRUST001"]).lint_project(
            Project([handler, worker])
        )
        assert [d.code for d in diags] == ["TRUST001"]
        assert diags[0].path == "repro/service/worker.py"
