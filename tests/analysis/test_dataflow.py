"""Unit coverage for the scope/capture/call-graph summaries."""

import ast
import textwrap
from pathlib import Path

import pytest

from repro.analysis.dataflow import (
    ProjectIndex,
    dotted_parts,
    dotted_text,
    summarize_module,
)


def summarize(source, module="m", path="m.py"):
    tree = ast.parse(textwrap.dedent(source))
    return summarize_module(module, path, tree)


class TestDottedParts:
    def test_name(self):
        assert dotted_parts(ast.parse("x", mode="eval").body) == ("x",)

    def test_attribute_chain(self):
        expr = ast.parse("a.b.c", mode="eval").body
        assert dotted_parts(expr) == ("a", "b", "c")

    def test_subscript_is_transparent(self):
        expr = ast.parse("ctx.shared['k'].append", mode="eval").body
        assert dotted_parts(expr) == ("ctx", "shared", "append")

    def test_unrooted_chain_is_none(self):
        expr = ast.parse("f().attr", mode="eval").body
        assert dotted_parts(expr) is None
        assert dotted_text(expr) is None


class TestScopeFacts:
    def test_params_and_bindings(self):
        s = summarize(
            """
            def f(a, b=1, *args, kw=None, **extra):
                local = a + other
                for loop_var in args:
                    pass
                return local
            """
        )
        fn = s.functions["f"]
        assert fn.params == {"a", "b", "args", "kw", "extra"}
        assert set(fn.bindings) == {"local"}
        assert isinstance(fn.bindings["local"], ast.BinOp)

    def test_bindings_resolve_through_enclosing_scopes(self):
        s = summarize(
            """
            def outer(param):
                acc = []
                def inner(ctx):
                    return acc, param
                return inner
            """
        )
        inner = s.functions["outer.<locals>.inner"]
        assert isinstance(inner.lookup_binding("acc"), ast.List)
        assert inner.lookup_binding("param") is None
        assert inner.lookup_binding("missing") is None

    def test_lambda_gets_a_summary(self):
        s = summarize("f = lambda ctx: ctx.rank\n")
        names = [fn.name for fn in s.functions.values()]
        assert names == ["<lambda-1>"]


class TestProjectIndex:
    def test_resolves_from_import(self):
        lib = summarize("def step(ctx):\n    return ctx.rank\n", "lib", "lib.py")
        app_tree = ast.parse(
            "from lib import step\n\ndef go():\n    step(None)\n"
        )
        index = ProjectIndex(
            [lib, summarize_module("app", "app.py", app_tree)]
        )
        fn = index.resolve_function("app", "step")
        assert fn is not None and fn.module == "lib"

    def test_resolves_module_attribute(self):
        lib = summarize("def step(ctx):\n    return 1\n", "lib", "lib.py")
        app_tree = ast.parse("import lib\n\ndef go():\n    lib.step(None)\n")
        index = ProjectIndex(
            [lib, summarize_module("app", "app.py", app_tree)]
        )
        fn = index.resolve_function("app", "lib.step")
        assert fn is not None and fn.qualname == "step"

    def test_unknown_name_resolves_to_none(self):
        lib = summarize("def step(ctx):\n    return 1\n", "lib", "lib.py")
        index = ProjectIndex([lib])
        assert index.resolve_function("lib", "missing") is None
        assert index.resolve_function("nope", "step") is None

    def test_resolve_call_prefers_nested_over_module(self):
        s = summarize(
            """
            def helper():
                return "module"

            def root(ctx):
                def helper():
                    return "nested"
                return helper()

            def other():
                return helper()
            """
        )
        index = ProjectIndex([s])
        nested = index.resolve_call(s.functions["root"], "helper")
        assert nested.qualname == "root.<locals>.helper"
        module = index.resolve_call(s.functions["other"], "helper")
        assert module.qualname == "helper"


class TestClassAwareIndex:
    SOURCE = """
        import threading

        class A:
            def __init__(self, peer: "B"):
                self.lock = threading.Lock()
                self.peer = peer

            def run(self):
                def inner():
                    return 1
                return inner()

        class B:
            def run(self):
                return 2

            class Inner:
                def run(self):
                    return 3

        def run():
            return 4
    """

    def test_same_named_methods_do_not_collide(self):
        s = summarize(self.SOURCE)
        assert sorted(s.functions) == [
            "A.__init__",
            "A.run",
            "A.run.<locals>.inner",
            "B.Inner.run",
            "B.run",
            "run",
        ]
        assert s.top_level_functions == {"run"}
        assert s.classes["A"].methods["run"] is s.functions["A.run"]
        assert s.classes["B.Inner"].methods["run"] is s.functions["B.Inner.run"]

    def test_owner_is_inherited_by_nested_functions(self):
        s = summarize(self.SOURCE)
        assert s.functions["A.run"].owner == "A"
        assert s.functions["A.run.<locals>.inner"].owner == "A"
        assert s.functions["B.Inner.run"].owner == "B.Inner"
        assert s.functions["run"].owner is None

    def test_self_attribute_assignments_are_recorded(self):
        s = summarize(self.SOURCE)
        init = s.functions["A.__init__"]
        facts = s.classes["A"].attr_assigns
        assert [(attr, method) for attr, _, _, method in facts] == [
            ("lock", init),
            ("peer", init),
        ]
        assert isinstance(facts[0][1], ast.Call)

    def test_class_method_reference_resolves(self):
        lib = summarize(self.SOURCE, "lib", "lib.py")
        app = summarize(
            "from lib import A\nimport lib\n\ndef go():\n    A.run(None)\n",
            "app",
            "app.py",
        )
        index = ProjectIndex([lib, app])
        assert index.resolve_function("lib", "B.run").qualname == "B.run"
        assert index.resolve_function("app", "A.run").qualname == "A.run"
        assert index.resolve_function("app", "lib.B.run").qualname == "B.run"
        # a bare name never resolves to a method
        assert index.resolve_function("lib", "run").qualname == "run"
        assert index.resolve_function("lib", "__init__") is None

    def test_two_files_for_one_module_fail_closed(self):
        one = summarize("x = 1\n", "repro.service.app", "a/repro/service/app.py")
        two = summarize("x = 2\n", "repro.service.app", "b/repro/service/app.py")
        with pytest.raises(ValueError) as err:
            ProjectIndex([one, two])
        assert "a/repro/service/app.py" in str(err.value)
        assert "b/repro/service/app.py" in str(err.value)

    def test_one_summary_per_def_in_the_installed_package(self):
        import repro
        from repro.analysis.engine import load_project

        project = load_project([Path(repro.__file__).parent])
        assert not project.syntax_errors
        for ctx in project.contexts:
            defs = {
                id(node)
                for node in ast.walk(ctx.tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            summarised = {
                id(fn.node)
                for fn in project.index.modules[ctx.module].functions.values()
                if not isinstance(fn.node, ast.Lambda)
            }
            assert summarised == defs, ctx.path
