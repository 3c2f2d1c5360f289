"""The concurrency-safety pass (RPR8xx): fixtures plus real-repo anchors."""

import textwrap
from pathlib import Path

import pytest

import repro
from repro.lint import LintContext, run_lint


def lint_concurrency(tmp_path, files):
    root = tmp_path / "pkg"
    for rel, source in {"__init__.py": "", **files}.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return run_lint(LintContext(source_root=root), passes=("concurrency",))


def by_code(report, code):
    return [f for f in report.findings if f.code == code]


# -- RPR801: mutable-module-global-write --------------------------------------


class TestGlobalWrite:
    def test_function_scope_subscript_write_flagged(self, tmp_path):
        report = lint_concurrency(tmp_path, {
            "cache.py": """
                CACHE = {}

                def put(key, value):
                    CACHE[key] = value
            """,
        })
        [finding] = by_code(report, "RPR801")
        assert "pkg.cache.put" in finding.message
        assert "CACHE" in finding.message
        assert finding.location == "pkg/cache.py:5"

    def test_global_statement_rebind_flagged(self, tmp_path):
        report = lint_concurrency(tmp_path, {
            "state.py": """
                ITEMS = []

                def reset():
                    global ITEMS
                    ITEMS = []
            """,
        })
        [finding] = by_code(report, "RPR801")
        assert "global-statement rebind" in finding.message

    def test_mutator_method_call_flagged(self, tmp_path):
        report = lint_concurrency(tmp_path, {
            "state.py": """
                SEEN = set()

                def mark(x):
                    SEEN.add(x)
            """,
        })
        [finding] = by_code(report, "RPR801")
        assert ".add() call" in finding.message

    def test_local_shadow_not_flagged(self, tmp_path):
        report = lint_concurrency(tmp_path, {
            "clean.py": """
                CACHE = {}

                def pure(key):
                    CACHE = {}
                    CACHE[key] = 1
                    return CACHE
            """,
        })
        assert by_code(report, "RPR801") == []

    def test_import_time_fill_not_flagged(self, tmp_path):
        """Same-module import-time initialization is the sanctioned idiom."""
        report = lint_concurrency(tmp_path, {
            "table.py": """
                TABLE = {}
                TABLE["a"] = 1
                for k in ("b", "c"):
                    TABLE[k] = 0
            """,
        })
        assert by_code(report, "RPR801") == []

    def test_immutable_global_rebind_not_flagged(self, tmp_path):
        report = lint_concurrency(tmp_path, {
            "counter.py": """
                LIMIT = 3

                def bump():
                    global LIMIT
                    LIMIT = LIMIT + 1
            """,
        })
        # LIMIT is not a mutable container/singleton, so not in inventory
        assert by_code(report, "RPR801") == []

    def test_inline_pragma_suppresses(self, tmp_path):
        report = lint_concurrency(tmp_path, {
            "cache.py": """
                CACHE = {}

                def put(key, value):
                    CACHE[key] = value  # lint: ignore[RPR801] one-shot memo
            """,
        })
        [finding] = by_code(report, "RPR801")
        assert finding.suppressed
        assert finding.justification == "one-shot memo"


# -- RPR802: singleton-mutation-outside-activate ------------------------------


class TestCrossModuleMutation:
    def test_import_time_registration_flagged(self, tmp_path):
        report = lint_concurrency(tmp_path, {
            "core.py": """
                HOOKS = []
            """,
            "plugin.py": """
                from .core import HOOKS

                HOOKS.append("plugin")
            """,
        })
        [finding] = by_code(report, "RPR802")
        assert "import-time code" in finding.message
        assert "pkg.core.HOOKS" in finding.message
        assert finding.location == "pkg/plugin.py:4"

    def test_cross_module_function_write_flagged(self, tmp_path):
        report = lint_concurrency(tmp_path, {
            "core.py": """
                TABLE = {}
            """,
            "edit.py": """
                from .core import TABLE

                def install(name):
                    TABLE[name] = True
            """,
        })
        [finding] = by_code(report, "RPR802")
        assert "pkg.edit.install" in finding.message
        assert "pkg.core.TABLE" in finding.message

    def test_same_module_import_time_not_cross(self, tmp_path):
        report = lint_concurrency(tmp_path, {
            "core.py": """
                HOOKS = []
                HOOKS.append("builtin")
            """,
        })
        assert by_code(report, "RPR802") == []

    def test_singleton_method_call_at_import_flagged(self, tmp_path):
        report = lint_concurrency(tmp_path, {
            "reg.py": """
                class Registry:
                    def add(self, x):
                        pass

                REGISTRY = Registry()
            """,
            "rules.py": """
                from .reg import REGISTRY

                REGISTRY.add("rule-1")
            """,
        })
        [finding] = by_code(report, "RPR802")
        assert ".add() call" in finding.message


# -- RPR803: class-attribute-as-shared-cache ----------------------------------


class TestSharedDefaults:
    def test_mutated_class_attribute_flagged(self, tmp_path):
        report = lint_concurrency(tmp_path, {
            "model.py": """
                class Model:
                    cache = {}

                    def remember(self, key, value):
                        self.cache[key] = value
            """,
        })
        [finding] = by_code(report, "RPR803")
        assert "pkg.model.Model" in finding.message
        assert "cache" in finding.message

    def test_unmutated_class_attribute_not_flagged(self, tmp_path):
        report = lint_concurrency(tmp_path, {
            "model.py": """
                class Model:
                    defaults = {"alpha": 1}

                    def get(self, key):
                        return self.defaults[key]
            """,
        })
        assert by_code(report, "RPR803") == []

    def test_mutable_param_default_flagged(self, tmp_path):
        report = lint_concurrency(tmp_path, {
            "fn.py": """
                def collect(item, into=[]):
                    into.append(item)
                    return into
            """,
        })
        [finding] = by_code(report, "RPR803")
        assert "pkg.fn.collect" in finding.message

    def test_default_aliasing_module_global_flagged(self, tmp_path):
        report = lint_concurrency(tmp_path, {
            "fn.py": """
                STORE = {}

                def lookup(key, store=STORE):
                    return store.get(key)
            """,
        })
        [finding] = by_code(report, "RPR803")
        assert "pkg.STORE" in finding.message or "STORE" in finding.message

    def test_none_default_not_flagged(self, tmp_path):
        report = lint_concurrency(tmp_path, {
            "fn.py": """
                def collect(item, into=None):
                    into = [] if into is None else into
                    into.append(item)
                    return into
            """,
        })
        assert by_code(report, "RPR803") == []


# -- RPR804: unverifiable-pool-submission -------------------------------------


class TestUnverifiableSubmission:
    def test_lambda_submission_flagged(self, tmp_path):
        report = lint_concurrency(tmp_path, {
            "run.py": """
                from concurrent.futures import ProcessPoolExecutor
                def launch(x):
                    with ProcessPoolExecutor() as pool:
                        return pool.submit(lambda: x).result()
            """,
        })
        [finding] = by_code(report, "RPR804")
        assert "lambda" in finding.message
        assert ".submit()" in finding.message

    def test_parameter_submission_flagged(self, tmp_path):
        report = lint_concurrency(tmp_path, {
            "run.py": """
                from concurrent.futures import ProcessPoolExecutor
                def launch(task, x):
                    with ProcessPoolExecutor() as pool:
                        return pool.submit(task, x).result()
            """,
        })
        [finding] = by_code(report, "RPR804")
        assert "parameter 'task'" in finding.message

    def test_module_function_submission_not_flagged(self, tmp_path):
        report = lint_concurrency(tmp_path, {
            "run.py": """
                from concurrent.futures import ProcessPoolExecutor
                def work(x):
                    return x + 1

                def launch(x):
                    with ProcessPoolExecutor() as pool:
                        return pool.submit(work, x).result()
            """,
        })
        assert by_code(report, "RPR804") == []

    def test_assignment_chain_resolves(self, tmp_path):
        report = lint_concurrency(tmp_path, {
            "run.py": """
                from concurrent.futures import ProcessPoolExecutor
                def work(x):
                    return x + 1

                def launch(x):
                    chosen = work
                    with ProcessPoolExecutor() as pool:
                        return pool.submit(chosen, x).result()
            """,
        })
        assert by_code(report, "RPR804") == []


# -- RPR805: fork-inherited-handle-in-worker ----------------------------------


class TestForkInheritedHandle:
    def test_worker_env_read_flagged(self, tmp_path):
        report = lint_concurrency(tmp_path, {
            "run.py": """
                from concurrent.futures import ProcessPoolExecutor
                import os

                def work(x):
                    return os.environ.get("MODE", "") + str(x)

                def launch(x):
                    with ProcessPoolExecutor() as pool:
                        return pool.submit(work, x).result()
            """,
        })
        [finding] = by_code(report, "RPR805")
        assert "pkg.run.work" in finding.message
        assert "env state" in finding.message
        assert "os.environ" in finding.message

    def test_transitively_reached_warn_flagged(self, tmp_path):
        report = lint_concurrency(tmp_path, {
            "deep.py": """
                import warnings

                def noisy():
                    warnings.warn("deep")
            """,
            "run.py": """
                from concurrent.futures import ProcessPoolExecutor
                from .deep import noisy

                def work(x):
                    noisy()
                    return x

                def launch(x):
                    with ProcessPoolExecutor() as pool:
                        return pool.submit(work, x).result()
            """,
        })
        [finding] = by_code(report, "RPR805")
        assert "pkg.deep.noisy" in finding.message
        assert "warn state" in finding.message

    def test_env_touch_outside_worker_not_flagged(self, tmp_path):
        report = lint_concurrency(tmp_path, {
            "run.py": """
                from concurrent.futures import ProcessPoolExecutor
                import os

                def work(x):
                    return x + 1

                def launch(x):
                    mode = os.environ.get("MODE")
                    with ProcessPoolExecutor() as pool:
                        return pool.submit(work, x).result(), mode
            """,
        })
        # launch touches env but runs in the parent, not the workers
        assert by_code(report, "RPR805") == []


# -- RPR806: post-fork-global-read --------------------------------------------


class TestPostForkGlobalRead:
    def test_worker_reads_post_import_mutated_global(self, tmp_path):
        report = lint_concurrency(tmp_path, {
            "run.py": """
                from concurrent.futures import ProcessPoolExecutor
                PRESETS = {}

                def register(name):
                    PRESETS[name] = True

                def work(x):
                    return PRESETS.get(x)

                def launch(x):
                    with ProcessPoolExecutor() as pool:
                        return pool.submit(work, x).result()
            """,
        })
        findings = by_code(report, "RPR806")
        assert any(
            "pkg.run.work" in f.message
            and "pkg.run.PRESETS" in f.message
            and "pkg.run.register" in f.message
            for f in findings
        )

    def test_read_of_import_time_only_global_not_flagged(self, tmp_path):
        report = lint_concurrency(tmp_path, {
            "run.py": """
                from concurrent.futures import ProcessPoolExecutor
                PRESETS = {}
                PRESETS["a"] = 1

                def work(x):
                    return PRESETS.get(x)

                def launch(x):
                    with ProcessPoolExecutor() as pool:
                        return pool.submit(work, x).result()
            """,
        })
        # only import-time writers: the fork-inherited copy is final
        assert by_code(report, "RPR806") == []


# -- the real repository ------------------------------------------------------


@pytest.fixture(scope="module")
def repo_report():
    """One concurrency-pass run over the installed repro package."""
    root = Path(repro.__file__).parent
    return run_lint(LintContext(source_root=root), passes=("concurrency",))


class TestRealRepo:
    """Anchor every rule to at least one deliberate finding in the tree."""

    def test_rpr801_telemetry_singleton_suppressed(self, repo_report):
        found = [f for f in by_code(repo_report, "RPR801")
                 if "telemetry/runtime.py" in (f.location or "")]
        assert found and all(f.suppressed for f in found)

    def test_rpr801_preset_fill_suppressed(self, repo_report):
        found = [f for f in by_code(repo_report, "RPR801")
                 if "tech/technology.py" in (f.location or "")]
        assert found and all(f.suppressed for f in found)

    def test_rpr802_rule_registry_registrations(self, repo_report):
        # The rule table is built in the module that defines it; no rule
        # module registers into a foreign singleton at import any more.
        assert by_code(repo_report, "RPR802") == []

    def test_rpr803_engine_registry_default(self, repo_report):
        # The engine and baseline helpers take no registry default.
        assert by_code(repo_report, "RPR803") == []

    def test_rpr804_pool_runners_suppressed(self, repo_report):
        found = by_code(repo_report, "RPR804")
        locations = {f.location.rsplit(":", 1)[0] for f in found}
        assert "repro/parallel/runner.py" in locations
        assert all(f.suppressed for f in found)

    def test_rpr805_worker_handles(self, repo_report):
        found = by_code(repo_report, "RPR805")
        assert any("os.environ" in f.message for f in found)
        assert any("warnings.warn" in f.message for f in found)

    def test_rpr806_preset_and_telemetry_reads(self, repo_report):
        found = by_code(repo_report, "RPR806")
        assert any("repro.tech.technology._PRESETS" in f.message
                   for f in found)
        assert any("repro.telemetry.runtime._ACTIVE" in f.message
                   for f in found)


class TestSubmitSiteCoverage:
    """The fork-boundary pass must see every pool-submission site.

    A textual scan over the source tree is the ground truth: any module
    that constructs a process pool must show up in the analysis's site
    list.  Adding a new executor without the analysis resolving its
    submissions fails here — that is the point.
    """

    def test_every_pool_module_is_analyzed(self):
        import ast

        root = Path(repro.__file__).parent
        ground_truth = set()
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute)
                        else None)
                if name in ("ProcessPoolExecutor", "Pool"):
                    rel = path.relative_to(root.parent)
                    ground_truth.add(".".join(rel.with_suffix("").parts))
        program = LintContext(source_root=root).whole_program()
        analyzed = {site.module_name for site in
                    program.fork_boundaries().sites}
        assert ground_truth, "expected at least one pool user in the tree"
        assert ground_truth == analyzed

    def test_known_sites_present(self):
        root = Path(repro.__file__).parent
        program = LintContext(source_root=root).whole_program()
        sites = program.fork_boundaries().sites
        modules = {site.module_name for site in sites}
        assert modules == {
            "repro.campaign.scheduler",
            "repro.parallel.runner",
            "repro.service.app",
        }

    def test_runner_worker_closure_reaches_task_internals(self):
        """run_sharded's closure provably includes the MC worker path."""
        root = Path(repro.__file__).parent
        program = LintContext(source_root=root).whole_program()
        fork = program.fork_boundaries()
        workers = fork.worker_nodes()
        assert "repro.parallel.runner.run_sharded" in workers
