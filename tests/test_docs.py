"""Documentation integrity: the link checker and the repo's own docs."""

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_checker(name="check_docs"):
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checker = load_checker()


class TestSlugify:
    def test_plain_heading(self):
        assert checker.slugify("Fault model") == "fault-model"

    def test_strips_formatting_and_punctuation(self):
        assert checker.slugify("The `repro.faults` layer!") == \
            "the-reprofaults-layer"

    def test_numbers_kept(self):
        assert checker.slugify("Section 6.2: Threats") == "section-62-threats"


class TestChecker:
    def test_broken_file_link_detected(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("# Title\n\nsee [other](missing.md)\n")
        errors = checker.check([str(doc)])
        assert len(errors) == 1
        assert "missing.md" in errors[0]

    def test_broken_anchor_detected(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("# Title\n\nsee [below](#no-such-heading)\n")
        errors = checker.check([str(doc)])
        assert len(errors) == 1
        assert "no-such-heading" in errors[0]

    def test_valid_cross_document_anchor(self, tmp_path):
        (tmp_path / "a.md").write_text("# A\n\nsee [b](b.md#some-section)\n")
        (tmp_path / "b.md").write_text("# B\n\n## Some section\n")
        assert checker.check([str(tmp_path)]) == []

    def test_external_links_skipped(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("[x](https://example.com/404) [y](mailto:a@b.c)\n")
        assert checker.check([str(doc)]) == []

    def test_code_fences_ignored(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text(
            "# T\n\n```\n[not a link](missing.md)\n# not a heading\n```\n"
        )
        assert checker.check([str(doc)]) == []

    def test_reference_style_links_resolved(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text(
            "# T\n\nsee [the spec][spec] and [other][]\n\n"
            "[spec]: #t\n[other]: missing.md\n"
        )
        errors = checker.check([str(doc)])
        assert len(errors) == 1
        assert "missing.md" in errors[0]

    def test_undefined_reference_reported(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("# T\n\nsee [dangling][nowhere]\n")
        errors = checker.check([str(doc)])
        assert len(errors) == 1
        assert "undefined link reference" in errors[0]
        assert "nowhere" in errors[0]

    def test_setext_headings_are_anchors(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text(
            "Big Title\n=========\n\nSub part\n--------\n\n"
            "[up](#big-title) [over](#sub-part)\n"
        )
        assert checker.check([str(doc)]) == []

    def test_list_items_not_mistaken_for_setext(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("# T\n\n- item one\n---\n\n[x](#item-one)\n")
        errors = checker.check([str(doc)])
        assert len(errors) == 1
        assert "item-one" in errors[0]

    def test_html_anchors_resolve(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text(
            '# T\n\n<a id="pinned"></a>\n\n[jump](#pinned)\n'
        )
        assert checker.check([str(doc)]) == []


class TestRepoDocs:
    def test_repo_docs_have_no_broken_links(self):
        errors = checker.check(checker.DEFAULT_TARGETS)
        assert errors == [], "\n".join(errors)

    def test_resilience_doc_exists_and_linked(self):
        resilience = REPO_ROOT / "docs" / "RESILIENCE.md"
        assert resilience.exists()
        readme = (REPO_ROOT / "README.md").read_text()
        assert "docs/RESILIENCE.md" in readme

    def test_observability_doc_exists_and_linked(self):
        observability = REPO_ROOT / "docs" / "OBSERVABILITY.md"
        assert observability.exists()
        readme = (REPO_ROOT / "README.md").read_text()
        assert "docs/OBSERVABILITY.md" in readme

    def test_performance_doc_exists_and_linked(self):
        performance = REPO_ROOT / "docs" / "PERFORMANCE.md"
        assert performance.exists()
        readme = (REPO_ROOT / "README.md").read_text()
        assert "docs/PERFORMANCE.md" in readme
        architecture = (
            REPO_ROOT / "docs" / "ARCHITECTURE.md"
        ).read_text()
        assert "PERFORMANCE.md" in architecture

    def test_speed_instrument_documented(self):
        for doc in ("docs/PERFORMANCE.md", "README.md"):
            text = (REPO_ROOT / doc).read_text()
            assert "perf/run.py" in text, doc
            assert "BENCHMARK.json" in text, doc

    def test_regress_baseline_anchor_checked_in_and_documented(self):
        anchor = REPO_ROOT / "REGRESS_BASELINE.json"
        assert anchor.exists()
        import json

        payload = json.loads(anchor.read_text())
        assert payload["schema"] == 1
        assert len(payload["cases"]) >= 2
        files = checker.collect_markdown(checker.DEFAULT_TARGETS)
        assert checker.check_anchors(files) == []

    def test_missing_anchor_detected(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("# T\n\nnothing relevant here\n")
        errors = checker.check_anchors(
            [doc], anchors=["REGRESS_BASELINE.json"]
        )
        assert len(errors) == 1
        assert "not referenced" in errors[0]

    def test_nonexistent_anchor_file_detected(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("# T\n\nsee NO_SUCH_ANCHOR.json\n")
        errors = checker.check_anchors(
            [doc], anchors=["NO_SUCH_ANCHOR.json"]
        )
        assert len(errors) == 1
        assert "missing from the repo root" in errors[0]

    def test_retired_names_detected_even_in_code_fences(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text(
            "# T\n\ncall `env.schedule_batch(pairs)`\n\n"
            "```bash\npython -m repro bench --quick\n```\n\nfine line\n"
        )
        prose, fenced = checker.check_retired([doc])
        assert ":3: " in prose and "schedule_batch" in prose
        assert ":6: " in fenced and "repro bench" in fenced

    def test_repo_docs_mention_no_retired_name(self):
        assert "CHANGES.md" not in checker.RETIRED_TARGETS
        files = checker.collect_markdown(checker.RETIRED_TARGETS)
        assert (REPO_ROOT / "ROADMAP.md") in files
        errors = checker.check_retired(files)
        assert errors == [], "\n".join(errors)

    def test_retired_names_count_toward_exit_status(self, monkeypatch):
        monkeypatch.setattr(checker, "RETIRED_NAMES", ["# ROADMAP"])
        assert checker.main([]) >= 1


class TestDocumentedCommands:
    def test_every_documented_command_parses(self):
        files = checker.collect_markdown(checker.RETIRED_TARGETS)
        files.append(checker.CLI_MODULE)
        lines = [line for path in files for line in checker.cli_lines(path)]
        assert len(lines) > 90  # README, EXPERIMENTS, docs, the docstring
        errors = checker.check_cli(files)
        assert errors == [], "\n".join(errors)

    def test_stale_flag_and_unknown_experiment_detected(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text(
            "# T\n\n`python -m repro run nope` in prose is not checked\n\n"
            "```bash\n"
            "python -m repro run fig9 --no-such-flag   # stale flag\n"
            "python -m repro trace fig99_gone --out t.json\n"
            "python -m repro run fig3_lock_contention \\\n"
            "    --seeds 0 1   # continuation lines are joined\n"
            "python -m repro run fig10 [--seed N] [--jobs N]\n"
            "python -m repro run fig2 --kinds burst   # not fig2's keyword\n"
            "```\n"
        )
        flag, experiment, refused = checker.check_cli([doc])
        assert ":6: " in flag and "--no-such-flag" in flag
        assert ":7: " in experiment and "fig99_gone" in experiment
        assert ":11: " in refused and "--kinds" in refused

    def test_synopsis_notation_reads_as_its_first_instance(self):
        assert checker.cli_argv(
            "python -m repro dag [--controller atropos|none] [--jobs N]  # x"
        ) == ["dag", "--controller", "atropos", "--jobs", "1"]
