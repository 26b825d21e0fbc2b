"""``tools/check_prom.py``: one sample per (metric, label set)."""

from .test_docs import load_checker

check_prom = load_checker("check_prom")


class TestPrometheusSeriesChecker:
    def test_a_repeated_series_is_refused_whatever_the_label_order(self):
        text = (
            "# TYPE m gauge\n"
            'm{run="a",op="x"} 1\n'
            'm{run="b",op="x"} 2\n'
            'm{op="x",run="a"} 3\n'
        )
        [problem] = check_prom.problems(text)
        assert problem.startswith("line 4: series repeats line 2")

    def test_distinct_series_and_histogram_lines_pass(self):
        text = (
            'h_bucket{le="0.1",run="a"} 1\n'
            'h_bucket{le="+Inf",run="a"} 2\n'
            'h_sum{run="a"} 0.3\n'
            'h_count{run="a"} 2\n'
            'esc{run="a\\"b"} NaN\n'
            "bare 7\n"
        )
        assert check_prom.problems(text) == []

    def test_an_unparsable_sample_is_refused(self):
        [problem] = check_prom.problems('m{run=a} 1\n')
        assert "bad label block" in problem
