"""DIMACS parsing and writing."""

import io

from hypothesis import given, settings, strategies as st

from repro.sat import Solver, parse_dimacs, write_dimacs


class TestParse:
    def test_basic(self):
        nv, clauses = parse_dimacs("p cnf 3 2\n1 -2 0\n2 3 0\n")
        assert nv == 3
        assert clauses == [[1, -2], [2, 3]]

    def test_comments_and_blank_lines(self):
        text = "c hello\n\np cnf 2 1\nc mid\n1 2 0\n"
        nv, clauses = parse_dimacs(text)
        assert nv == 2 and clauses == [[1, 2]]

    def test_header_widened_by_literals(self):
        nv, clauses = parse_dimacs("p cnf 1 1\n5 -6 0\n")
        assert nv == 6

    def test_missing_header(self):
        nv, clauses = parse_dimacs("1 2 0\n-1 0")
        assert nv == 2
        assert clauses == [[1, 2], [-1]]

    def test_multiline_clause(self):
        nv, clauses = parse_dimacs("p cnf 3 1\n1\n2\n3 0\n")
        assert clauses == [[1, 2, 3]]

    def test_satlib_percent_trailer(self):
        # SATLIB uf*/uuf* files end with a "%" line and a lone "0".
        nv, clauses = parse_dimacs("p cnf 2 2\n1 -2 0\n2 0\n%\n0\n")
        assert nv == 2
        assert clauses == [[1, -2], [2]]


class TestWrite:
    def test_roundtrip(self):
        clauses = [[1, -2], [3], [-1, -3, 2]]
        buf = io.StringIO()
        write_dimacs(buf, 3, clauses, comments=["generated"])
        nv, parsed = parse_dimacs(buf.getvalue())
        assert nv == 3 and parsed == clauses
        assert buf.getvalue().startswith("c generated\np cnf 3 3\n")

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.lists(st.integers(1, 5).flatmap(
        lambda v: st.sampled_from([v, -v])), min_size=1, max_size=4),
        min_size=0, max_size=12))
    def test_roundtrip_preserves_satisfiability(self, clauses):
        buf = io.StringIO()
        write_dimacs(buf, 5, clauses)
        nv, parsed = parse_dimacs(buf.getvalue())

        def solve(cls):
            s = Solver(proof=False)
            for __ in range(5):
                s.new_var()
            for c in cls:
                s.add_clause(c)
            return s.solve().sat

        assert solve(clauses) == solve(parsed)
