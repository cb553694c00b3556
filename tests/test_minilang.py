"""Lexer, parser, and type checker."""

import pytest
from hypothesis import given, settings, strategies as st

from smartpaste import generator
from smartpaste.dataflow import occurrences
from smartpaste.minilang import ast, compile_source
from smartpaste.minilang.checker import (
    LatticeCycleError, NameResolutionError, RedeclError, TypeCheckError,
    TypeLattice, UNK_TYPE, check, supertype_closure, vars_in_scope)
from smartpaste.minilang.lexer import LexError, reconstruct, tokenize
from smartpaste.minilang.parser import ParseError, parse

from conftest import LEAKING_STEP, SUM_POSITIVE, SUM_POSITIVE_OCCURRENCES


# --- lexer ------------------------------------------------------------------

class TestLexer:
    def test_round_trip_preserves_source(self):
        src = "int f(int a) { // note\n  return a + 1;\n}\n"
        assert reconstruct(tokenize(src)) == src

    def test_round_trip_sum_positive(self):
        assert reconstruct(tokenize(SUM_POSITIVE)) == SUM_POSITIVE

    def test_kinds_and_positions(self):
        toks = tokenize('x1 = "hi" <= 42; // c')
        assert [t.kind for t in toks] == [
            "identifier", "operator", "string-literal", "operator",
            "int-literal", "punctuation"]
        assert toks[0].line == 1 and toks[0].column == 1
        assert toks[2].text == '"hi"'

    def test_longest_match_operators(self):
        assert [t.text for t in tokenize("a+=b++ <=c")] == \
            ["a", "+=", "b", "++", "<=", "c"]

    def test_bool_literals_are_not_identifiers(self):
        kinds = {t.text: t.kind for t in tokenize("true false truthy")}
        assert kinds["true"] == "bool-literal"
        assert kinds["truthy"] == "identifier"

    def test_illegal_character(self):
        with pytest.raises(LexError) as e:
            tokenize("int a = @;")
        assert e.value.line == 1 and e.value.column == 9

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('string s = "oops;')

    def test_non_decimal_digit_is_illegal(self):
        """An int literal is decimal digits: "²" is a digit to
        `str.isdigit` but not one `int()` reads."""
        with pytest.raises(LexError) as e:
            compile_source("int f() { return 2²; }")
        assert str(e.value) == "illegal character '²' at 1:19"

    def test_non_ascii_digits_and_letters(self):
        assert [(t.text, t.kind) for t in tokenize("٣ x² é_1")] == [
            ("٣", "int-literal"), ("x²", "identifier"),
            ("é_1", "identifier")]

    def test_indices_contiguous(self):
        toks = tokenize(SUM_POSITIVE)
        assert [t.index for t in toks] == list(range(len(toks)))


# --- parser -----------------------------------------------------------------

class TestParser:
    def test_sum_positive_shape(self):
        prog = parse(tokenize(SUM_POSITIVE))
        (fn,) = prog.functions
        assert fn.name == "SumPositive"
        assert [p.name for p in fn.params] == ["arr", "lim"]
        decl, loop, ret = fn.body.statements
        assert isinstance(decl, ast.Decl) and decl.name == "sum"
        assert isinstance(loop, ast.For)
        assert isinstance(loop.body, ast.If)
        assert isinstance(ret, ast.Return)

    def test_spans_cover_statements(self):
        prog = parse(tokenize(SUM_POSITIVE))
        loop = prog.functions[0].body.statements[1]
        toks = tokenize(SUM_POSITIVE)
        assert toks[loop.span[0]].text == "for"
        assert toks[loop.span[1]].text == ";"

    def test_precedence(self):
        def returned(expr):
            prog = parse(tokenize(f"int f() {{ return {expr}; }}"))
            return prog.functions[0].body.statements[0].value

        expr = returned("1 + 2 * 3 < 4 == true && false")
        assert isinstance(expr, ast.Binary) and expr.op == "&&"
        eq = expr.left
        assert eq.op == "=="
        assert eq.left.op == "<"
        assert eq.left.left.op == "+"
        assert eq.left.left.right.op == "*"
        grouped = returned("(1 + 2) * 3")
        assert grouped.op == "*" and grouped.left.op == "+"

    def test_type_and_extern_decls(self):
        prog = parse(tokenize(
            "type Leaf implements Base, Mid;\n"
            "extern fn len(int[]) -> int;\n"
            "int f(Leaf x) { return 0; }"))
        (td,) = prog.type_decls
        assert td.name == "Leaf" and td.supers == ["Base", "Mid"]
        (ex,) = prog.extern_fns
        assert ex.name == "len" and ex.return_type.name == "int"

    def test_parse_error_reports_position(self):
        with pytest.raises(ParseError) as e:
            parse(tokenize("int f( { return 0; }"))
        assert e.value.token_index >= 0

    def test_dangling_else_binds_inner(self):
        prog = parse(tokenize(
            "int f(bool a, bool b) { if (a) if (b) return 1; "
            "else return 2; return 3; }"))
        outer = prog.functions[0].body.statements[0]
        assert outer.orelse is None
        assert outer.then.orelse is not None


# --- checker ----------------------------------------------------------------

class TestChecker:
    def test_symbol_table(self, sum_positive_program):
        names = [s.name for s in sum_positive_program.symbols]
        assert names == ["arr", "lim", "sum", "i"]
        types = [s.declared_type for s in sum_positive_program.symbols]
        assert types == ["int[]", "int", "int", "int"]

    def test_occurrences(self, sum_positive_program):
        assert sorted(t for ts in occurrences(sum_positive_program).values()
                      for t in ts) == SUM_POSITIVE_OCCURRENCES

    def test_defs_marked(self, sum_positive_program):
        defs = [t.index for t in sum_positive_program.tokens if t.is_def]
        assert defs == [6, 9, 13, 20]

    def test_vars_in_scope_inside_loop(self, sum_positive_program,
                                       sum_positive_symbols):
        assert vars_in_scope(sum_positive_program, 40) == \
            set(sum_positive_symbols.values())

    def test_vars_in_scope_before_decl(self, sum_positive_program,
                                       sum_positive_symbols):
        # at the sum declaration site only the params are visible
        assert vars_in_scope(sum_positive_program, 13) == \
            {sum_positive_symbols["arr"], sum_positive_symbols["lim"]}

    def test_shadowing_rejected(self):
        with pytest.raises(RedeclError):
            compile_source("int f(int a) { int a = 0; return a; }")

    def test_sibling_scopes_may_reuse_names(self):
        compile_source(
            "int f(bool c) { if (c) { int a = 1; a++; } "
            "else { int a = 2; a--; } return 0; }")

    def test_for_step_declaration_ends_with_the_loop(self):
        with pytest.raises(NameResolutionError,
                           match="undeclared variable 'y'"):
            compile_source(LEAKING_STEP)

    def test_for_step_declaration_is_in_scope_in_the_body(self):
        program = compile_source(
            "int f(int n) { for (int i = 0; i < n; int y = 1) "
            "{ n = n + y; } return n; }")
        y = next(s for s in program.symbols if s.name == "y")
        loop = program.ast.functions[0].body.statements[0]
        assert y.scope_span == (y.decl_token - 1, loop.span[1])
        uses = [t.index for t in program.tokens
                if t.symbol == y.id and not t.is_def]
        assert [program.tokens[t].text for t in uses] == ["y"]

    def test_nested_statement_declaration_ends_with_it(self):
        """A declaration that is an if's or a while's whole body is scoped
        to itself, so the name can be declared again after it."""
        program = compile_source(
            "int f(bool c) { if (c) int a = 1; else int a = 2; "
            "while (c) int b = 3; int a = 4; int b = 5; return a + b; }")
        spans = [(s.name, s.scope_span) for s in program.symbols]
        assert spans == [("c", (0, 46)), ("a", (11, 15)), ("a", (17, 21)),
                         ("b", (26, 30)), ("a", (31, 46)), ("b", (36, 46))]
        with pytest.raises(NameResolutionError):
            compile_source("int f(bool c) { if (c) int a = 1; return a; }")

    def test_undeclared_variable(self):
        with pytest.raises(NameResolutionError):
            compile_source("int f() { return missing; }")

    def test_use_before_declaration(self):
        with pytest.raises(NameResolutionError):
            compile_source("int f() { int a = b; int b = 0; return a; }")

    def test_arithmetic_type_error(self):
        with pytest.raises(TypeCheckError):
            compile_source("int f(bool b) { return b + 1; }")

    def test_condition_must_be_bool(self):
        with pytest.raises(TypeCheckError):
            compile_source("int f(int a) { if (a) return 1; return 0; }")

    def test_index_requires_array(self):
        with pytest.raises(TypeCheckError):
            compile_source("int f(int a) { return a[0]; }")

    def test_extern_call_arity_and_types(self):
        src = "extern fn len(int[]) -> int;\nint f(int[] a) { return len(a); }"
        compile_source(src)
        with pytest.raises(TypeCheckError):
            compile_source(
                "extern fn len(int[]) -> int;\nint f(int x) { return len(x); }")

    def test_nominal_subtyping_assignment(self):
        src = ("type Base;\ntype Leaf implements Base;\n"
               "extern fn mk() -> Leaf;\n"
               "int f() { Base b = mk(); return 0; }")
        compile_source(src)
        bad = ("type Base;\ntype Leaf implements Base;\n"
               "extern fn mk() -> Base;\n"
               "int f() { Leaf l = mk(); return 0; }")
        with pytest.raises(TypeCheckError):
            compile_source(bad)

    def test_lattice_cycle(self):
        with pytest.raises(LatticeCycleError):
            compile_source("type A implements B;\ntype B implements A;\n"
                           "int f() { return 0; }")

    def test_supertype_closure(self):
        lattice = TypeLattice()
        lattice.add_type("Base")
        lattice.add_type("Mid", ["Base"])
        lattice.add_type("Leaf", ["Mid"])
        assert supertype_closure(lattice, "Leaf") == \
            frozenset({"Leaf", "Mid", "Base"})
        assert supertype_closure(lattice, "Nope") == frozenset({UNK_TYPE})

    def test_holes_skip_resolution_and_typing(self):
        src = "int f(int a) { return nobody; }"
        toks = tokenize(src)
        hole = next(t.index for t in toks if t.text == "nobody")
        program = check(parse(toks), toks, holes=frozenset({hole}))
        assert program.tokens[hole].symbol is None

    def test_generated_corpus_checks(self):
        import random
        for seed in range(4):
            for profile in ("loops", "typesep", "straight"):
                src = generator.generate_file(random.Random(seed), profile,
                                              0, 0)
                compile_source(src)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.sampled_from(["tiny", "loops", "typesep", "straight"]))
def test_generated_source_round_trips(seed, profile):
    import random
    src = generator.generate_file(random.Random(seed), profile, 1, 2)
    toks = tokenize(src)
    assert reconstruct(toks) == src
    parse(toks)
