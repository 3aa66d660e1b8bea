(** Recursive-descent parser for the Fortran-77 subset.

    Produces a structured {!Ast.program}: labelled DO loops (including nests
    sharing a terminal label) are turned into structured [Do] statements,
    IF/ELSE IF/ELSE chains into [If], and declarations are collected per
    program unit. *)

val parse : string -> Ast.program
(** Parse complete source text.
    @raise Loc.Error on syntax errors and malformed [c$acfd] directives. *)

val parse_expr_string : string -> Ast.expr
(** Parse a single expression (used by tests). *)
