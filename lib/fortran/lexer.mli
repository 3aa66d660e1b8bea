(** Lexer for the Fortran-77 subset.

    The lexer is line-oriented: it first assembles logical lines (handling
    column-1 comments, '!' trailing comments, '&' and column-6 continuations,
    and statement labels), extracts [c$acfd] directives, then tokenizes each
    logical line, separating them with {!Token.Newline}. *)

type token = {
  tok : Token.t;
  tline : int;
  tcol : int;
      (** 1-based column in the statement's first source line (columns of
          continuation-line tokens count on from its end) *)
}

val tokenize : string -> token list * Directive.t list
(** [tokenize source] is the token stream (terminated by [Eof]) and the
    directives found in comments.
    @raise Loc.Error on malformed input, malformed directives included. *)

val tokens_of_line : ?col0:int -> int -> string -> token list
(** Tokenize a single pre-assembled logical line (no newline/eof appended);
    [col0] (default 1) is the source column of the line's first character.
    Exposed for tests. *)
