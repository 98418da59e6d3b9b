(** Word extraction for the content-based index.

    A word is a maximal run of ASCII letters, digits or underscores, folded
    to lowercase.  Words shorter than {!min_word_len} are ignored; longer
    than {!max_word_len} are truncated — the index treats very long tokens as
    their prefix, like Glimpse does. *)

val min_word_len : int
(** Shortest indexed word (2). *)

val max_word_len : int
(** Longest stored word (32); longer tokens are truncated to this. *)

val iter_words : string -> (string -> unit) -> unit
(** Apply the callback to every word of the text, in order, duplicates
    included. *)

val exists_word : string -> (string -> bool) -> bool
(** Whether some word of the text satisfies the predicate; stops at the
    first that does. *)

val words : string -> string list
(** All words in order, duplicates included. *)

val unique_words : string -> string list
(** Sorted de-duplicated words. *)

val contains_word : string -> string -> bool
(** [contains_word text w] is [true] when [w] (already lowercase) occurs in
    [text] as a whole word. *)

val iter_lines : string -> (int -> string -> unit) -> unit
(** Apply the callback to each line with its 1-based number; newlines are
    stripped. *)
