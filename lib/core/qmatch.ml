module Ast = Hac_query.Ast
module Tokenizer = Hac_index.Tokenizer
module Stemmer = Hac_index.Stemmer
module Agrep = Hac_index.Agrep

let ext_of name =
  match String.rindex_opt name '.' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> ""

let matches ?(stem = true) q ~name ~content =
  let k w = if stem then Stemmer.stem w else w in
  let has_word w =
    let w = k (String.lowercase_ascii w) in
    Tokenizer.exists_word content (fun x -> k x = w)
  in
  let has_approx w errors =
    let w = k (String.lowercase_ascii w) in
    Tokenizer.exists_word content (fun x -> Agrep.word_matches ~pattern:w ~errors (k x))
  in
  let rec go = function
    | Ast.All -> true
    | Ast.Term (Ast.Word w) -> has_word w
    | Ast.Term (Ast.Phrase ws) -> Hac_index.Search.contains_phrase ~content ws
    | Ast.Term (Ast.Approx (w, e)) -> has_approx w e
    | Ast.Term (Ast.Attr (key, value)) -> (
        match key with
        | "name" -> name = value
        | "ext" -> ext_of name = value
        | _ -> false)
    | Ast.Term (Ast.Regex r) -> (
        match Hac_index.Regex.compile_result r with
        | Ok re -> Hac_index.Regex.matches re content
        | Error _ -> false)
    | Ast.Term (Ast.Dirref _) -> false
    | Ast.Not a -> not (go a)
    | Ast.And (a, b) -> go a && go b
    | Ast.Or (a, b) -> go a || go b
  in
  go q
