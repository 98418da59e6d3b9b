(* Tests for the text pipeline: tokenizer and stemmer. *)

module Tokenizer = Hac_index.Tokenizer
module Stemmer = Hac_index.Stemmer

let check_list = Alcotest.(check (list string))

let check_str = Alcotest.(check string)

let check_bool = Alcotest.(check bool)

(* -- tokenizer ---------------------------------------------------------------- *)

let test_words_basic () =
  check_list "split and lowercase" [ "hello"; "world" ] (Tokenizer.words "Hello, WORLD!");
  check_list "digits and underscore" [ "foo_bar2"; "x9" ] (Tokenizer.words "foo_bar2 x9!");
  check_list "empty" [] (Tokenizer.words "");
  check_list "punctuation only" [] (Tokenizer.words "... !!! ---")

let test_words_min_len () =
  (* Single characters are below min_word_len. *)
  check_list "singles dropped" [ "ab" ] (Tokenizer.words "a b c ab")

let test_words_truncation () =
  let long = String.make 100 'x' in
  match Tokenizer.words long with
  | [ w ] -> Alcotest.(check int) "truncated" Tokenizer.max_word_len (String.length w)
  | other -> Alcotest.failf "expected one word, got %d" (List.length other)

let test_unique_words () =
  check_list "dedup sorted" [ "aa"; "bb" ] (Tokenizer.unique_words "bb aa bb aa")

let test_contains_word () =
  check_bool "present" true (Tokenizer.contains_word "the quick fox" "quick");
  check_bool "substring is not a word" false (Tokenizer.contains_word "quicksand" "quick");
  check_bool "case folded text" true (Tokenizer.contains_word "QUICK" "quick")

let test_iter_lines () =
  let got = ref [] in
  Tokenizer.iter_lines "one\ntwo\n\nfour" (fun n l -> got := (n, l) :: !got);
  Alcotest.(check (list (pair int string)))
    "lines with numbers"
    [ (1, "one"); (2, "two"); (3, ""); (4, "four") ]
    (List.rev !got)

let test_iter_lines_trailing_newline () =
  let got = ref [] in
  Tokenizer.iter_lines "only\n" (fun n l -> got := (n, l) :: !got);
  Alcotest.(check (list (pair int string))) "no phantom line" [ (1, "only") ] (List.rev !got)

(* -- stemmer ------------------------------------------------------------------- *)

let test_stem_families () =
  (* Inflections of the same word must collide. *)
  let families =
    [
      [ "query"; "queries" ];
      [ "match"; "matches"; "matched" ];
      [ "link"; "links" ];
      [ "finding"; "findings" ];
      [ "quick"; "quickly" ];
    ]
  in
  List.iter
    (fun family ->
      match List.map Stemmer.stem family with
      | [] -> ()
      | first :: rest ->
          List.iter
            (fun s -> check_str (String.concat "/" family) first s)
            rest)
    families

let test_stem_short_words () =
  check_str "short unchanged" "as" (Stemmer.stem "as");
  check_str "three chars unchanged" "its" (Stemmer.stem "its")

let test_stem_guards () =
  check_str "ss preserved" "class" (Stemmer.stem "class");
  check_str "us preserved" "virus" (Stemmer.stem "virus")

let test_stem_specific () =
  check_str "queries" "query" (Stemmer.stem "queries");
  check_str "classes" "class" (Stemmer.stem "classes");
  check_str "running" "runn" (Stemmer.stem "running");
  check_str "darkness" "dark" (Stemmer.stem "darkness")

let prop_stem_idempotent =
  let word_gen =
    QCheck.Gen.(
      map
        (fun cs -> String.concat "" (List.map (String.make 1) cs))
        (list_size (int_range 1 12) (char_range 'a' 'z')))
    |> QCheck.make ~print:(fun s -> s)
  in
  QCheck.Test.make ~name:"stem idempotent" ~count:1000 word_gen (fun w ->
      Stemmer.stem (Stemmer.stem w) = Stemmer.stem w)

let prop_stem_never_longer =
  let word_gen =
    QCheck.Gen.(
      map
        (fun cs -> String.concat "" (List.map (String.make 1) cs))
        (list_size (int_range 1 12) (char_range 'a' 'z')))
    |> QCheck.make ~print:(fun s -> s)
  in
  QCheck.Test.make ~name:"stem never longer" ~count:1000 word_gen (fun w ->
      String.length (Stemmer.stem w) <= String.length w)

(* The stemmer as it was written before its suffix tests compared in
   place: one [String.sub] per rule test.  Kept verbatim as the oracle. *)
module Reference_stemmer = struct
  let ends_with ~suffix w =
    let sl = String.length suffix and wl = String.length w in
    wl >= sl && String.sub w (wl - sl) sl = suffix

  let chop w n = String.sub w 0 (String.length w - n)

  let rules =
    [
      ("sses", 2, "", 2);
      ("ies", 3, "y", 2);
      ("ness", 4, "", 3);
      ("ments", 5, "", 3);
      ("ment", 4, "", 3);
      ("ings", 4, "", 3);
      ("ing", 3, "", 3);
      ("edly", 4, "", 3);
      ("ed", 2, "", 3);
      ("ly", 2, "", 3);
      ("es", 2, "", 3);
      ("s", 1, "", 3);
    ]

  let plural_guard suffix w =
    (suffix = "s" || suffix = "es") && (ends_with ~suffix:"ss" w || ends_with ~suffix:"us" w)

  let rec stem w =
    let n = String.length w in
    if n <= 3 then w
    else
      let rec try_rules = function
        | [] -> w
        | (suffix, drop, repl, min_stem) :: rest ->
            if ends_with ~suffix w && String.length w - drop >= min_stem && not (plural_guard suffix w)
            then stem (chop w drop ^ repl)
            else try_rules rest
      in
      try_rules rules
end

(* Random stems with stacked suffixes drawn from the rules' own, so every
   rule, guard and minimum-length boundary is exercised. *)
let prop_stem_equals_reference =
  let suffixes = [| ""; "s"; "es"; "ss"; "us"; "ies"; "sses"; "ness"; "ment"; "ments"; "ing"; "ings"; "ed"; "edly"; "ly"; "y" |] in
  let gen =
    QCheck.Gen.(
      map2
        (fun cs sfx -> String.concat "" (List.map (String.make 1) cs) ^ String.concat "" sfx)
        (list_size (int_range 0 6) (char_range 'a' 'z'))
        (list_size (int_range 0 3) (oneofa suffixes)))
  in
  QCheck.Test.make ~name:"stem equals the reference stemmer" ~count:3000
    (QCheck.make gen ~print:(fun s -> s))
    (fun w -> Stemmer.stem w = Reference_stemmer.stem w)

let test_stem_corpus_vocabulary () =
  let c = Hac_workload.Corpus.make ~seed:1 () in
  for i = 0 to 3999 do
    let w = Hac_workload.Corpus.vocab_word c i in
    check_str w (Reference_stemmer.stem w) (Stemmer.stem w)
  done

(* The in-place scanner must agree exactly with the token-based reference. *)
let prop_contains_word_equiv =
  let text_gen =
    QCheck.Gen.(
      map
        (fun cs -> String.concat "" (List.map (String.make 1) cs))
        (list_size (int_range 0 60)
           (oneof [ char_range 'a' 'c'; return ' '; return '.'; char_range 'A' 'C' ])))
  in
  let word_gen =
    QCheck.Gen.(
      map
        (fun cs -> String.concat "" (List.map (String.make 1) cs))
        (list_size (int_range 1 5) (char_range 'a' 'c')))
  in
  QCheck.Test.make ~name:"contains_word equals token scan" ~count:2000
    (QCheck.make
       QCheck.Gen.(pair text_gen word_gen)
       ~print:(fun (t, w) -> Printf.sprintf "%S / %S" t w))
    (fun (text, w) ->
      let reference =
        List.exists (fun tok -> tok = w) (Tokenizer.words text)
      in
      Tokenizer.contains_word text w = reference)

let test_contains_word_truncation () =
  (* A 40-char run is indexed as its 32-char prefix; the scanner must agree. *)
  let long_run = String.make 40 'a' in
  let prefix32 = String.make 32 'a' in
  check_bool "truncated token matches" true (Tokenizer.contains_word long_run prefix32);
  check_bool "shorter prefix does not" false
    (Tokenizer.contains_word long_run (String.make 31 'a'))

let prop_tokenizer_words_valid =
  QCheck.Test.make ~name:"tokenizer output within length bounds" ~count:500
    QCheck.(string_gen QCheck.Gen.printable)
    (fun text ->
      List.for_all
        (fun w ->
          String.length w >= Tokenizer.min_word_len
          && String.length w <= Tokenizer.max_word_len
          && String.lowercase_ascii w = w)
        (Tokenizer.words text))

let () =
  Alcotest.run "text"
    [
      ( "tokenizer",
        [
          Alcotest.test_case "basic words" `Quick test_words_basic;
          Alcotest.test_case "min length" `Quick test_words_min_len;
          Alcotest.test_case "truncation" `Quick test_words_truncation;
          Alcotest.test_case "unique words" `Quick test_unique_words;
          Alcotest.test_case "contains_word" `Quick test_contains_word;
          Alcotest.test_case "contains_word truncation" `Quick test_contains_word_truncation;
          Alcotest.test_case "iter_lines" `Quick test_iter_lines;
          Alcotest.test_case "trailing newline" `Quick test_iter_lines_trailing_newline;
        ] );
      ( "stemmer",
        [
          Alcotest.test_case "families collide" `Quick test_stem_families;
          Alcotest.test_case "short words" `Quick test_stem_short_words;
          Alcotest.test_case "guards" `Quick test_stem_guards;
          Alcotest.test_case "specific forms" `Quick test_stem_specific;
          Alcotest.test_case "corpus vocabulary matches the reference" `Quick
            test_stem_corpus_vocabulary;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_stem_idempotent;
            prop_stem_never_longer;
            prop_stem_equals_reference;
            prop_tokenizer_words_valid;
            prop_contains_word_equiv;
          ] );
    ]
