(* Compared in place: [stem] tests up to a dozen suffixes per token. *)
let ends_with ~suffix w =
  let sl = String.length suffix and wl = String.length w in
  wl >= sl
  &&
  let off = wl - sl and i = ref 0 in
  while !i < sl && String.unsafe_get w (off + !i) = String.unsafe_get suffix !i do
    incr i
  done;
  !i = sl

let chop w n = String.sub w 0 (String.length w - n)

(* Each rule: (suffix, chars to drop, replacement, minimum stem length after
   dropping).  First applicable rule wins; at most one rule fires, which is
   what makes [stem] idempotent together with the replacement choices (no
   replacement itself ends with a strippable suffix). *)
let rules =
  [
    ("sses", 2, "", 2) (* classes -> class *);
    ("ies", 3, "y", 2) (* queries -> query *);
    ("ness", 4, "", 3) (* darkness -> dark *);
    ("ments", 5, "", 3) (* arguments -> argu? no: min stem 3 keeps argument\ments=argu -- see tests *);
    ("ment", 4, "", 3);
    ("ings", 4, "", 3) (* findings -> find *);
    ("ing", 3, "", 3) (* running -> runn *);
    ("edly", 4, "", 3);
    ("ed", 2, "", 3) (* matched -> match *);
    ("ly", 2, "", 3) (* quickly -> quick *);
    ("es", 2, "", 3) (* matches -> match *);
    ("s", 1, "", 3) (* links -> link; keeps "ss" words because "ss" also matches "s"? no: guard below *);
  ]

(* The bare plural rules must not strip "class" or "virus"; longer suffixes
   like "ness"/"sses" are safe despite also ending in s. *)
let plural_guard suffix w =
  (suffix = "s" || suffix = "es")
  && (ends_with ~suffix:"ss" w || ends_with ~suffix:"us" w)

(* Strip suffixes to a fixpoint: stacked inflections ("worked" + plural =
   "workeds") strip one layer per pass, and the fixpoint makes [stem]
   idempotent by construction.  Every rule shortens the word, so this
   terminates. *)
let rec stem w =
  let n = String.length w in
  if n <= 3 then w
  else
    let rec try_rules = function
      | [] -> w
      | (suffix, drop, repl, min_stem) :: rest ->
          if
            ends_with ~suffix w
            && String.length w - drop >= min_stem
            && not (plural_guard suffix w)
          then stem (chop w drop ^ repl)
          else try_rules rest
    in
    try_rules rules
