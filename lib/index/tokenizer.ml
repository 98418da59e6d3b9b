let min_word_len = 2

let max_word_len = 32

let is_word_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_'

let lower c = if c >= 'A' && c <= 'Z' then Char.chr (Char.code c + 32) else c

let iter_words text f =
  let n = String.length text in
  let buf = Buffer.create max_word_len in
  let flush () =
    let len = Buffer.length buf in
    if len >= min_word_len then f (Buffer.contents buf);
    Buffer.clear buf
  in
  for i = 0 to n - 1 do
    let c = text.[i] in
    if is_word_char c then begin
      if Buffer.length buf < max_word_len then Buffer.add_char buf (lower c)
    end
    else flush ()
  done;
  flush ()

let exists_word text p =
  let exception Found in
  match iter_words text (fun w -> if p w then raise_notrace Found) with
  | () -> false
  | exception Found -> true

let words text =
  let acc = ref [] in
  iter_words text (fun w -> acc := w :: !acc);
  List.rev !acc

let unique_words text = List.sort_uniq compare (words text)

(* Equivalent to scanning [iter_words] for an equal token, but in place and
   allocation-free — this is the hot path of Glimpse-style candidate
   verification, where every candidate file's bytes are scanned. *)
let contains_word text w =
  let m = String.length w in
  if m < min_word_len || m > max_word_len then false
  else begin
    let n = String.length text in
    (* [i] is the first character of a word run. *)
    let rec at_word_start i =
      let rec cmp j = j = m || (lower text.[i + j] = w.[j] && cmp (j + 1)) in
      let matched =
        i + m <= n && cmp 0
        (* Whole-word: the run must end here — except that runs longer than
           [max_word_len] are truncated to a [max_word_len] token. *)
        && (m = max_word_len || i + m = n || not (is_word_char text.[i + m]))
      in
      if matched then true else skip_run (i + 1)
    and skip_run i =
      if i >= n then false
      else if is_word_char text.[i] then skip_run (i + 1)
      else seek_start (i + 1)
    and seek_start i =
      if i >= n then false
      else if is_word_char text.[i] then at_word_start i
      else seek_start (i + 1)
    in
    if n = 0 then false
    else if is_word_char text.[0] then at_word_start 0
    else seek_start 1
  end

let iter_lines text f =
  let n = String.length text in
  let line = ref 1 in
  let start = ref 0 in
  for i = 0 to n - 1 do
    if text.[i] = '\n' then begin
      f !line (String.sub text !start (i - !start));
      incr line;
      start := i + 1
    end
  done;
  if !start < n then f !line (String.sub text !start (n - !start))
