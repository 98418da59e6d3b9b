(* Checksummed framing for everything HAC persists: journal lines are
   sealed individually, whole-file payloads (checkpoints, structure files)
   are wrapped in a one-line header.  Shared by {!Journal} and {!Sync} —
   which is why it lives below both. *)

let checksum body =
  (* FNV-1a over the body, truncated to 32 bits — cheap, dependency-free and
     more than enough to catch torn writes and bit rot in a line-oriented
     log.  Not a defence against an adversary. *)
  let h = ref 0x811c9dc5 in
  for i = 0 to String.length body - 1 do
    h := (!h lxor Char.code (String.unsafe_get body i)) * 0x01000193 land 0xFFFFFFFF
  done;
  !h

let hex_len = 8

(* "body #hhhhhhhh": the suffix is fixed-width so bodies may contain '#'. *)
let suffix_len = hex_len + 2

let seal body = Printf.sprintf "%s #%08x" body (checksum body)

type line = Valid of string | Corrupt of string | Blank

let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')

let parse line =
  let n = String.length line in
  if String.trim line = "" then Blank
  else if n > suffix_len && line.[n - suffix_len] = ' ' && line.[n - suffix_len + 1] = '#'
  then begin
    let body = String.sub line 0 (n - suffix_len) in
    let hex = String.sub line (n - hex_len) hex_len in
    if
      String.for_all is_hex hex
      && int_of_string_opt ("0x" ^ hex) = Some (checksum body)
    then Valid body
    else Corrupt line
  end
  else Corrupt line

(* -- whole-payload blobs ---------------------------------------------------

   "HACCKPT1 <len> <crc>\n<payload>" — a torn or rotted file is detected as
   a unit (all-or-nothing) before any of it is believed. *)

let blob_magic = "HACCKPT1"

let seal_blob payload =
  let header =
    Printf.sprintf "%s %d %08x\n" blob_magic (String.length payload) (checksum payload)
  in
  let hl = String.length header and pl = String.length payload in
  let b = Bytes.create (hl + pl) in
  Bytes.blit_string header 0 b 0 hl;
  Bytes.blit_string payload 0 b hl pl;
  Bytes.unsafe_to_string b

let open_blob data =
  match String.index_opt data '\n' with
  | None -> Error "unterminated checkpoint header"
  | Some nl -> (
      match String.split_on_char ' ' (String.sub data 0 nl) with
      | [ magic; len_s; crc_s ] when magic = blob_magic -> (
          match (int_of_string_opt len_s, int_of_string_opt ("0x" ^ crc_s)) with
          | Some len, Some crc ->
              if len < 0 || String.length data - nl - 1 < len then
                Error "truncated checkpoint payload"
              else
                let payload = String.sub data (nl + 1) len in
                if checksum payload <> crc then Error "checkpoint checksum mismatch"
                else Ok payload
          | _ -> Error "malformed checkpoint header")
      | _ -> Error "not a checkpoint blob")

(* Strictly sealed or nothing: falling back to raw text would let a torn
   prefix of a sealed file (or a bit-flipped header) masquerade as a tiny
   valid payload — e.g. the first bytes of the magic parsing as a query. *)
let unseal_file data =
  match open_blob data with Ok payload -> Some payload | Error _ -> None
