(* Crash-safe journal records: each line carries a checksum of its body so
   replay can tell a real record from a torn or corrupted one. *)

module Fs = Hac_vfs.Fs
module Vpath = Hac_vfs.Vpath
module Image = Hac_vfs.Image

let checksum = Hac_store.Seal.checksum
let seal = Hac_store.Seal.seal

type line = Hac_store.Seal.line = Valid of string | Corrupt of string | Blank

let parse = Hac_store.Seal.parse

(* -- record replay ---------------------------------------------------------

   Journal record grammar (one sealed line each):
     D <uid> <path>     directory created (or known, in a consolidated log)
     M <uid> <path>     directory (and hence its subtree) moved here
     S <uid>            directory became semantic
     X <uid>            directory removed
     F <path>           file content changed since the last settle
   Replaying yields the uid -> path map plus the set of uids that were
   semantic, as of the last intact record.  Corrupt and malformed lines are
   counted and skipped — every intact record still applies. *)

type replay = {
  map : (int, string) Hashtbl.t;
  sem : (int, unit) Hashtbl.t;
  files : (string, unit) Hashtbl.t;
  mutable applied : int;
  mutable corrupt : int;
  mutable malformed : int;
  mutable seg_applied : int;
  mutable moved : int;
  mutable seg_moved : int;
}

let replay_create () =
  {
    map = Hashtbl.create 64;
    sem = Hashtbl.create 16;
    files = Hashtbl.create 16;
    applied = 0;
    corrupt = 0;
    malformed = 0;
    seg_applied = 0;
    moved = 0;
    seg_moved = 0;
  }

let replay_text r text =
  let apply_move uid new_path =
    match Hashtbl.find_opt r.map uid with
    | None -> Hashtbl.replace r.map uid new_path
    | Some old_path ->
        (* The move carries the whole registered subtree along. *)
        Hashtbl.iter
          (fun u p ->
            match Vpath.replace_prefix ~prefix:old_path ~by:new_path p with
            | Some p' when Vpath.is_prefix ~prefix:old_path p ->
                Hashtbl.replace r.map u p'
            | Some _ | None -> ())
          (Hashtbl.copy r.map)
  in
  (* Paths may contain spaces: D and M both take everything after the uid
     as the path (rest-concat), never a fixed arity. *)
  let handle_body body =
    match String.split_on_char ' ' (String.trim body) with
    | "D" :: uid :: rest when rest <> [] -> (
        match int_of_string_opt uid with
        | Some uid ->
            r.applied <- r.applied + 1;
            Hashtbl.replace r.map uid (String.concat " " rest)
        | None -> r.malformed <- r.malformed + 1)
    | "M" :: uid :: rest when rest <> [] -> (
        match int_of_string_opt uid with
        | Some uid ->
            r.applied <- r.applied + 1;
            r.moved <- r.moved + 1;
            apply_move uid (String.concat " " rest)
        | None -> r.malformed <- r.malformed + 1)
    | "F" :: rest when rest <> [] ->
        r.applied <- r.applied + 1;
        Hashtbl.replace r.files (String.concat " " rest) ()
    | [ "S"; uid ] -> (
        match int_of_string_opt uid with
        | Some uid ->
            r.applied <- r.applied + 1;
            Hashtbl.replace r.sem uid ()
        | None -> r.malformed <- r.malformed + 1)
    | [ "X"; uid ] -> (
        match int_of_string_opt uid with
        | Some uid ->
            r.applied <- r.applied + 1;
            r.moved <- r.moved + 1;
            Hashtbl.remove r.map uid;
            Hashtbl.remove r.sem uid
        | None -> r.malformed <- r.malformed + 1)
    | _ -> r.malformed <- r.malformed + 1
  in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         match parse line with
         | Valid body -> handle_body body
         | Corrupt _ -> r.corrupt <- r.corrupt + 1
         | Blank -> ())

let semantic_entries r =
  Hashtbl.fold
    (fun uid () acc ->
      match Hashtbl.find_opt r.map uid with
      | Some path -> (uid, path) :: acc
      | None -> acc)
    r.sem []
  |> List.sort compare

(* -- segments, checkpoints, epochs ----------------------------------------

   The journal is a chain of epoch-stamped files under the metadata area:

     dirs.log          segment, epoch 0 (the historical name)
     seg-NNNNNN.log    segment, epoch NNNNNN >= 1
     ckpt-NNNNNN.img   checkpoint covering every epoch <= NNNNNN
     ckpt.tmp          checkpoint being written (not yet committed)

   A checkpoint is published atomically (write ckpt.tmp, fsync, rename,
   fsync), after which appends move to the next epoch's segment.  Recovery
   starts from the newest checkpoint that proves readable and replays only
   the segments newer than it; compaction deletes what the checkpoint
   supersedes. *)

let meta_root = Sync.meta_root

let segment_name epoch =
  if epoch = 0 then "dirs.log" else Printf.sprintf "seg-%06d.log" epoch

let segment_path epoch = meta_root ^ "/" ^ segment_name epoch

let checkpoint_name epoch = Printf.sprintf "ckpt-%06d.img" epoch

let checkpoint_path epoch = meta_root ^ "/" ^ checkpoint_name epoch

let checkpoint_tmp = meta_root ^ "/ckpt.tmp"

type file_class = Segment of int | Checkpoint of int | Other

(* Epoch numbers are zero-padded to six digits but not bounded by them:
   epoch 10^6 writes [seg-1000000.log], one character longer.  Parse the
   digit run between prefix and suffix whatever its width — and compare
   epochs numerically, never file names lexicographically (where
   [seg-1000000.log] would sort {e before} [seg-999999.log] and a scan
   keyed on names would replay the chain out of order). *)
let parse_epoch name ~prefix ~suffix =
  let pl = String.length prefix
  and sl = String.length suffix
  and nl = String.length name in
  if
    nl > pl + sl
    && String.sub name 0 pl = prefix
    && String.sub name (nl - sl) sl = suffix
  then
    let mid = String.sub name pl (nl - pl - sl) in
    if String.for_all (fun c -> c >= '0' && c <= '9') mid then
      int_of_string_opt mid (* None on int overflow *)
    else None
  else None

let classify name =
  if name = "dirs.log" then Segment 0
  else
    match parse_epoch name ~prefix:"seg-" ~suffix:".log" with
    | Some e when e > 0 -> Segment e
    | Some _ -> Other
    | None -> (
        match parse_epoch name ~prefix:"ckpt-" ~suffix:".img" with
        | Some e -> Checkpoint e
        | None -> Other)

let sd_uid_of_name name =
  (* "sd-<uid>.<suffix>" — per-directory structure files. *)
  if String.length name > 3 && String.sub name 0 3 = "sd-" then
    match String.index_opt name '.' with
    | Some dot when dot > 3 -> int_of_string_opt (String.sub name 3 (dot - 3))
    | _ -> None
  else None

let scan fs =
  let names = if Fs.is_dir fs meta_root then Fs.readdir fs meta_root else [] in
  let segs, ckpts =
    List.fold_left
      (fun (segs, ckpts) name ->
        match classify name with
        | Segment e -> ((e, meta_root ^ "/" ^ name) :: segs, ckpts)
        | Checkpoint e -> (segs, (e, meta_root ^ "/" ^ name) :: ckpts)
        | Other -> (segs, ckpts))
      ([], []) names
  in
  (List.sort compare segs, List.sort compare ckpts)

let current_epoch fs =
  let segs, ckpts = scan fs in
  let top = List.fold_left (fun m (e, _) -> max m e) 0 segs in
  List.fold_left (fun m (e, _) -> max m (e + 1)) top ckpts

(* -- checkpoint blobs ------------------------------------------------------

   A checkpoint file is an {!Hac_vfs.Image} dump wrapped in a one-line
   header carrying the payload length and checksum, so a torn or rotted
   checkpoint is detected as a unit (all-or-nothing) before any of it is
   believed. *)

let seal_blob = Hac_store.Seal.seal_blob
let open_blob = Hac_store.Seal.open_blob

let read_opt fs path =
  try Some (Fs.read_file fs path) with Hac_vfs.Errno.Error _ -> None

let load_checkpoint fs path =
  match read_opt fs path with
  | None -> Error "unreadable checkpoint"
  | Some data -> ( match open_blob data with Error _ as e -> e | Ok p -> Image.load p)

(* -- the chain: what recovery reads ---------------------------------------- *)

type chain = {
  checkpoint : (int * Fs.t) option;
  invalid_checkpoints : int;
  segments : (int * string) list;
  skipped_segments : int;
}

let read_chain fs =
  let segs, ckpts = scan fs in
  let checkpoint, invalid =
    List.fold_left
      (fun (best, bad) (e, p) ->
        match load_checkpoint fs p with
        | Ok img -> (Some (e, img), bad)
        | Error _ -> (best, bad + 1))
      (None, 0) ckpts
  in
  let cutoff = match checkpoint with None -> -1 | Some (e, _) -> e in
  let post, pre = List.partition (fun (e, _) -> e > cutoff) segs in
  {
    checkpoint;
    invalid_checkpoints = invalid;
    segments = List.filter_map (fun (e, p) -> Option.map (fun t -> (e, t)) (read_opt fs p)) post;
    skipped_segments = List.length pre;
  }

let replay_chain chain =
  let r = replay_create () in
  (match chain.checkpoint with
  | None -> ()
  | Some (_, img) -> (
      match read_opt img "/dirs.log" with
      | Some text -> replay_text r text
      | None -> ()));
  let base = r.applied and base_moved = r.moved in
  List.iter (fun (_, text) -> replay_text r text) chain.segments;
  r.seg_applied <- r.applied - base;
  r.seg_moved <- r.moved - base_moved;
  r

(* Highest uid any on-disk metadata mentions — consolidated or not, live
   structure files included — so a recovering instance can allocate its own
   uids strictly above everything a previous life left behind. *)
let max_uid fs =
  let best = ref 0 in
  let see u = if u > !best then best := u in
  let scan_text text =
    String.split_on_char '\n' text
    |> List.iter (fun line ->
           match parse line with
           | Valid body -> (
               match String.split_on_char ' ' (String.trim body) with
               | ("D" | "M" | "S" | "X") :: uid :: _ -> (
                   match int_of_string_opt uid with Some u -> see u | None -> ())
               | _ -> ())
           | Corrupt _ | Blank -> ())
  in
  let segs, _ = scan fs in
  List.iter (fun (_, p) -> Option.iter scan_text (read_opt fs p)) segs;
  (match (read_chain fs).checkpoint with
  | Some (_, img) -> Option.iter scan_text (read_opt img "/dirs.log")
  | None -> ());
  (if Fs.is_dir fs meta_root then
     List.iter (fun name -> Option.iter see (sd_uid_of_name name)) (Fs.readdir fs meta_root));
  !best
