type remote_result = {
  rr_ns : string;
  rr_uri : string;
  rr_name : string;
  rr_stale : bool;
}

module Names = Map.Make (String)

type t = {
  uid : int;
  mutable query : Hac_query.Ast.t;
  mutable links : Link.t Names.t;
  by_target : (string, Link.t list) Hashtbl.t;
  permanent : (string, int) Hashtbl.t;
  mutable transient_local : Hac_bitset.Fileset.t;
  mutable transient_remote : remote_result list;
  mutable materialized : bool;
  prohibited : (string, unit) Hashtbl.t;
  mutable last_synced : int;
  mutable meta_dirty : bool;
}

let create ~uid query =
  {
    uid;
    query;
    links = Names.empty;
    by_target = Hashtbl.create 16;
    permanent = Hashtbl.create 4;
    transient_local = Hac_bitset.Fileset.empty;
    transient_remote = [];
    materialized = false;
    prohibited = Hashtbl.create 8;
    last_synced = 0;
    meta_dirty = true;
  }

let find_link sd name = Names.find_opt name sd.links

(* [links] is written only by [add_link] and [remove_link], which keep the
   two derived tables in step: every present link filed under its target
   key (sorted by name, so the first is a deterministic representative),
   and the number of permanent links per target key. *)
let links_to_key sd key = Option.value ~default:[] (Hashtbl.find_opt sd.by_target key)

let link_by_target sd target =
  match links_to_key sd (Link.target_key target) with l :: _ -> Some l | [] -> None

let is_permanent_key sd key = Hashtbl.mem sd.permanent key

let index_link sd l =
  let key = Link.target_key l.Link.target in
  let rec insert = function
    | x :: rest when String.compare x.Link.name l.Link.name < 0 -> x :: insert rest
    | rest -> l :: rest
  in
  Hashtbl.replace sd.by_target key (insert (links_to_key sd key));
  if l.Link.cls = Link.Permanent then
    Hashtbl.replace sd.permanent key
      (1 + Option.value ~default:0 (Hashtbl.find_opt sd.permanent key))

let unindex_link sd l =
  let key = Link.target_key l.Link.target in
  (match List.filter (fun x -> x.Link.name <> l.Link.name) (links_to_key sd key) with
  | [] -> Hashtbl.remove sd.by_target key
  | rest -> Hashtbl.replace sd.by_target key rest);
  if l.Link.cls = Link.Permanent then
    match Hashtbl.find_opt sd.permanent key with
    | Some n when n > 1 -> Hashtbl.replace sd.permanent key (n - 1)
    | Some _ | None -> Hashtbl.remove sd.permanent key

let remove_link sd name =
  match Names.find_opt name sd.links with
  | None -> None
  | Some l ->
      sd.links <- Names.remove name sd.links;
      unindex_link sd l;
      sd.meta_dirty <- true;
      Some l

let add_link sd l =
  ignore (remove_link sd l.Link.name);
  sd.links <- Names.add l.Link.name l sd.links;
  index_link sd l;
  sd.meta_dirty <- true

(* The name map is ordered, so listings come out sorted without a sort. *)
let links_of_cls sd cls =
  List.rev (Names.fold (fun _ l acc -> if l.Link.cls = cls then l :: acc else acc) sd.links [])

let all_links sd = List.rev (Names.fold (fun _ l acc -> l :: acc) sd.links [])

let prohibit sd key =
  Hashtbl.replace sd.prohibited key ();
  sd.meta_dirty <- true

let unprohibit sd key =
  if Hashtbl.mem sd.prohibited key then begin
    Hashtbl.remove sd.prohibited key;
    sd.meta_dirty <- true
  end

let is_prohibited sd key = Hashtbl.mem sd.prohibited key

let prohibited_keys sd =
  Hashtbl.fold (fun k () acc -> k :: acc) sd.prohibited [] |> List.sort String.compare

let fresh_link_name sd ~taken target =
  let base = Link.display_name target in
  let used name = Names.mem name sd.links || taken name in
  if not (used base) then base
  else
    let rec go i =
      let candidate = Printf.sprintf "%s~%d" base i in
      if used candidate then go (i + 1) else candidate
    in
    go 2

let approx_bytes sd =
  let word = Sys.int_size / 8 + 1 in
  let query_bytes = Hac_query.Ast.size sd.query * 4 * word in
  (* Per link: the record and its name-map node, plus its target-index
     cell (the key string is shared). *)
  let links_bytes =
    Names.fold
      (fun name l acc ->
        acc + String.length name + String.length (Link.target_key l.Link.target) + (9 * word))
      sd.links 0
    + Hashtbl.length sd.permanent * 3 * word
  in
  let result_bytes =
    Hac_bitset.Fileset.byte_size sd.transient_local
    + List.fold_left
        (fun acc r -> acc + String.length r.rr_uri + String.length r.rr_name + (4 * word))
        0 sd.transient_remote
  in
  let prohibited_bytes =
    Hashtbl.fold (fun k () acc -> acc + String.length k + (3 * word)) sd.prohibited 0
  in
  query_bytes + links_bytes + result_bytes + prohibited_bytes + (8 * word)
