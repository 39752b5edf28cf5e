type kind = Robustness | Guard | Redund | Proptest | Litmus

type t = {
  id : string;
  kind : kind;
  seeds : int list;
  shrink : bool;
  engine : bool;
  horizon : int;
  iterations : int;
  bound : int;
}

let kind_to_string = function
  | Robustness -> "robustness"
  | Guard -> "guard"
  | Redund -> "redund"
  | Proptest -> "proptest"
  | Litmus -> "litmus"

let kind_of_string = function
  | "robustness" -> Some Robustness
  | "guard" -> Some Guard
  | "redund" -> Some Redund
  | "proptest" -> Some Proptest
  | "litmus" -> Some Litmus
  | _ -> None

let max_id_len = 64
let max_seeds = 100_000

let valid_id s =
  let n = String.length s in
  n > 0 && n <= max_id_len
  && s.[0] <> '.'
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '.' | '_' | '-' -> true
         | _ -> false)
       s

let decode_seeds = function
  | Json.List elems ->
    let seeds =
      List.map (function Json.Int i when i > 0 -> Some i | _ -> None) elems
    in
    if seeds = [] then Error "seeds: empty list"
    else if List.exists Option.is_none seeds then
      Error "seeds: expected positive integers"
    else if List.length seeds > max_seeds then Error "seeds: too many"
    else Ok (List.map Option.get seeds)
  | Json.Obj _ as o ->
    (match
       ( Option.bind (Json.member "from" o) Json.to_int,
         Option.bind (Json.member "to" o) Json.to_int )
     with
     | Some lo, Some hi ->
       if lo < 1 then Error "seeds: \"from\" must be >= 1"
       else if hi < lo then Error "seeds: \"to\" must be >= \"from\""
       else if hi - lo + 1 > max_seeds then Error "seeds: range too wide"
       else Ok (List.init (hi - lo + 1) (fun i -> lo + i))
     | _ -> Error "seeds: range needs integer \"from\" and \"to\"")
  | _ -> Error "seeds: expected a list or a {\"from\",\"to\"} range"

let opt_bool ~field ~default json =
  match Json.member field json with
  | None | Some Json.Null -> Ok default
  | Some j ->
    (match Json.to_bool j with
     | Some b -> Ok b
     | None -> Error (field ^ ": expected a boolean"))

let ( let* ) = Result.bind

let of_json json =
  match json with
  | Json.Obj _ ->
    let* id =
      match Option.bind (Json.member "id" json) Json.to_str with
      | None -> Error "id: required string"
      | Some id when not (valid_id id) ->
        Error "id: must be [A-Za-z0-9._-]+, at most 64 chars, not dot-led"
      | Some id -> Ok id
    in
    let* kind =
      match Option.bind (Json.member "kind" json) Json.to_str with
      | None -> Error "kind: required string"
      | Some k ->
        (match kind_of_string k with
         | Some k -> Ok k
         | None ->
           Error
             "kind: expected \"robustness\", \"guard\", \"redund\", \
              \"proptest\" or \"litmus\"")
    in
    let* seeds =
      (* litmus enumerates instead of sweeping seeds *)
      match Json.member "seeds" json with
      | None | Some Json.Null | Some (Json.List []) when kind = Litmus ->
        Ok []
      | None | Some Json.Null -> Error "seeds: required"
      | Some s -> decode_seeds s
    in
    let* shrink = opt_bool ~field:"shrink" ~default:true json in
    let* engine = opt_bool ~field:"engine" ~default:false json in
    let* horizon =
      match Json.member "horizon" json with
      | None | Some Json.Null -> Ok 200_000
      | Some j ->
        (match Json.to_int j with
         | Some h when h > 0 -> Ok h
         | Some _ -> Error "horizon: must be positive"
         | None -> Error "horizon: expected an integer")
    in
    let* iterations =
      match Json.member "iterations" json with
      | None | Some Json.Null -> Ok 2
      | Some j ->
        (match Json.to_int j with
         | Some i when i > 0 -> Ok i
         | Some _ -> Error "iterations: must be positive"
         | None -> Error "iterations: expected an integer")
    in
    let* bound =
      match Json.member "bound" json with
      | None | Some Json.Null -> Ok 2
      | Some j ->
        (match Json.to_int j with
         | Some b when b > 0 -> Ok b
         | Some _ -> Error "bound: must be positive"
         | None -> Error "bound: expected an integer")
    in
    Ok { id; kind; seeds; shrink; engine; horizon; iterations; bound }
  | _ -> Error "job: expected a JSON object"

let parse_line line =
  match Json.parse line with
  | Error e -> Error ("job: " ^ e)
  | Ok json -> of_json json

let to_json t =
  Json.Obj
    [ ("id", Json.String t.id);
      ("kind", Json.String (kind_to_string t.kind));
      ("seeds", Json.List (List.map (fun s -> Json.Int s) t.seeds));
      ("shrink", Json.Bool t.shrink);
      ("engine", Json.Bool t.engine);
      ("horizon", Json.Int t.horizon);
      ("iterations", Json.Int t.iterations);
      ("bound", Json.Int t.bound) ]
